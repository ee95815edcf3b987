"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest benchmark/test_checks.py -q

A small real workspace (one 40 s session with a dead channel, two
horizons, both models, two epochs) is built once through the same child
process the benchmark uses. Every check must pass on it and fail on a
copy with one deliberate fault.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "input_sets": 1,
    "n_sessions": 1,
    "duration_s": 40.0,
    "class_shares": run.SHARES_120S,
    "horizons": (0, 300),
    "models": ("linear", "shallow"),
    "epochs": 2,
    "dead_channels": {0: "C3"},
    "gap": None,
    "jobs": 2,
}
SEED = 3
SESSION = f"synth-{run.session_seed(SEED, 0, 0):04d}"


@pytest.fixture(scope="module")
def tiny_rounds():
    runner = run.Runner(ROOT, "selftest")
    plain_dir, plain = runner.round("tiny", TINY, SEED, 0)
    traced_dir, traced = runner.round("tiny", TINY, SEED, 0, trace=True)
    yield plain_dir, plain, traced_dir, traced
    shutil.rmtree(plain_dir, ignore_errors=True)
    shutil.rmtree(traced_dir, ignore_errors=True)


@pytest.fixture
def ws(tiny_rounds, tmp_path):
    """A private copy of the untraced workspace, free to damage."""
    copy = tmp_path / "ws"
    shutil.copytree(tiny_rounds[0] / "ws", copy)
    return copy


def expect():
    return run.expectations(TINY, SEED, 0)


def test_program_output_passes_every_check(ws):
    assert checks.check_workspace(ws, expect()) == []


def test_rounds_report_timings(tiny_rounds):
    _, plain, _, traced = tiny_rounds
    for result in (plain, traced):
        assert result["exit_code"] == 0
        assert result["setup_s"] > 0 and result["wall_s"] > 0 and result["cpu_s"] > 0
        assert result["peak_rss_mb"] > 10


def _rewrite_labels(path: Path, t, codes):
    path.write_text("t_ns,label_code\n" + "".join(f"{a},{b}\n" for a, b in zip(t, codes)))


def test_labels_shifted_by_one_tick_fail(ws):
    work = ws / "work" / SESSION
    eeg_t, _ = checks.read_recording(work / "preprocessed" / "eeg.csv")
    joystick = checks.read_joystick(ws / "sessions" / SESSION / "joystick.jsonl")
    # the labels of a horizon one joystick tick (100 ms) later
    t, codes = checks.expected_labels(eeg_t, *joystick, 400, **run.LABEL_RULE)
    path = work / "labels" / "labels_300.csv"
    _rewrite_labels(path, t, codes)
    errors = checks.check_labels(path, eeg_t, joystick, 300, run.LABEL_RULE)
    assert errors and "differ" in errors[0]


def test_labels_shifted_by_one_sample_fail(ws):
    work = ws / "work" / SESSION
    eeg_t, _ = checks.read_recording(work / "preprocessed" / "eeg.csv")
    joystick = checks.read_joystick(ws / "sessions" / SESSION / "joystick.jsonl")
    path = work / "labels" / "labels_0.csv"
    t, codes = checks.read_labels(path)
    _rewrite_labels(path, t, np.roll(codes, 1))
    assert checks.check_labels(path, eeg_t, joystick, 0, run.LABEL_RULE)


def test_edited_macro_f1_fails(ws):
    path = ws / "report" / "metrics.csv"
    lines = path.read_text().splitlines()
    i = next(i for i, l in enumerate(lines) if ",macro_f1," in l)
    head, value = lines[i].rsplit(",", 1)
    lines[i] = f"{head},{float(value) + 1e-6:.12g}"
    path.write_text("\n".join(lines) + "\n")
    errors = checks.check_macro_f1(ws, 4)
    assert len(errors) == 1 and "recomputed" in errors[0]


def test_missing_macro_f1_row_fails(ws):
    assert checks.check_macro_f1(ws, 5)


def _edit_stats(ws, key, edit):
    path = ws / "work" / SESSION / "windows" / "300" / "split_stats.json"
    stats = json.loads(path.read_text())
    stats[key] = edit(stats[key])
    path.write_text(json.dumps(stats))


def _split_errors(ws):
    work = ws / "work" / SESSION
    return checks.check_split(work / "windows" / "300", work / "runs", 300,
                              TINY["models"], run.N_CHANNELS, run.WINDOW_LEN)


def test_unbalanced_train_histogram_fails(ws):
    assert _split_errors(ws) == []
    _edit_stats(ws, "train_histogram", lambda h: [h[0] + 1, *h[1:]])
    assert any("not balanced" in e for e in _split_errors(ws))


def test_test_histogram_mismatch_fails(ws):
    _edit_stats(ws, "test_histogram", lambda h: [h[0] + 1, *h[1:]])
    assert any("row sums" in e for e in _split_errors(ws))


def test_truncated_window_file_fails(ws):
    path = ws / "work" / SESSION / "windows" / "300" / "test.f32"
    path.write_bytes(path.read_bytes()[:-4])
    assert any("float32" in e for e in _split_errors(ws))


def test_zscore_check_catches_scaled_channel():
    x = np.random.default_rng(0).standard_normal((4, 5000))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    assert checks.check_zscore(x, "x") == []
    x[2] *= 1.01
    assert checks.check_zscore(x, "x")


def test_dead_channel_not_interpolated_fails(ws):
    path = ws / "work" / SESSION / "preprocess_report.json"
    report = json.loads(path.read_text())
    assert "C3" in report["interpolated"]
    report["interpolated"] = [c for c in report["interpolated"] if c != "C3"]
    path.write_text(json.dumps(report))
    assert any("dead channel" in e for e in checks.check_workspace(ws, expect()))


def _set_f1(ws, model, value):
    path = ws / "report" / "metrics.csv"
    lines = path.read_text().splitlines()
    key = f"{model},300,{SESSION},macro_f1,"
    lines = [f"{key}{value}" if l.startswith(key) else l for l in lines]
    path.write_text("\n".join(lines) + "\n")


def test_gap_check(ws):
    _set_f1(ws, "shallow", 0.9)
    _set_f1(ws, "linear", 0.2)
    assert checks.check_gap(ws, 300, 0.30) == []
    _set_f1(ws, "shallow", 0.45)
    assert checks.check_gap(ws, 300, 0.30)


def test_workspace_differing_by_one_byte_fails(ws, tmp_path):
    other = tmp_path / "other"
    shutil.copytree(ws, other)
    assert checks.compare_workspaces(ws, other) == []
    path = other / "work" / SESSION / "runs" / "shallow_300" / "checkpoint.bin"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1
    path.write_bytes(bytes(blob))
    assert checks.compare_workspaces(ws, other) == [
        f"differs: work/{SESSION}/runs/shallow_300/checkpoint.bin"
    ]
    (other / "extra").write_text("")
    assert len(checks.compare_workspaces(ws, other)) == 2


def test_traced_round_holds_worker_spans(tiny_rounds):
    _, plain, traced_dir, traced = tiny_rounds
    spans = tracing.load_spans(traced_dir / "trace")
    figures = tracing.layer_metrics(spans, TINY["jobs"], traced["wall_s"])
    main_pid = next(s["pid"] for s in spans if s["name"] == "pipeline.stage_report")
    train_pids = {s["pid"] for s in spans if s["name"] == "pipeline.stage_train"}
    assert train_pids and main_pid not in train_pids
    assert figures["preprocess.detect_bad_channels.calls"] >= 1
    assert figures["preprocess.channels_interpolated"] >= 1
    assert figures["trainer.steps.shallow"] > 0
    assert checks.check_workspace(traced_dir / "ws", expect()) == []


def test_self_time_subtracts_children():
    spans = [
        {"id": 1, "parent": None, "name": "pipeline.stage_train", "t0": 0.0, "t1": 10.0, "pid": 7},
        {"id": 2, "parent": 1, "name": "nets.shallow.forward", "t0": 2.0, "t1": 5.0, "pid": 7},
        {"id": 1, "parent": None, "name": "pipeline.stage_eval", "t0": 0.0, "t1": 1.0, "pid": 8},
    ]
    figures = tracing.layer_metrics(spans, 2, 10.0)
    assert figures["self.pipeline.s"] == pytest.approx(8.0)
    assert figures["self.models.nets.s"] == pytest.approx(3.0)
    assert figures["pipeline.parallel_efficiency"] == pytest.approx(11.0 / 20.0)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    reported = {**tracing.layer_metrics([], 1, 1.0), "trace.overhead_s": 0.0}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: tracing.unit_of(k) for k in reported
    }
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "workspace_mb", "macro_f1_mean"
    }
