"""End-to-end pipeline tests on a reduced configuration.

run-all must be byte-identical to running the stages one by one, and to a
second run-all with the same config; both properties are checked over the
entire workspace tree, not just the report.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from eegdrive import pipeline
from eegdrive.cli import main
from eegdrive.config import RunConfig, config_from_dict

SMALL = {
    "models": ["linear"],
    "horizons_ms": [300],
    "n_sessions": 2,
    "synth": {"duration_s": 40.0},
    "train": {"epochs": 5},
}


# the timestamps of the third line of a simulated session's stream files
JOY_T3 = b'"t_ns": 200000000'
EEG_T3 = b"\n8000000,"


def _write_cfg(tmp_path, doc=SMALL, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _with(**fields):
    """An edit of a JSON file's bytes that sets the given fields."""
    return lambda raw: json.dumps({**json.loads(raw), **fields}).encode()


def _without(key):
    """An edit of a JSON file's bytes that drops one field."""
    return lambda raw: json.dumps({k: v for k, v in json.loads(raw).items() if k != key}).encode()


def _tree(root):
    """{relative path: sha256} for every file under root."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    root = tmp_path_factory.mktemp("baseline")
    cfg = _write_cfg(root)
    out = root / "ws"
    assert main(["run-all", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


class TestRunAll:
    def test_artifacts_exist(self, baseline):
        _, out = baseline
        report = out / "report"
        for name in (
            "metrics.csv",
            "summary.csv",
            "f1_vs_horizon.svg",
            "confusion_linear_300.csv",
        ):
            assert (report / name).is_file(), name
        for sid in ("synth-0000", "synth-0001"):
            assert (out / "sessions" / sid / "eeg.csv").is_file()
            work = out / "work" / sid
            assert (work / "preprocess_report.json").is_file()
            assert (work / "labels" / "labels_300.csv").is_file()
            assert (work / "windows" / "300" / "train.f32").is_file()
            assert (work / "windows" / "300" / "split_stats.json").is_file()
            run = work / "runs" / "linear_300"
            assert (run / "checkpoint.bin").is_file()
            assert (run / "loss.csv").is_file()
            assert (run / "score.json").is_file()

    def test_metrics_csv_row_count(self, baseline):
        _, out = baseline
        lines = (out / "report" / "metrics.csv").read_text().splitlines()
        # comment, header, then 2 sessions x 1 model x 1 horizon x 4 metrics
        assert len(lines) == 2 + 8

    def test_rerun_is_byte_identical(self, baseline, tmp_path):
        cfg, out = baseline
        again = tmp_path / "ws2"
        assert main(["run-all", "--config", str(cfg), "--out", str(again)]) == 0
        assert _tree(again) == _tree(out)

    def test_stagewise_matches_run_all(self, baseline, tmp_path):
        cfg, out = baseline
        ws = tmp_path / "stages"
        base = ["--config", str(cfg), "--out", str(ws)]
        for stage in ("simulate", "preprocess", "label", "split", "train", "eval",
                      "report"):
            assert main([stage] + base) == 0, stage
        assert _tree(ws) == _tree(out)

    def test_jobs_2_matches_jobs_1(self, tmp_path):
        doc = dict(SMALL, models=["linear", "shallow"], train={"epochs": 2})
        cfg = _write_cfg(tmp_path, doc)
        trees = []
        for jobs in ("1", "2"):
            ws = tmp_path / f"jobs{jobs}"
            rc = main(["run-all", "--config", str(cfg), "--out", str(ws), "--jobs", jobs])
            assert rc == 0
            trees.append(_tree(ws))
        assert len(trees[0]) > 20
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("jobs, n_items, workers", [(64, 6, 6), (2, 6, 2), (3, 2, 2)])
    def test_pool_sized_to_the_work(self, monkeypatch, jobs, n_items, workers):
        # a fake executor: a real pool forks every worker it is sized for
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", Recorder)
        done = []
        pipeline._map(done.append, range(n_items), jobs)
        assert sizes == [workers]
        assert done == list(range(n_items))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_is_2(self, tmp_path, capsys, jobs):
        cfg = _write_cfg(tmp_path)
        ws = tmp_path / "ws"
        rc = main(["run-all", "--config", str(cfg), "--out", str(ws), "--jobs", jobs])
        assert rc == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not ws.exists()

    def test_seed_override_changes_training(self, baseline, tmp_path):
        cfg, out = baseline
        ws = tmp_path / "seeded"
        rc = main(["run-all", "--config", str(cfg), "--out", str(ws), "--seed", "1"])
        assert rc == 0
        a = (out / "work" / "synth-0000" / "runs" / "linear_300" / "loss.csv").read_bytes()
        b = (ws / "work" / "synth-0000" / "runs" / "linear_300" / "loss.csv").read_bytes()
        assert a != b


class TestSubcommands:
    def test_validate_accepts_generated_session(self, baseline, capsys):
        _, out = baseline
        rc = main(["validate", str(out / "sessions" / "synth-0000")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("ok: synth-0000")

    def test_validate_missing_dir(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "nope")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error" in err and "[validate]" in err

    def test_validate_rejects_non_finite_eeg(self, baseline, tmp_path, capsys):
        _, out = baseline
        session = tmp_path / "synth-0000"
        shutil.copytree(out / "sessions" / "synth-0000", session)
        eeg = session / "eeg.csv"
        lines = eeg.read_text().splitlines()
        for lineno, value in ((7, "nan"), (9, "inf")):
            parts = lines[lineno - 1].split(",")
            parts[3] = value
            lines[lineno - 1] = ",".join(parts)
        eeg.write_text("\n".join(lines) + "\n")
        rc = main(["validate", str(session)])
        assert rc == 3
        captured = capsys.readouterr()
        assert not captured.out.startswith("ok")
        channel = lines[0].split(",")[3]
        assert f"eeg.csv:7: non-finite sample nan in channel {channel}" in captured.err

    @pytest.mark.parametrize(
        "name, lineno, old, new, rule",
        [
            ("joystick.jsonl", 3, JOY_T3, b'"t_ns": true', "JSON integer"),
            ("joystick.jsonl", 3, JOY_T3, b'"t_ns": 100000000.5', "JSON integer"),
            ("joystick.jsonl", 3, JOY_T3, b'"t_ns": "200000000"', "JSON integer"),
            ("joystick.jsonl", 3, JOY_T3, b'"t_ns": 1e400', "JSON integer"),
            ("joystick.jsonl", 3, JOY_T3, b'"t_ns": 9223372036854775808', "2^63"),
            ("eeg.csv", 3, EEG_T3, b"\n9223372036854775808,", "not below 2^63"),
            ("eeg.csv", 3, EEG_T3, b"\n-8000000,", "'-8000000' to uint64"),
            ("eeg.csv", 3, b"\n8000000,-3.098382,", b"\n8000000,1_000,",
             "'1_000' to float64"),
            ("eeg.csv", 3, b"\n8000000,-3.098382,", b"\n8000000,",
             "expected 17 fields, found 16"),
            ("eeg.csv", 3, EEG_T3, b"\n8\xff00000,", "not UTF-8"),
            ("joystick.jsonl", 3, JOY_T3, b'"t_ns": 2\xff0000000', "not UTF-8"),
            ("manifest.json", 3, b"synthetic", b"synth\xe9tic", "not UTF-8"),
        ],
    )
    def test_validate_reports_file_and_line(
        self, baseline, tmp_path, capsys, name, lineno, old, new, rule
    ):
        _, out = baseline
        session = tmp_path / "synth-0000"
        shutil.copytree(out / "sessions" / "synth-0000", session)
        path = session / name
        blob = path.read_bytes()
        assert old in blob
        path.write_bytes(blob.replace(old, new, 1))
        assert main(["validate", str(session)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:{lineno}: " in captured.err and rule in captured.err
        # positions are the file line alone, never numpy's row within its parse
        message = captured.err.split(f"{path}:{lineno}: ", 1)[1]
        assert "row" not in message and "usecols" not in message

    @pytest.mark.parametrize(
        "edit, rule",
        [
            ({"channels": 5}, "channels must be a list"),
            ({"sample_rate_hz": 128.0}, "median sample gap"),
            ({"sample_rate_hz": 10**400}, "int too large to convert to float"),
        ],
    )
    def test_validate_rejects_manifest(self, baseline, tmp_path, capsys, edit, rule):
        _, out = baseline
        session = tmp_path / "synth-0000"
        shutil.copytree(out / "sessions" / "synth-0000", session)
        manifest = session / "manifest.json"
        manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), **edit)))
        assert main(["validate", str(session)]) == 3
        assert rule in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("name", "Fp1", "channel 7: name 'Fp1' is not unique"),
            ("name", "", "channel 7: name must be non-empty"),
            ("pos", [0.0, 0.0, 1.5], "channel 'C4': |position| = 1.5, expected unit norm"),
            ("pos", [0.6, 0.8], "channel 'C4': pos has 2 coordinates, expected 3"),
            ("pos", [0, 0, 10**400], "channel entry 7 invalid: int too large"),
        ],
    )
    def test_validate_rejects_montage(
        self, baseline, tmp_path, capsys, field, value, rule
    ):
        _, out = baseline
        session = tmp_path / "synth-0000"
        shutil.copytree(out / "sessions" / "synth-0000", session)
        manifest = session / "manifest.json"
        raw = json.loads(manifest.read_text())
        assert raw["channels"][7]["name"] == "C4"
        raw["channels"][7][field] = value
        manifest.write_text(json.dumps(raw))
        assert main(["validate", str(session)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{manifest}: {rule}" in captured.err

    def test_jobs_only_on_run_all(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--out", str(tmp_path), "--jobs", "2"])
        assert exc.value.code == 2

    def test_print_defaults_matches_runconfig(self, capsys):
        assert main(["config", "--print-defaults"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert config_from_dict(doc) == RunConfig()

    def test_simulate_then_preprocess_selected_session(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        ws = tmp_path / "ws"
        base = ["--config", str(cfg), "--out", str(ws)]
        assert main(["simulate"] + base) == 0
        rc = main(["preprocess"] + base + ["--session", "synth-0001"])
        assert rc == 0
        assert (ws / "work" / "synth-0001" / "preprocessed").is_dir()
        assert not (ws / "work" / "synth-0000").exists()

    def test_unknown_session_id(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        ws = tmp_path / "ws"
        base = ["--config", str(cfg), "--out", str(ws)]
        assert main(["simulate"] + base) == 0
        rc = main(["preprocess"] + base + ["--session", "synth-9999"])
        assert rc == 3
        assert "unknown session ids" in capsys.readouterr().err

    def test_split_reads_no_joystick_stream(self, baseline, tmp_path):
        cfg, out = baseline
        ws = tmp_path / "ws"
        shutil.copytree(out, ws)
        work = ws / "work" / "synth-0000"
        (work / "preprocessed" / "joystick.jsonl").unlink()
        shutil.rmtree(work / "windows")
        rc = main(["split", "--config", str(cfg), "--out", str(ws),
                   "--session", "synth-0000"])
        assert rc == 0
        assert _tree(work / "windows") == _tree(out / "work" / "synth-0000" / "windows")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, {"models": ["resnet"]})
        rc = main(["run-all", "--config", str(cfg), "--out", str(tmp_path / "ws")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_is_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, {"epoch": 5})
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "ws")])
        assert rc == 2

    def test_missing_data_is_3(self, tmp_path, capsys):
        rc = main(["label", "--out", str(tmp_path / "empty")])
        assert rc == 3
        assert "no sessions" in capsys.readouterr().err

    def test_stage_prefix_in_data_errors(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        ws = tmp_path / "ws"
        base = ["--config", str(cfg), "--out", str(ws)]
        assert main(["simulate"] + base) == 0
        # stage run out of order: label needs the preprocessed copy
        rc = main(["label"] + base)
        assert rc == 3
        err = capsys.readouterr().err
        assert "[label]" in err and "synth-0000" in err

    def test_corrupted_session_is_3(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        ws = tmp_path / "ws"
        base = ["--config", str(cfg), "--out", str(ws)]
        assert main(["simulate"] + base) == 0
        eeg = ws / "sessions" / "synth-0000" / "eeg.csv"
        lines = eeg.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]  # drop one field
        eeg.write_text("\n".join(lines) + "\n")
        rc = main(["preprocess"] + base)
        assert rc == 3
        err = capsys.readouterr().err
        assert "[preprocess]" in err and "synth-0000" in err

    def test_session_too_short_to_filter_is_3(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        ws = tmp_path / "ws"
        base = ["--config", str(cfg), "--out", str(ws)]
        assert main(["simulate"] + base) == 0
        session = ws / "sessions" / "synth-0000"
        eeg = session / "eeg.csv"
        eeg.write_text("".join(eeg.read_text().splitlines(keepends=True)[:15]))  # 14 rows
        assert main(["validate", str(session)]) == 0
        rc = main(["preprocess"] + base + ["--session", "synth-0000"])
        assert rc == 3
        assert "[preprocess] synth-0000: signal of length 14 too short" in capsys.readouterr().err

    def test_corrupt_checkpoint_header_is_3(self, baseline, tmp_path, capsys):
        cfg, out = baseline
        ws = tmp_path / "ws"
        shutil.copytree(out, ws)
        ckpt = ws / "work" / "synth-0000" / "runs" / "linear_300" / "checkpoint.bin"
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob.replace(b"{", b"#", 1))
        rc = main(["eval", "--config", str(cfg), "--out", str(ws)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "[eval]" in err and str(ckpt) in err and "corrupt checkpoint header" in err

    def test_eval_untrained_horizon_is_3(self, baseline, tmp_path, capsys):
        _, out = baseline
        ws = tmp_path / "ws"
        shutil.copytree(out, ws)
        # the default config asks for horizons the workspace never trained
        rc = main(["eval", "--out", str(ws)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "[eval]" in err and "linear_0" in err and "no checkpoint" in err

    def test_removed_zero_phase_knob_is_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, {"filters": {"zero_phase": False}})
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "ws")])
        assert rc == 2
        assert "zero_phase" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("split", "rng_seed", 7),
        ("train", "rng_seed", 5),
        ("synth", "session_id", "mine"),
        ("bad_channels", "ransac_frac", 0.25),
        ("bad_channels", "ransac_corr_min", 0.75),
        ("bad_channels", "ransac_samples", 50),
        ("train", "class_weights", [1, 1, 1, 1, 1]),
    ])
    def test_removed_seed_knobs_are_2(self, tmp_path, capsys, section, key, value):
        # the pipeline derives the seeds per session and run, bad-channel
        # detection draws nothing random, and class weights follow the
        # training split's class counts; a config can set none of them
        doc = dict(SMALL, n_sessions=1, **{section: {**SMALL.get(section, {}), key: value}})
        cfg = _write_cfg(tmp_path, doc)
        rc = main(["run-all", "--config", str(cfg), "--out", str(tmp_path / "ws")])
        assert rc == 2
        assert f"config.{section}: unknown keys ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, edit, rule", [
        ("train", "train.json", lambda d: {**d, "labels": [-1] + d["labels"][1:]},
         "label -1 outside [0, 5)"),
        ("eval", "test.json", lambda d: {**d, "labels": [1.7] + d["labels"][1:]},
         "labels must be JSON integers, got 1.7"),
        ("eval", "test.json", lambda d: {**d, "labels": [9] + d["labels"][1:]},
         "label 9 outside [0, 5)"),
        ("train", "split_stats.json",
         lambda d: {k: v for k, v in d.items() if k != "pre_oversample_counts"},
         "pre_oversample_counts must be 5 non-negative JSON integers"),
        ("train", "split_stats.json", lambda d: {**d, "pre_oversample_counts": [0] * 5},
         "at least one positive; got [0, 0, 0, 0, 0]"),
        ("eval", "test.json", lambda d: {**d, "delta_ms": 0},
         "windows are for delta_ms 0, not 300"),
        ("train", "train.json", lambda d: {**d, "delta_ms": 0},
         "windows are for delta_ms 0, not 300"),
    ], ids=["train-label-negative", "test-label-float", "test-label-9",
            "stats-missing-counts", "stats-all-zero", "test-delta-0", "train-delta-0"])
    def test_bad_window_files_are_3(
        self, baseline, tmp_path, capsys, command, name, edit, rule
    ):
        cfg, out = baseline
        ws = tmp_path / "ws"
        shutil.copytree(out, ws)
        path = ws / "work" / "synth-0000" / "windows" / "300" / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        rc = main([command, "--config", str(cfg), "--out", str(ws),
                   "--session", "synth-0000"])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"[{command}]" in err and str(path) in err and rule in err

    @pytest.mark.parametrize("edit, rule", [
        (lambda raw: b"\xff" + raw, "cannot read run score"),
        (lambda raw: raw[:-20], "cannot read run score"),
        (_without("model"), "malformed run score: KeyError('model')"),
        (_with(confusion=[[1] * 3] * 3), "confusion must be a 5x5 list of rows"),
        (_with(confusion=[[1] * 5] * 4), "confusion must be a 5x5 list of rows"),
        (_with(confusion=[[-1] + [1] * 4] + [[1] * 5] * 4),
         "confusion counts must be non-negative JSON integers, got -1"),
        (_with(confusion=[[2.5] + [1] * 4] + [[1] * 5] * 4),
         "confusion counts must be non-negative JSON integers, got 2.5"),
        (_with(confusion=[[True] + [1] * 4] + [[1] * 5] * 4),
         "confusion counts must be non-negative JSON integers, got True"),
        (_with(confusion=[[2 ** 70] + [1] * 4] + [[1] * 5] * 4),
         f"confusion total {2 ** 70 + 24} does not fit int64"),
        (_with(confusion=[[2 ** 62] * 5] * 5), f"confusion total {25 * 2 ** 62} does not fit int64"),
        (_with(confusion=[[0] * 5] * 5), "confusion matrix is empty"),
        (_with(horizon_ms=300.7), "horizon_ms must be a JSON integer, got 300.7"),
        (_with(horizon_ms="300"), "horizon_ms must be a JSON integer, got '300'"),
    ], ids=["not-utf8", "truncated", "no-model", "3x3", "4-rows", "negative", "float-count",
            "bool-count", "count-overflows-int64", "total-overflows-int64", "all-zero",
            "float-horizon", "string-horizon"])
    def test_corrupt_score_is_3(self, baseline, tmp_path, capsys, edit, rule):
        _, out = baseline
        ws = tmp_path / "ws"
        shutil.copytree(out, ws)
        path = ws / "work" / "synth-0000" / "runs" / "linear_300" / "score.json"
        path.write_bytes(edit(path.read_bytes()))
        assert main(["report", "--out", str(ws)]) == 3
        err = capsys.readouterr().err
        assert "[report]" in err and str(path) in err and rule in err

    def test_eval_on_windows_of_another_length_is_3(self, baseline, tmp_path, capsys):
        _, out = baseline
        ws = tmp_path / "ws"
        shutil.copytree(out, ws)
        # re-split at 100-sample windows; the checkpoints take 125
        cfg = _write_cfg(tmp_path, dict(SMALL, split={"window_len": 100}))
        base = ["--config", str(cfg), "--out", str(ws), "--session", "synth-0000"]
        assert main(["split"] + base) == 0
        assert main(["eval"] + base) == 3
        err = capsys.readouterr().err
        work = ws / "work" / "synth-0000"
        assert (
            f"[eval] synth-0000 delta=300 model=linear: {work}/windows/300/test.json: "
            f"windows of 16 channels x 100 samples do not fit "
            f"{work}/runs/linear_300/checkpoint.bin"
        ) in err

    def test_empty_split_partition_names_its_cause(self, tmp_path, capsys):
        # 20 ms gap breaks: the short test chunks of a 60 s session hold no
        # gap-free run of one window, so every test window is dropped
        doc = dict(SMALL, n_sessions=1, synth={"duration_s": 60.0},
                   split={"gap_break_ns": 20_000_000})
        cfg = _write_cfg(tmp_path, doc)
        rc = main(["run-all", "--config", str(cfg), "--out", str(tmp_path / "ws")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "[split] synth-0000: delta=300: the test partition has no windows" in err
        assert "gap_break_ns=20000000, n_chunks=100" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_is_4(self, tmp_path, capsys):
        doc = dict(SMALL)
        doc["n_sessions"] = 1
        # the squaring nonlinearity overflows once weights reach ~1e154
        doc["models"] = ["shallow"]
        doc["train"] = {"epochs": 2, "learning_rate": 1e200}
        cfg = _write_cfg(tmp_path, doc)
        ws = tmp_path / "ws"
        base = ["--config", str(cfg), "--out", str(ws)]
        for stage in ("simulate", "preprocess", "label", "split"):
            assert main([stage] + base) == 0
        rc = main(["train"] + base)
        assert rc == 4
        assert "training diverged" in capsys.readouterr().err


def test_cli_run_imports_no_scipy(tmp_path):
    """The program filters with numpy alone: a CLI run never loads scipy."""
    doc = dict(SMALL, n_sessions=1)
    cfg = _write_cfg(tmp_path, doc)
    script = textwrap.dedent(f"""
        import sys
        import eegdrive.cli
        code = eegdrive.cli.main(["run-all", "--config", {str(cfg)!r},
                                  "--out", {str(tmp_path / "ws")!r}])
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(code, loaded)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    assert out.splitlines()[-1] == "0 []"
