"""End-to-end pipeline tests on a reduced configuration.

run-all must be byte-identical to running the stages one by one, and to a
second run-all with the same config; both properties are checked over the
entire workspace tree, not just the report.
"""

import hashlib
import json
import shutil

import pytest

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

    @pytest.mark.parametrize(
        "edit, rule",
        [
            ({"channels": 5}, "channels must be a list"),
            ({"sample_rate_hz": 128.0}, "median sample gap"),
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
    ])
    def test_removed_seed_knobs_are_2(self, tmp_path, capsys, section, key, value):
        # the pipeline derives these per session and run; a config cannot set them
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
    ], ids=["train-label-negative", "test-label-float", "test-label-9",
            "stats-missing-counts", "stats-all-zero"])
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
