"""Alignment against an exhaustive oracle, plus session-directory IO."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from eegdrive import ingest, pipeline
from eegdrive.errors import DataError
from eegdrive.ingest import (
    EEG_NAME,
    EEG_ROWS_PER_BLOCK,
    JOYSTICK_NAME,
    MANIFEST_NAME,
    SessionDir,
    align_nearest,
    format_rows,
    load_session,
    write_json,
    write_session_dir,
)
from eegdrive.labels import LabeledSamples, LabelRule, read_labels_csv, write_labels_csv
from eegdrive.metrics import metrics_from_confusion
from eegdrive.models import (
    LinearSoftmax,
    ShallowConvNet,
    ShallowConvNetSpec,
    load_checkpoint,
    save_checkpoint,
)
from eegdrive.report import RunScore, read_run_score, write_run_score
from eegdrive.session import EegRecording, JoystickStream, synthetic_montage
from eegdrive.tensorfile import read_windows, write_windows
from tracemem import peak_traced


def oracle_align(targets, times, max_gap_ns):
    """Scan every candidate for every target; first minimum wins."""
    out = np.full(len(targets), -1, dtype=np.int64)
    for i, t in enumerate(int(v) for v in targets):
        best = -1
        best_d = None
        for j, u in enumerate(int(v) for v in times):
            d = abs(u - t)
            if best_d is None or d < best_d:
                best, best_d = j, d
        if best_d is not None and best_d <= max_gap_ns:
            out[i] = best
    return out


def random_increasing(rng, n, max_gap_ns):
    start = int(rng.integers(0, 10**9))
    gaps = rng.integers(1, max_gap_ns, size=n, dtype=np.int64)
    return start + np.cumsum(gaps)


GAP_100_MS = 100_000_000  # ns


class TestAlignNearest:
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n_t = int(rng.integers(1, 200))
            n_j = int(rng.integers(1, 200))
            # spacing straddles the 100 ms tolerance so misses occur too
            targets = random_increasing(rng, n_t, 250_000_000)
            times = random_increasing(rng, n_j, 250_000_000)
            got = align_nearest(targets, times, GAP_100_MS)
            want = oracle_align(targets, times, GAP_100_MS)
            assert np.array_equal(got, want)

    def test_exact_tie_prefers_earlier(self):
        out = align_nearest(np.array([150]), np.array([100, 200]), GAP_100_MS)
        assert out[0] == 0

    def test_gap_boundary_is_inclusive(self):
        gap = GAP_100_MS
        out = align_nearest(np.array([0, 0]), np.array([gap]), gap)
        assert out[0] == 0
        out = align_nearest(np.array([0]), np.array([gap + 1]), gap)
        assert out[0] == -1

    def test_empty_inputs(self):
        assert len(align_nearest(np.array([], dtype=np.int64), np.array([1]), GAP_100_MS)) == 0
        out = align_nearest(np.array([5]), np.array([], dtype=np.int64), GAP_100_MS)
        assert np.array_equal(out, [-1])

    def test_single_candidate(self):
        targets = np.array([0, 500_000, 2_000_001])
        out = align_nearest(targets, np.array([1_000_000]), 1_000_000)
        assert np.array_equal(out, [0, 0, -1])

    def test_rejects_bad_gap(self):
        # the gap is part of the labelling rule, which validates it
        with pytest.raises(ValueError, match="max_gap_ms"):
            LabelRule(max_gap_ms=0.0)


def percent_rows(ints, floats=None):
    """The oracle: each row formatted by Python's ``%``, one at a time."""
    m = 0 if floats is None else floats.shape[1]
    fmt = ",".join(["%d"] * len(ints)) + ",%.6f" * m + "\n"
    columns = [c.tolist() for c in ints] + ([] if floats is None else floats.T.tolist())
    return "".join(fmt % row for row in zip(*columns)).encode()


def _near_half(k: int, ulps: int, negative: bool) -> float:
    """(k + 1/2) / 10^6 moved by ``ulps`` ulps, negated if ``negative``."""
    x = (k + 0.5) / 1e6
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return -x if negative else x


#: Integers at the edges of the three-digit groups and of int64, and below 0.
INTEGERS = st.one_of(
    st.sampled_from([0, 999, 1000, 999_999, 10**18, 2**63 - 1, -1, -1000]),
    st.integers(-(2**63), 2**63 - 1),
)
#: Floats at the edges of ``%.6f`` rounding: signed zeros and the halfway
#: point of the last digit, exact ties (an odd multiple of 2^-7 times 10^6
#: is a half-integer), products a few ulps either side of a half, values
#: whose product reaches 2^52, and the non-finite ones.
FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 4e-7, -4e-7, 5e-7, -5e-7, 0.0078125, -0.0078125, 2**52 / 1e6]
    ),
    st.integers(-(2**40), 2**40).map(lambda i: (2 * i + 1) / 128),
    st.builds(_near_half, st.integers(0, 10**12), st.integers(-3, 3), st.booleans()),
    st.floats(min_value=2**52 / 1e6, max_value=1e300).map(lambda v: -v),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e4, 1e4),
)


class TestFormatRows:
    """``format_rows`` against Python's ``%``, row by row."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(INTEGERS, st.lists(FLOATS, min_size=3, max_size=3)), max_size=6))
    @example([])
    @example([(7, [0.0078125, -0.0, 5e-7])])
    def test_eeg_rows_match_percent(self, rows):
        ts = np.array([t for t, _ in rows], dtype=np.int64)
        x = np.array([v for _, v in rows], dtype=np.float64).reshape(len(rows), 3)
        assert format_rows([ts], x) == percent_rows([ts], x)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(INTEGERS, st.integers(-128, 127)), max_size=6))
    @example([])
    @example([(2**63 - 1, 0)])
    def test_integer_rows_match_percent(self, rows):
        t = np.array([r[0] for r in rows], dtype=np.int64)
        codes = np.array([r[1] for r in rows], dtype=np.int8)
        assert format_rows([t, codes]) == percent_rows([t, codes])

    def test_a_block_of_recording_rows(self):
        rng = np.random.default_rng(11)
        ts = 1_700_000_000_000_000_000 + 8_000_000 * np.arange(EEG_ROWS_PER_BLOCK)
        scales = 10.0 ** rng.integers(-7, 10, 16)[:, None]  # 1e9 and up: some rows use %
        x = rng.standard_normal((16, EEG_ROWS_PER_BLOCK)) * scales
        assert format_rows([ts], x.T) == percent_rows([ts], x.T)


def _toy_session(n_channels=4, n_samples=50, n_joy=5):
    rng = np.random.default_rng(3)
    eeg = EegRecording(
        montage=synthetic_montage(n_channels),
        timestamps=np.arange(n_samples, dtype=np.int64) * 8_000_000,
        samples=rng.standard_normal((n_channels, n_samples)),
        sample_rate_hz=125.0,
    )
    joy = JoystickStream(
        t_ns=np.arange(n_joy, dtype=np.int64) * 100_000_000,
        v_x=np.linspace(-0.8, 0.8, n_joy),
        omega_z=np.zeros(n_joy),
    )
    return SessionDir("s01", "sess-a", eeg, joy)


_JOY_LINE = '{"t_ns": %d, "vx": 0, "wz": 0}'


class TestSessionDirIO:
    def test_round_trip(self, tmp_path):
        sess = _toy_session()
        root = write_session_dir(tmp_path / "sess", sess)
        back = load_session(root)
        assert (back.subject_id, back.session_id) == (sess.subject_id, sess.session_id)
        assert back.reserved_streams == sess.reserved_streams
        assert back.eeg.sample_rate_hz == sess.eeg.sample_rate_hz
        assert back.eeg.montage.names == sess.eeg.montage.names
        assert np.array_equal(back.eeg.montage.positions, sess.eeg.montage.positions)
        assert np.array_equal(back.eeg.timestamps, sess.eeg.timestamps)
        # samples are serialized at microvolt-microdecimal precision
        assert np.allclose(back.eeg.samples, sess.eeg.samples, atol=5e-7, rtol=0)
        assert np.array_equal(back.joystick.t_ns, sess.joystick.t_ns)
        assert np.array_equal(back.joystick.v_x, sess.joystick.v_x)
        assert np.array_equal(back.joystick.omega_z, sess.joystick.omega_z)

    def test_eeg_rows_match_the_per_value_oracle(self, tmp_path):
        # the writer formats rows in blocks; this is the per-value loop it
        # replaced, on values at the edges of %.6f rounding, placed on both
        # sides of a block boundary
        n = 2 * EEG_ROWS_PER_BLOCK + 5
        samples = np.random.default_rng(4).standard_normal((2, n)) * 100.0
        edges = [-0.0, 4e-7, -4e-7, 5e-7, -5e-7, 1e12, -1e12, 0.1234565]
        for at in (0, EEG_ROWS_PER_BLOCK - 4, n - len(edges)):
            samples[0, at : at + len(edges)] = edges
            samples[1, at : at + len(edges)] = edges[::-1]
        ts = np.arange(n, dtype=np.int64)
        ts[-1] = 2**63 - 1
        rec = EegRecording(synthetic_montage(2), ts, samples, 125.0)
        root = write_session_dir(
            tmp_path / "sess", SessionDir("s01", "sess-a", rec, _toy_session().joystick)
        )
        want = "timestamp_ns,ch00,ch01\n"
        for i, t in enumerate(rec.timestamps.tolist()):
            want += f"{t}," + ",".join(f"{v:.6f}" for v in rec.samples[:, i]) + "\n"
        assert (root / EEG_NAME).read_bytes() == want.encode()
        assert want.endswith("\n9223372036854775807,0.123456,-0.000000\n")

    def test_writer_working_set_below_one_recording(self, tmp_path):
        rec = EegRecording(
            synthetic_montage(16),
            np.arange(25_000, dtype=np.int64) * 8_000_000,
            np.random.default_rng(5).standard_normal((16, 25_000)) * 30.0,
            125.0,
        )
        sess = SessionDir("s01", "sess-a", rec, _toy_session().joystick)
        peak = peak_traced(lambda: write_session_dir(tmp_path / "sess", sess))
        assert peak < rec.samples.nbytes

    def test_failed_eeg_write_leaves_no_file(self, tmp_path, monkeypatch):
        blocks = []

        def fail_on_the_second_block(*args):
            blocks.append(format_rows(*args))
            if len(blocks) == 2:
                raise RuntimeError("injected")
            return blocks[-1]

        monkeypatch.setattr(ingest, "format_rows", fail_on_the_second_block)
        sess = _toy_session(n_samples=3 * EEG_ROWS_PER_BLOCK)
        with pytest.raises(RuntimeError, match="injected"):
            write_session_dir(tmp_path / "sess", sess)
        assert len(blocks) == 2
        assert sorted(p.name for p in (tmp_path / "sess").iterdir()) == [MANIFEST_NAME]

    def test_failed_joystick_write_leaves_no_file(self, tmp_path, monkeypatch):
        replace = ingest.os.replace

        def fail_on_the_joystick(src, dst):
            if Path(dst).name == JOYSTICK_NAME:
                raise OSError("injected")
            replace(src, dst)

        monkeypatch.setattr(ingest.os, "replace", fail_on_the_joystick)
        with pytest.raises(OSError, match="injected"):
            write_session_dir(tmp_path / "sess", _toy_session())
        assert sorted(p.name for p in (tmp_path / "sess").iterdir()) == [EEG_NAME, MANIFEST_NAME]

    def test_joystick_lines_match_one_dumps_per_line(self, tmp_path):
        v = np.array([0.8, -0.0, 1e-300, -1.0, 0.1 + 0.2, np.nan, -np.inf])
        t = np.arange(len(v)) * 10**8
        sess = _toy_session()
        sess = SessionDir("s01", "sess-a", sess.eeg, JoystickStream(t, v, v[::-1]))
        path = write_session_dir(tmp_path / "sess", sess) / JOYSTICK_NAME
        want = "".join(
            json.dumps({"t_ns": int(t[i]), "vx": float(v[i]), "wz": float(v[-1 - i])}) + "\n"
            for i in range(len(v))
        )
        assert path.read_bytes() == want.encode()

    def test_crlf_files_load_to_the_same_arrays(self, tmp_path):
        lf = write_session_dir(tmp_path / "lf", _toy_session())
        crlf = tmp_path / "crlf"
        crlf.mkdir()
        for name in (MANIFEST_NAME, EEG_NAME, JOYSTICK_NAME):
            blob = (lf / name).read_bytes()
            (crlf / name).write_bytes(blob.replace(b"\n", b"\r\n"))
        a, b = load_session(lf), load_session(crlf)
        assert b.eeg.montage.names == a.eeg.montage.names
        assert np.array_equal(b.eeg.montage.positions, a.eeg.montage.positions)
        assert np.array_equal(b.eeg.timestamps, a.eeg.timestamps)
        assert np.array_equal(b.eeg.samples, a.eeg.samples)
        assert np.array_equal(b.joystick.t_ns, a.joystick.t_ns)
        assert np.array_equal(b.joystick.v_x, a.joystick.v_x)
        assert np.array_equal(b.joystick.omega_z, a.joystick.omega_z)

    def test_rewrite_is_byte_identical(self, tmp_path):
        sess = _toy_session()
        a = write_session_dir(tmp_path / "a", sess)
        b = write_session_dir(tmp_path / "b", load_session(a))
        for name in (MANIFEST_NAME, EEG_NAME, JOYSTICK_NAME):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_file(self, tmp_path):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        (root / JOYSTICK_NAME).unlink()
        with pytest.raises(DataError, match=JOYSTICK_NAME):
            load_session(root)

    def test_manifest_missing_key(self, tmp_path):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        raw = json.loads((root / MANIFEST_NAME).read_text())
        del raw["subject_id"]
        (root / MANIFEST_NAME).write_text(json.dumps(raw))
        with pytest.raises(DataError, match="subject_id"):
            load_session(root)

    def test_manifest_bad_version(self, tmp_path):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        raw = json.loads((root / MANIFEST_NAME).read_text())
        for version in (99, True, 1.0):  # JSON true and 1.0 are not the integer 1
            raw["format_version"] = version
            (root / MANIFEST_NAME).write_text(json.dumps(raw))
            with pytest.raises(DataError, match="format_version"):
                load_session(root)

    def test_eeg_wrong_field_count_reports_line(self, tmp_path):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        lines = (root / EEG_NAME).read_text().splitlines()
        lines[3] = lines[3] + ",0.0"
        (root / EEG_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{EEG_NAME}:4"):
            load_session(root)

    def test_eeg_header_must_match_montage(self, tmp_path):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        lines = (root / EEG_NAME).read_text().splitlines()
        lines[0] = lines[0].replace("ch00", "bogus")
        (root / EEG_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="montage"):
            load_session(root)

    def test_eeg_non_monotonic_timestamp(self, tmp_path):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        lines = (root / EEG_NAME).read_text().splitlines()
        first_t = lines[1].split(",")[0]
        lines[2] = first_t + lines[2][lines[2].index(","):]
        (root / EEG_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="increase"):
            load_session(root)

    def test_eeg_non_numeric_value(self, tmp_path):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        lines = (root / EEG_NAME).read_text().splitlines()
        parts = lines[5].split(",")
        parts[2] = "spike"
        lines[5] = ",".join(parts)
        (root / EEG_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{EEG_NAME}:6"):
            load_session(root)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_eeg_non_finite_value_reports_line_and_channel(self, tmp_path, value):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        lines = (root / EEG_NAME).read_text().splitlines()
        lines.insert(12, "")  # blank lines still count toward line numbers,
        lines.insert(3, "")  # but only those before the bad row shift it
        parts = lines[8].split(",")
        parts[3] = value
        lines[8] = ",".join(parts)
        (root / EEG_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{EEG_NAME}:9: non-finite .* ch02"):
            load_session(root)

    def test_joystick_bad_json_reports_line(self, tmp_path):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        lines = (root / JOYSTICK_NAME).read_text().splitlines()
        lines[2] = "{not json"
        (root / JOYSTICK_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{JOYSTICK_NAME}:3"):
            load_session(root)

    def test_joystick_lines_after_blank_ones_report_their_line(self, tmp_path):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        lines = (root / JOYSTICK_NAME).read_text().splitlines()
        lines[3] = lines[3].replace('"vx": ', '"vx": 9')
        lines[1:1] = ["", "  \r"]
        (root / JOYSTICK_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{JOYSTICK_NAME}:6: vx value 9"):
            load_session(root)

    @pytest.mark.parametrize(
        "lines, bad",
        [
            # an object split over two lines and two objects on a third, a
            # string and then a list carried across a line end: a decode
            # of the lines joined by commas would accept all three
            (
                ['{"t_ns": 0, "vx": 0', '"wz": 0}', f"{_JOY_LINE % 1}, {_JOY_LINE % 2}"],
                1,
            ),
            (['{"t_ns": 0, "vx": 0, "wz": 0, "s": "}', '{"}', _JOY_LINE % 1], 1),
            (['{"t_ns": 0, "vx": 0, "wz": 0, "a": [{}', "{}]}", _JOY_LINE % 1], 1),
            # a form feed is blank space to Python but not to JSON
            ([_JOY_LINE % 0, "\x0c" + _JOY_LINE % 1], 2),
        ],
    )
    def test_joystick_line_that_is_not_one_object_is_rejected(self, tmp_path, lines, bad):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        (root / JOYSTICK_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{JOYSTICK_NAME}:{bad}: expected a JSON object"):
            load_session(root)

    def test_joystick_objects_may_nest(self, tmp_path):
        sess = _toy_session()
        root = write_session_dir(tmp_path / "sess", sess)
        lines = (root / JOYSTICK_NAME).read_text().splitlines()
        lines = [line[:-1] + ', "note": {"tags": ["a", "}"]}}' for line in lines]
        (root / JOYSTICK_NAME).write_text("\r\n".join(lines) + "\r\n")
        back = load_session(root).joystick
        assert np.array_equal(back.t_ns, sess.joystick.t_ns)
        assert np.array_equal(back.v_x, sess.joystick.v_x)

    def test_joystick_out_of_range_value(self, tmp_path):
        root = write_session_dir(tmp_path / "sess", _toy_session())
        lines = (root / JOYSTICK_NAME).read_text().splitlines()
        rec = json.loads(lines[1])
        rec["vx"] = 1.5
        lines[1] = json.dumps(rec)
        (root / JOYSTICK_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"outside \[-1, 1\]"):
            load_session(root)


#: the recording timestamps the labels file of TestReadersUnderCorruption
#: is read against
_LABEL_TS = np.arange(8, dtype=np.int64) * 8_000_000
_WINDOWS = ("w.f32", "w.json")
_CHECKPOINTS = ("linear.bin", "shallow.bin")


def _read(root: Path, name: str):
    """Read ``name`` under ``root`` as its stage does."""
    if name in (MANIFEST_NAME, EEG_NAME, JOYSTICK_NAME):
        return load_session(root)
    if name in _WINDOWS:
        return read_windows(root / "w", 300)
    if name in _CHECKPOINTS:
        return load_checkpoint(root / name)
    if name == "split_stats.json":
        return pipeline._read_split_stats(root / name)
    if name == "score.json":
        return read_run_score(root / name)
    return read_labels_csv(root / name, _LABEL_TS)


def _with_header(edit):
    """A pinned input: the linear checkpoint with its JSON header replaced by
    ``edit(header)``, text or a document, and the length prefix to match."""
    def pin(files):
        blob = files["linear.bin"]
        n = int.from_bytes(blob[8:12], "little")
        header = edit(json.loads(blob[12 : 12 + n]))
        raw = (header if isinstance(header, str) else json.dumps(header)).encode()
        return {"linear.bin": blob[:8] + len(raw).to_bytes(4, "little") + raw + blob[12 + n :]}
    return pin


def _first_tensor_shape(shape):
    return _with_header(lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": shape}]
                                   + h["tensors"][1:]})


def _pin(name, pinned):
    return example(name=name, mutation="truncate", where=0.0, byte=0, text="", pinned=pinned)


_DEEP = "[" * 200_000


class TestReadersUnderCorruption:
    """Whatever happens to one session or workspace file, its reader either
    returns or raises ``DataError``: no other exception escapes."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = write_session_dir(
            tmp_path_factory.mktemp("clean") / "sess", _toy_session(n_samples=30)
        )
        rng = np.random.default_rng(4)
        write_windows(root / "w", rng.standard_normal((3, 2, 5)), [0, 1, 4], 300, "train")
        write_json(root / "split_stats.json",
                   {"delta_ms": 300, "pre_oversample_counts": [3, 1, 0, 2, 4], "n_train": 10})
        confusion = metrics_from_confusion(np.arange(25).reshape(5, 5))
        write_run_score(root / "score.json", RunScore("linear", 300, "sess-a", confusion))
        for name, model in (
            ("linear.bin", LinearSoftmax(2, 5)),
            ("shallow.bin", ShallowConvNet(2, 12, ShallowConvNetSpec(2, 3, 2, 4, 2))),
        ):
            save_checkpoint(root / name, model, model.init_params(0), extra={"delta_ms": 300})
        write_labels_csv(root / "labels.csv", LabeledSamples(
            indices=np.arange(2, 6), t_ns=_LABEL_TS[2:6], labels=np.array([0, 1, 2, 4]),
        ))
        return {p.name: p.read_bytes() for p in root.iterdir()}

    @seed(20261018)
    @settings(
        derandomize=True,
        max_examples=600,
        deadline=None,
    )
    @given(
        name=st.sampled_from([MANIFEST_NAME, EEG_NAME, JOYSTICK_NAME, *_WINDOWS,
                              "split_stats.json", "score.json", *_CHECKPOINTS, "labels.csv"]),
        mutation=st.sampled_from(["truncate", "byte", "line"]),
        where=st.floats(0.0, 1.0, exclude_max=True),
        byte=st.integers(0, 255),
        text=st.text(max_size=40),
        pinned=st.none(),
    )
    # whole-file inputs measured to escape as RecursionError, OverflowError,
    # MemoryError or ValueError before the readers checked them
    @_pin("w.json", lambda files: {"w.json": _DEEP.encode()})
    @_pin("split_stats.json", lambda files: {"split_stats.json": _DEEP.encode()})
    @_pin("score.json", lambda files: {"score.json": _DEEP.encode()})
    @_pin("linear.bin", _with_header(lambda h: _DEEP))
    @_pin("linear.bin", _first_tensor_shape([10**20]))
    @_pin("linear.bin", _first_tensor_shape([2**40]))
    @_pin("linear.bin", _with_header(lambda h: {**h, "n_channels": 10**5, "n_samples": 10**5}))
    @_pin("w.json", lambda files: {"w.f32": b"", "w.json": json.dumps(
        {**json.loads(files["w.json"]), "shape": [0, 10**30, 10**30], "labels": []}).encode()})
    def test_only_data_error_escapes(self, files, name, mutation, where, byte, text, pinned):
        files = dict(files)
        if pinned is not None:
            files.update(pinned(files))
        else:
            blob = bytearray(files[name])
            if mutation == "truncate":
                blob = blob[: int(where * len(blob))]
            elif mutation == "byte":
                blob[int(where * len(blob))] = byte
            else:
                lines = bytes(blob).split(b"\n")
                lines[int(where * len(lines))] = text.encode("utf-8")
                blob = bytearray(b"\n".join(lines))
            files[name] = bytes(blob)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for other, content in files.items():
                (root / other).write_bytes(content)
            try:
                _read(root, name)
            except DataError:
                pass
