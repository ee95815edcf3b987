"""Labelling-rule tests against an independent transcription of the rule."""

import numpy as np
import pytest

from eegdrive.ingest import AlignmentConfig
from eegdrive.labels import (
    NO_LABEL,
    LabeledSamples,
    LabelRule,
    classify_command,
    classify_commands,
    label_at_horizon,
    read_labels_csv,
    write_labels_csv,
)
from eegdrive.errors import DataError
from eegdrive.session import CommandLabel, JoystickStream

MS = 1_000_000  # ns


def oracle_rule(v_x: float, omega_z: float, tau: float):
    """The rule text, one clause per line, in its published order."""
    if v_x > tau and abs(omega_z) <= tau:
        return 0  # forward
    if v_x < -tau and abs(omega_z) <= tau:
        return 1  # reverse
    if omega_z > tau and abs(v_x) <= tau:
        return 2  # left
    if omega_z < -tau and abs(v_x) <= tau:
        return 3  # right
    if abs(v_x) <= tau and abs(omega_z) <= tau:
        return 4  # stop
    return None  # both axes beyond the dead band


def boundary_grid(tau: float, eps: float = 1e-9):
    return [-1.0, -0.5, -(tau + eps), -tau, 0.0, tau, tau + eps, 0.5, 1.0]


class TestClassifyCommand:
    def test_matches_oracle_on_boundary_grid(self):
        rule = LabelRule()
        grid = boundary_grid(rule.tau)
        assert len(grid) == 9
        for v in grid:
            for w in grid:
                got = classify_command(v, w, rule)
                want = oracle_rule(v, w, rule.tau)
                got_code = None if got is None else int(got)
                assert got_code == want, f"(v_x={v}, omega_z={w})"

    def test_matches_oracle_on_random_inputs(self):
        rule = LabelRule(tau=0.25)
        rng = np.random.default_rng(7)
        for v, w in rng.uniform(-1.0, 1.0, size=(500, 2)):
            got = classify_command(float(v), float(w), rule)
            got_code = None if got is None else int(got)
            assert got_code == oracle_rule(float(v), float(w), rule.tau)

    def test_dead_band_is_inclusive(self):
        rule = LabelRule()
        tau = rule.tau
        assert classify_command(tau, 0.0, rule) is CommandLabel.STOP
        assert classify_command(-tau, tau, rule) is CommandLabel.STOP
        assert classify_command(tau + 1e-9, 0.0, rule) is CommandLabel.FORWARD
        assert classify_command(0.0, -(tau + 1e-9), rule) is CommandLabel.RIGHT

    def test_contradictory_axes_discarded(self):
        rule = LabelRule()
        assert classify_command(0.5, 0.5, rule) is None
        assert classify_command(-0.2, 0.9, rule) is None
        # one axis exactly on the band edge is still inactive
        assert classify_command(0.5, rule.tau, rule) is CommandLabel.FORWARD

    def test_returns_enum_members(self):
        rule = LabelRule()
        assert classify_command(1.0, 0.0, rule) is CommandLabel.FORWARD
        assert classify_command(-1.0, 0.0, rule) is CommandLabel.REVERSE
        assert classify_command(0.0, 1.0, rule) is CommandLabel.LEFT
        assert classify_command(0.0, -1.0, rule) is CommandLabel.RIGHT
        assert classify_command(0.0, 0.0, rule) is CommandLabel.STOP


class TestClassifyCommands:
    def test_agrees_with_scalar_version(self):
        rule = LabelRule()
        rng = np.random.default_rng(11)
        v = rng.uniform(-1.0, 1.0, size=2000)
        w = rng.uniform(-1.0, 1.0, size=2000)
        codes = classify_commands(v, w, rule)
        assert codes.dtype == np.int8
        for i in range(len(v)):
            scalar = classify_command(float(v[i]), float(w[i]), rule)
            want = NO_LABEL if scalar is None else int(scalar)
            assert codes[i] == want

    def test_grid_cross_product(self):
        rule = LabelRule()
        grid = np.asarray(boundary_grid(rule.tau))
        vv, ww = np.meshgrid(grid, grid, indexing="ij")
        codes = classify_commands(vv.ravel(), ww.ravel(), rule)
        want = [
            oracle_rule(float(a), float(b), rule.tau)
            for a, b in zip(vv.ravel(), ww.ravel())
        ]
        want = np.asarray([NO_LABEL if c is None else c for c in want], dtype=np.int8)
        assert np.array_equal(codes, want)


class TestLabelRule:
    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.0, 1.5])
    def test_rejects_out_of_range_tau(self, tau):
        with pytest.raises(ValueError):
            LabelRule(tau=tau)


def _toy_joystick():
    # codes: F, S, contradictory, R(ight), Reverse
    return JoystickStream(
        t_ns=np.array([0, 100 * MS, 200 * MS, 300 * MS, 400 * MS]),
        v_x=np.array([0.8, 0.0, 0.8, 0.0, -0.8]),
        omega_z=np.array([0.0, 0.0, 0.8, -0.8, 0.0]),
    )


class TestLabelAtHorizon:
    def test_zero_horizon(self):
        joy = _toy_joystick()
        eeg_ts = np.array([0, 50 * MS, 100 * MS, 125 * MS])
        out = label_at_horizon(eeg_ts, joy, LabelRule(), 0)
        assert out.delta_ms == 0
        # t=50ms ties between stamps at 0 and 100; the earlier one wins
        assert np.array_equal(out.indices, [0, 1, 2, 3])
        assert np.array_equal(
            out.labels,
            [CommandLabel.FORWARD, CommandLabel.FORWARD,
             CommandLabel.STOP, CommandLabel.STOP],
        )

    def test_future_horizon_shifts_targets(self):
        joy = _toy_joystick()
        eeg_ts = np.array([0, 50 * MS, 100 * MS, 125 * MS])
        out = label_at_horizon(eeg_ts, joy, LabelRule(), 300)
        assert np.array_equal(
            out.labels,
            [CommandLabel.RIGHT, CommandLabel.RIGHT,
             CommandLabel.REVERSE, CommandLabel.REVERSE],
        )

    def test_contradictory_targets_are_dropped(self):
        joy = _toy_joystick()
        eeg_ts = np.array([0, 50 * MS, 100 * MS, 125 * MS])
        out = label_at_horizon(eeg_ts, joy, LabelRule(), 200)
        # first two targets land on the contradictory reading at 200 ms
        assert np.array_equal(out.indices, [2, 3])
        assert np.array_equal(out.t_ns, eeg_ts[[2, 3]])
        assert np.array_equal(
            out.labels, [CommandLabel.RIGHT, CommandLabel.RIGHT]
        )

    def test_unmatched_targets_are_dropped(self):
        joy = _toy_joystick()
        # 400ms + 100ms gap is the furthest reachable target
        eeg_ts = np.array([450 * MS, 500 * MS, 501 * MS])
        out = label_at_horizon(eeg_ts, joy, LabelRule(), 0)
        assert np.array_equal(out.indices, [0, 1])
        assert np.array_equal(
            out.labels, [CommandLabel.REVERSE, CommandLabel.REVERSE]
        )

    def test_alignment_gap_is_configurable(self):
        joy = _toy_joystick()
        eeg_ts = np.array([410 * MS])
        tight = AlignmentConfig(max_gap_ms=5.0)
        assert len(label_at_horizon(eeg_ts, joy, LabelRule(), 0, tight)) == 0
        wide = AlignmentConfig(max_gap_ms=10.0)
        assert len(label_at_horizon(eeg_ts, joy, LabelRule(), 0, wide)) == 1

    def test_class_counts(self):
        joy = _toy_joystick()
        eeg_ts = np.arange(0, 500 * MS, 8 * MS)
        out = label_at_horizon(eeg_ts, joy, LabelRule(), 0)
        counts = out.class_counts()
        assert counts.sum() == len(out)
        assert np.array_equal(
            counts, np.bincount(out.labels, minlength=5)
        )


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        joy = _toy_joystick()
        eeg_ts = np.arange(0, 500 * MS, 8 * MS)
        out = label_at_horizon(eeg_ts, joy, LabelRule(), 300)
        path = tmp_path / "labels_300.csv"
        write_labels_csv(path, out)
        back = read_labels_csv(path, 300, eeg_ts)
        assert back.delta_ms == 300
        assert np.array_equal(back.indices, out.indices)
        assert np.array_equal(back.t_ns, out.t_ns)
        assert np.array_equal(back.labels, out.labels)

    def test_rows_match_the_per_row_oracle(self, tmp_path):
        rng = np.random.default_rng(8)
        t = np.sort(rng.choice(2**63 - 1, 3000, replace=False))
        t[:4] = [0, 999, 1000, 1001]
        t[-1] = 2**63 - 1
        codes = rng.integers(0, len(CommandLabel), len(t)).astype(np.int8)
        path = write_labels_csv(tmp_path / "l.csv", LabeledSamples(0, np.arange(len(t)), t, codes))
        rows = "".join("%d,%d\n" % r for r in zip(t.tolist(), codes.tolist()))
        assert path.read_bytes() == ("t_ns,label_code\n" + rows).encode()
        empty = LabeledSamples(0, [], [], [])
        assert write_labels_csv(tmp_path / "e.csv", empty).read_bytes() == b"t_ns,label_code\n"

    def test_rejects_unknown_timestamp(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("t_ns,label_code\n12345,0\n")
        with pytest.raises(DataError, match="12345"):
            read_labels_csv(path, 0, np.array([0, 8 * MS]))

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("time,code\n0,0\n")
        with pytest.raises(DataError, match="header"):
            read_labels_csv(path, 0, np.array([0]))

    @pytest.mark.parametrize("body", ["12,x\n", "12\n", "1.5,2\n", "1,2,3\n"])
    def test_malformed_body_names_file_and_line(self, tmp_path, body):
        path = tmp_path / "labels.csv"
        path.write_text("t_ns,label_code\n12,0\n\n" + body)
        with pytest.raises(DataError) as e:
            read_labels_csv(path, 0, np.array([1, 12]))
        assert str(e.value).startswith(f"{path}:4: ")

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"t_ns,label_code\n12,0\n1\xff,2\n")
        with pytest.raises(DataError, match=f"{path}:3: not UTF-8"):
            read_labels_csv(path, 0, np.array([1, 12]))

    def test_header_only_is_zero_samples(self, tmp_path, recwarn):
        path = tmp_path / "labels.csv"
        path.write_text("t_ns,label_code\n")
        back = read_labels_csv(path, 300, np.array([0, 8 * MS]))
        assert len(back) == 0 and back.delta_ms == 300
        assert back.indices.dtype == np.int64 and back.labels.dtype == np.int8
        assert len(recwarn) == 0

    def test_rejects_out_of_range_code(self, tmp_path):
        path = tmp_path / "labels.csv"
        for code in (7, -1, 300):  # 300 does not fit the int8 label column
            path.write_text(f"t_ns,label_code\n0,{code}\n")
            with pytest.raises(DataError, match="codes"):
                read_labels_csv(path, 0, np.array([0]))


class TestLabeledSamples:
    def test_columns(self):
        ls = LabeledSamples(
            delta_ms=300,
            indices=[4, 9],
            t_ns=[32 * MS, 72 * MS],
            labels=[0, 4],
        )
        assert len(ls) == 2
        assert ls.indices.dtype == np.int64 and ls.indices.tolist() == [4, 9]
        assert ls.t_ns.dtype == np.int64 and ls.t_ns.tolist() == [32 * MS, 72 * MS]
        assert ls.labels.dtype == np.int8
        assert ls.labels[1] == CommandLabel.STOP

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            LabeledSamples(0, np.array([1]), np.array([1, 2]), np.array([0]))
