"""Labelling-rule tests against an independent transcription of the rule."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegdrive.labels import (
    NO_LABEL,
    LabeledSamples,
    LabelRule,
    classify_commands,
    label_at_horizon,
    read_labels_csv,
    write_labels_csv,
)
from eegdrive.errors import DataError
from eegdrive.session import CommandLabel, JoystickStream

MS = 1_000_000  # ns
#: The rule with no edge trim, for toy streams shorter than two trims.
NO_TRIM = LabelRule(edge_trim_s=0.0)


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


def oracle_code(v_x: float, omega_z: float, tau: float) -> int:
    code = oracle_rule(v_x, omega_z, tau)
    return NO_LABEL if code is None else code


def boundary_grid(tau: float, eps: float = 1e-9):
    return [-1.0, -0.5, -(tau + eps), -tau, 0.0, tau, tau + eps, 0.5, 1.0]


class TestClassifyCommand:
    def test_matches_oracle_on_boundary_grid(self):
        rule = LabelRule()
        grid = boundary_grid(rule.tau)
        assert len(grid) == 9
        for v in grid:
            for w in grid:
                got = classify_commands([v], [w], rule)[0]
                assert got == oracle_code(v, w, rule.tau), f"(v_x={v}, omega_z={w})"

    def test_matches_oracle_on_random_inputs(self):
        rule = LabelRule(tau=0.25)
        rng = np.random.default_rng(7)
        v, w = rng.uniform(-1.0, 1.0, size=(2, 500))
        codes = classify_commands(v, w, rule)
        for i in range(len(v)):
            assert codes[i] == oracle_code(float(v[i]), float(w[i]), rule.tau)

    def test_dead_band_is_inclusive(self):
        rule = LabelRule()
        tau = rule.tau
        codes = classify_commands([tau, -tau, tau + 1e-9, 0.0], [0.0, tau, 0.0, -(tau + 1e-9)], rule)
        stop, forward, right = CommandLabel.STOP, CommandLabel.FORWARD, CommandLabel.RIGHT
        assert codes.tolist() == [stop, stop, forward, right]

    def test_contradictory_axes_discarded(self):
        rule = LabelRule()
        # one axis exactly on the band edge is still inactive
        codes = classify_commands([0.5, -0.2, 0.5], [0.5, 0.9, rule.tau], rule)
        assert codes.tolist() == [NO_LABEL, NO_LABEL, CommandLabel.FORWARD]

    def test_returns_enum_members(self):
        codes = classify_commands([1.0, -1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0, 0.0], LabelRule())
        assert codes.dtype == np.int8
        assert [CommandLabel(c) for c in codes] == [
            CommandLabel.FORWARD, CommandLabel.REVERSE, CommandLabel.LEFT,
            CommandLabel.RIGHT, CommandLabel.STOP,
        ]


class TestClassifyCommands:
    def test_agrees_with_scalar_version(self):
        """Element by element against ``oracle_rule``, the scalar rule text."""
        rule = LabelRule()
        rng = np.random.default_rng(11)
        v = rng.uniform(-1.0, 1.0, size=2000)
        w = rng.uniform(-1.0, 1.0, size=2000)
        codes = classify_commands(v, w, rule)
        assert codes.dtype == np.int8
        for i in range(len(v)):
            assert codes[i] == oracle_code(float(v[i]), float(w[i]), rule.tau)

    def test_grid_cross_product(self):
        rule = LabelRule()
        grid = np.asarray(boundary_grid(rule.tau))
        vv, ww = np.meshgrid(grid, grid, indexing="ij")
        codes = classify_commands(vv.ravel(), ww.ravel(), rule)
        want = [oracle_code(float(a), float(b), rule.tau) for a, b in zip(vv.ravel(), ww.ravel())]
        assert np.array_equal(codes, np.asarray(want, dtype=np.int8))


class TestLabelRule:
    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.0, 1.5])
    def test_rejects_out_of_range_tau(self, tau):
        with pytest.raises(ValueError):
            LabelRule(tau=tau)

    @pytest.mark.parametrize("field, value", [
        ("max_gap_ms", 0.0),
        ("max_gap_ms", -1.0),
        ("max_gap_ms", float("nan")),
        ("max_gap_ms", float("inf")),
        ("edge_trim_s", -1.0),
        ("edge_trim_s", float("nan")),
        ("edge_trim_s", float("inf")),
    ])
    def test_rejects_bad_gap_or_trim(self, field, value):
        with pytest.raises(ValueError, match=field):
            LabelRule(**{field: value})


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
        out = label_at_horizon(eeg_ts, joy, NO_TRIM, 0)
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
        out = label_at_horizon(eeg_ts, joy, NO_TRIM, 300)
        assert np.array_equal(
            out.labels,
            [CommandLabel.RIGHT, CommandLabel.RIGHT,
             CommandLabel.REVERSE, CommandLabel.REVERSE],
        )

    def test_contradictory_targets_are_dropped(self):
        joy = _toy_joystick()
        eeg_ts = np.array([0, 50 * MS, 100 * MS, 125 * MS])
        out = label_at_horizon(eeg_ts, joy, NO_TRIM, 200)
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
        out = label_at_horizon(eeg_ts, joy, NO_TRIM, 0)
        assert np.array_equal(out.indices, [0, 1])
        assert np.array_equal(
            out.labels, [CommandLabel.REVERSE, CommandLabel.REVERSE]
        )

    def test_alignment_gap_is_configurable(self):
        joy = _toy_joystick()
        eeg_ts = np.array([410 * MS])
        tight = LabelRule(max_gap_ms=5.0, edge_trim_s=0.0)
        assert len(label_at_horizon(eeg_ts, joy, tight, 0)) == 0
        wide = LabelRule(max_gap_ms=10.0, edge_trim_s=0.0)
        assert len(label_at_horizon(eeg_ts, joy, wide, 0)) == 1

    def test_class_counts(self):
        joy = _toy_joystick()
        eeg_ts = np.arange(0, 500 * MS, 8 * MS)
        out = label_at_horizon(eeg_ts, joy, NO_TRIM, 0)
        counts = out.class_counts()
        assert counts.sum() == len(out)
        assert np.array_equal(
            counts, np.bincount(out.labels, minlength=5)
        )


def oracle_labels(eeg_ts, joystick, tau, max_gap_ms, edge_trim_s, delta_ms):
    """The rule text, one sample at a time: (index, timestamp, code) of every
    labelled sample."""
    gap_ns = round(max_gap_ms * 1e6)
    trim_ns = round(edge_trim_s * 1e9)
    joy_t = joystick.t_ns.tolist()
    out = []
    for i, t in enumerate(eeg_ts):
        # within the edge trim of the first or the last sample: no label
        if t - eeg_ts[0] < trim_ns or eeg_ts[-1] - t < trim_ns:
            continue
        target = t + delta_ms * MS
        # the nearest reading; on a tie, the earlier one
        best = None
        for j, u in enumerate(joy_t):
            if best is None or abs(u - target) < abs(joy_t[best] - target):
                best = j
        # no reading within the gap: no label
        if best is None or abs(joy_t[best] - target) > gap_ns:
            continue
        code = oracle_rule(float(joystick.v_x[best]), float(joystick.omega_z[best]), tau)
        # a contradictory reading: no label
        if code is not None:
            out.append((i, t, code))
    return out


STEP = 5 * MS  # a coarse clock, so that exact ties and exact gaps are common


@st.composite
def labelling_cases(draw):
    """A random increasing EEG clock and joystick stream on the STEP grid,
    a rule and a horizon. Readings include values exactly at the dead band;
    the gap and the trim are often exact distances on the grid."""
    tau = draw(st.floats(0.01, 0.99))
    eeg_ts = (draw(st.integers(0, 50)) + np.cumsum(
        draw(st.lists(st.integers(1, 4), max_size=50)), dtype=np.int64)) * STEP
    n_joy = draw(st.integers(0, 20))
    joy_t = (draw(st.integers(0, 50)) + np.cumsum(
        draw(st.lists(st.integers(1, 8), min_size=n_joy, max_size=n_joy)), dtype=np.int64)) * STEP
    reading = st.one_of(
        st.sampled_from([0.0, tau, -tau, 1.0, -1.0]), st.floats(-1.0, 1.0)
    )
    v_x = draw(st.lists(reading, min_size=n_joy, max_size=n_joy))
    omega_z = draw(st.lists(reading, min_size=n_joy, max_size=n_joy))
    gap_ns = draw(st.one_of(st.integers(1, 6).map(lambda k: k * STEP), st.integers(1, 40 * MS)))
    span = int(eeg_ts[-1] - eeg_ts[0]) if len(eeg_ts) else 0
    on_grid = [int(t - eeg_ts[0]) for t in eeg_ts] + [span + STEP]
    trim_ns = draw(st.one_of(st.sampled_from(on_grid), st.integers(0, span + STEP)))
    rule = LabelRule(tau=tau, max_gap_ms=gap_ns / 1e6, edge_trim_s=trim_ns / 1e9)
    delta_ms = draw(st.integers(0, 200).map(lambda k: 5 * k))
    return eeg_ts, JoystickStream(joy_t, v_x, omega_z), rule, delta_ms


class TestLabelAtHorizonOracle:
    """``label_at_horizon`` against ``oracle_labels`` on random streams."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(labelling_cases())
    @example((np.zeros(0, dtype=np.int64), JoystickStream([0], [0.0], [0.0]), LabelRule(), 0))
    def test_matches_the_rule_text(self, case):
        eeg_ts, joystick, rule, delta_ms = case
        out = label_at_horizon(eeg_ts, joystick, rule, delta_ms)
        want = oracle_labels(
            eeg_ts.tolist(), joystick, rule.tau, rule.max_gap_ms, rule.edge_trim_s, delta_ms
        )
        assert list(zip(out.indices.tolist(), out.t_ns.tolist(), out.labels.tolist())) == want

    def test_samples_exactly_the_trim_from_an_end_are_kept(self):
        eeg_ts = np.arange(0, 3001 * MS, 500 * MS)  # 0, 0.5, ..., 3 s
        joy = JoystickStream(eeg_ts, np.zeros(len(eeg_ts)), np.zeros(len(eeg_ts)))
        out = label_at_horizon(eeg_ts, joy, LabelRule(edge_trim_s=1.0), 0)
        assert out.t_ns.tolist() == [1000 * MS, 1500 * MS, 2000 * MS]
        out = label_at_horizon(eeg_ts, joy, LabelRule(edge_trim_s=1.0 + 1e-9), 0)
        assert out.t_ns.tolist() == [1500 * MS]
        out = label_at_horizon(eeg_ts, joy, LabelRule(edge_trim_s=1.5), 0)
        assert out.t_ns.tolist() == [1500 * MS]
        assert len(label_at_horizon(eeg_ts, joy, LabelRule(edge_trim_s=1.6), 0)) == 0

    def test_empty_clock_has_no_samples(self):
        out = label_at_horizon(np.zeros(0, dtype=np.int64), _toy_joystick(), LabelRule(), 0)
        assert len(out) == 0 and out.indices.dtype == np.int64


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        joy = _toy_joystick()
        eeg_ts = np.arange(0, 500 * MS, 8 * MS)
        out = label_at_horizon(eeg_ts, joy, NO_TRIM, 300)
        path = tmp_path / "labels_300.csv"
        write_labels_csv(path, out)
        back = read_labels_csv(path, eeg_ts)
        assert np.array_equal(back.indices, out.indices)
        assert np.array_equal(back.t_ns, out.t_ns)
        assert np.array_equal(back.labels, out.labels)

    def test_rows_match_the_per_row_oracle(self, tmp_path):
        rng = np.random.default_rng(8)
        t = np.sort(rng.choice(2**63 - 1, 3000, replace=False))
        t[:4] = [0, 999, 1000, 1001]
        t[-1] = 2**63 - 1
        codes = rng.integers(0, len(CommandLabel), len(t)).astype(np.int8)
        path = write_labels_csv(tmp_path / "l.csv", LabeledSamples(np.arange(len(t)), t, codes))
        rows = "".join("%d,%d\n" % r for r in zip(t.tolist(), codes.tolist()))
        assert path.read_bytes() == ("t_ns,label_code\n" + rows).encode()
        empty = LabeledSamples([], [], [])
        assert write_labels_csv(tmp_path / "e.csv", empty).read_bytes() == b"t_ns,label_code\n"

    def test_rejects_unknown_timestamp(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("t_ns,label_code\n12345,0\n")
        with pytest.raises(DataError, match="12345"):
            read_labels_csv(path, np.array([0, 8 * MS]))

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("time,code\n0,0\n")
        with pytest.raises(DataError, match="header"):
            read_labels_csv(path, np.array([0]))

    @pytest.mark.parametrize("body", ["12,x\n", "12\n", "1.5,2\n", "1,2,3\n"])
    def test_malformed_body_names_file_and_line(self, tmp_path, body):
        path = tmp_path / "labels.csv"
        path.write_text("t_ns,label_code\n12,0\n\n" + body)
        with pytest.raises(DataError) as e:
            read_labels_csv(path, np.array([1, 12]))
        assert str(e.value).startswith(f"{path}:4: ")

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"t_ns,label_code\n12,0\n1\xff,2\n")
        with pytest.raises(DataError, match=f"{path}:3: not UTF-8"):
            read_labels_csv(path, np.array([1, 12]))

    def test_header_only_is_zero_samples(self, tmp_path, recwarn):
        path = tmp_path / "labels.csv"
        path.write_text("t_ns,label_code\n")
        back = read_labels_csv(path, np.array([0, 8 * MS]))
        assert len(back) == 0
        assert back.indices.dtype == np.int64 and back.labels.dtype == np.int8
        assert len(recwarn) == 0

    def test_rejects_out_of_range_code(self, tmp_path):
        path = tmp_path / "labels.csv"
        for code in (7, -1, 300):  # 300 does not fit the int8 label column
            path.write_text(f"t_ns,label_code\n0,{code}\n")
            with pytest.raises(DataError, match="codes"):
                read_labels_csv(path, np.array([0]))


class TestLabeledSamples:
    def test_columns(self):
        ls = LabeledSamples(
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
            LabeledSamples(np.array([1]), np.array([1, 2]), np.array([0]))
