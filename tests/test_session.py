"""Core data-model tests, and the stream rules ``load_session`` enforces on a
written session directory."""

import math

import numpy as np
import pytest

from eegdrive.errors import DataError
from eegdrive.ingest import DRIFT_TOLERANCE, SessionDir, load_session, write_session_dir
from eegdrive.session import (
    DEFAULT_MONTAGE_NAMES,
    HORIZONS_MS,
    N_CLASSES,
    CommandLabel,
    EegRecording,
    JoystickStream,
    SessionManifest,
    default_montage,
    synthetic_montage,
)

PERIOD_NS = 8_000_000  # 125 Hz


def _recording(n_channels=4, n_samples=400, fs=125.0, period_ns=PERIOD_NS, seed=0):
    rng = np.random.default_rng(seed)
    return EegRecording(
        channels=synthetic_montage(n_channels),
        timestamps=np.arange(n_samples, dtype=np.int64) * period_ns,
        samples=rng.standard_normal((n_channels, n_samples)),
        sample_rate_hz=fs,
    )


def _joystick(t_ns=(0, 100_000_000), v_x=(0.5, -0.5)):
    return JoystickStream(np.array(t_ns), np.array(v_x), np.zeros(len(t_ns)))


def _write_and_load(tmp_path, rec=None, joy=None):
    """Write a session directory and parse it back, rules and all."""
    rec = _recording() if rec is None else rec
    manifest = SessionManifest("s01", "r01", rec.sample_rate_hz, tuple(rec.channels))
    session = SessionDir(manifest, rec, _joystick() if joy is None else joy)
    return load_session(write_session_dir(tmp_path / "sess", session))


class TestConstants:
    def test_command_codes(self):
        assert CommandLabel.FORWARD == 0
        assert CommandLabel.REVERSE == 1
        assert CommandLabel.LEFT == 2
        assert CommandLabel.RIGHT == 3
        assert CommandLabel.STOP == 4
        assert N_CLASSES == 5

    def test_horizon_ladder(self):
        assert HORIZONS_MS == (0, 300, 400, 500, 600, 700, 800, 900, 1000)


class TestMontage:
    def test_default_montage_names_and_positions(self):
        chans = default_montage()
        assert [c.name for c in chans] == list(DEFAULT_MONTAGE_NAMES)
        assert len(chans) == 16
        for c in chans:
            assert math.isclose(sum(v * v for v in c.position), 1.0, abs_tol=1e-9)

    def test_synthetic_montage_matches_rig_at_16(self):
        assert synthetic_montage(16) == default_montage()

    def test_synthetic_montage_other_sizes(self):
        for n in (4, 8, 23):
            chans = synthetic_montage(n)
            assert len(chans) == n
            assert len({c.name for c in chans}) == n
            for c in chans:
                assert math.isclose(
                    sum(v * v for v in c.position), 1.0, abs_tol=1e-9
                )
                assert c.position[2] > 0  # scalp electrodes sit above the ears


class TestEegRecording:
    def test_arrays_are_read_only(self):
        rec = _recording()
        with pytest.raises(ValueError):
            rec.samples[0, 0] = 1.0
        with pytest.raises(ValueError):
            rec.timestamps[0] = 1

    def test_with_samples_keeps_metadata(self):
        rec = _recording()
        out = rec.with_samples(np.zeros_like(rec.samples))
        assert out.channel_names == rec.channel_names
        assert np.array_equal(out.timestamps, rec.timestamps)
        assert float(np.abs(out.samples).max()) == 0.0

    def test_shape_validation(self):
        mont = synthetic_montage(4)
        ts = np.arange(10, dtype=np.int64)
        with pytest.raises(ValueError, match="channels"):
            EegRecording(mont, ts, np.zeros((3, 10)), 125.0)
        with pytest.raises(ValueError, match="timestamps"):
            EegRecording(mont, ts, np.zeros((4, 11)), 125.0)


class TestValidateRecording:
    """The EEG stream rules, reported by file and line (header = line 1)."""

    def test_clean_recording_passes(self, tmp_path):
        rec = _recording()
        back = _write_and_load(tmp_path, rec)
        assert np.array_equal(back.eeg.timestamps, rec.timestamps)

    def test_duplicate_timestamp_flagged(self, tmp_path):
        rec = _recording()
        ts = rec.timestamps.copy()
        ts[10] = ts[9]
        bad = EegRecording(rec.channels, ts, rec.samples, rec.sample_rate_hz)
        # the sample that failed to advance is row 10, on line 12
        with pytest.raises(DataError, match=r"eeg\.csv:12: .* does not increase past"):
            _write_and_load(tmp_path, bad)

    def test_nonfinite_channel_flagged_by_name(self, tmp_path):
        rec = _recording()
        samples = rec.samples.copy()
        samples[2, 5] = np.nan
        samples[2, 6] = np.inf
        name = rec.channel_names[2]
        with pytest.raises(
            DataError, match=rf"eeg\.csv:7: non-finite sample nan in channel {name}"
        ):
            _write_and_load(tmp_path, rec.with_samples(samples))

    def test_clock_drift_flagged(self, tmp_path):
        # stamps tick at 4 ms while the manifest claims 125 Hz
        with pytest.raises(DataError, match="median sample gap 4.000 ms"):
            _write_and_load(tmp_path, _recording(period_ns=4_000_000))

    def test_drift_tolerance_is_fractional(self, tmp_path):
        within = int(PERIOD_NS * (1 + DRIFT_TOLERANCE / 2))
        _write_and_load(tmp_path, _recording(period_ns=within))
        beyond = int(PERIOD_NS * (1 + 2 * DRIFT_TOLERANCE))
        with pytest.raises(DataError, match="median sample gap"):
            _write_and_load(tmp_path, _recording(period_ns=beyond))


class TestJoystickStream:
    def test_value_range_enforced(self, tmp_path):
        with pytest.raises(DataError, match=r"jsonl:2: vx value 1.2 outside \[-1, 1\]"):
            _write_and_load(tmp_path, joy=_joystick(v_x=(0.0, 1.2)))

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(DataError, match=r"joystick\.jsonl:1: non-finite sample nan"):
            _write_and_load(tmp_path, joy=_joystick(v_x=(np.nan, 0.0)))

    def test_strictly_increasing_timestamps(self, tmp_path):
        with pytest.raises(DataError, match="does not increase past 0"):
            _write_and_load(tmp_path, joy=_joystick(t_ns=(0, 0)))

    def test_len_and_read_only_columns(self):
        joy = JoystickStream(
            np.array([0, 100]), np.array([0.5, -0.5]), np.array([0.0, 0.25])
        )
        assert len(joy) == 2
        assert (joy.t_ns[1], joy.v_x[1], joy.omega_z[1]) == (100, -0.5, 0.25)
        with pytest.raises(ValueError):
            joy.v_x[0] = 0.0


class TestSessionManifest:
    def test_requires_identifiers(self):
        mont = tuple(synthetic_montage(4))
        with pytest.raises(ValueError):
            SessionManifest("", "x", 125.0, mont)
        with pytest.raises(ValueError):
            SessionManifest("x", "", 125.0, mont)

    def test_requires_unique_channel_names(self):
        mont = synthetic_montage(4)
        dup = tuple(mont[:3] + [mont[0]])
        with pytest.raises(ValueError, match="unique"):
            SessionManifest("s", "r", 125.0, dup)
