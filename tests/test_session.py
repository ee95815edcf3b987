"""Core data-model and stream-validation tests."""

import math

import numpy as np
import pytest

from eegdrive.errors import DataError
from eegdrive.session import (
    DEFAULT_MONTAGE_NAMES,
    HORIZONS_MS,
    N_CLASSES,
    CommandLabel,
    EegRecording,
    JoystickStream,
    SessionManifest,
    default_montage,
    duration_between,
    synthetic_montage,
    validate_horizon,
    validate_recording,
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

    def test_validate_horizon(self):
        for h in HORIZONS_MS:
            assert validate_horizon(h) == h
        for h in (150, -300, 1100):
            with pytest.raises(ValueError):
                validate_horizon(h)

    def test_duration_between(self):
        assert duration_between(1_000, 3_500) == 2_500


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

    def test_channel_index(self):
        rec = _recording(n_channels=16)
        assert rec.channel_index("C3") == DEFAULT_MONTAGE_NAMES.index("C3")
        with pytest.raises(KeyError):
            rec.channel_index("Cz")

    def test_shape_validation(self):
        mont = synthetic_montage(4)
        ts = np.arange(10, dtype=np.int64)
        with pytest.raises(ValueError, match="channels"):
            EegRecording(mont, ts, np.zeros((3, 10)), 125.0)
        with pytest.raises(ValueError, match="timestamps"):
            EegRecording(mont, ts, np.zeros((4, 11)), 125.0)


class TestValidateRecording:
    def test_clean_recording_passes(self):
        report = validate_recording(_recording())
        assert report.ok
        assert report.issues == []

    def test_duplicate_timestamp_flagged(self):
        rec = _recording()
        ts = rec.timestamps.copy()
        ts[10] = ts[9]
        bad = EegRecording(rec.channels, ts, rec.samples, rec.sample_rate_hz)
        report = validate_recording(bad)
        issues = report.by_kind("monotonicity")
        assert len(issues) == 1
        assert issues[0].index == 10  # the sample that failed to advance
        assert not report.ok

    def test_nonfinite_channel_flagged_by_name(self):
        rec = _recording()
        samples = rec.samples.copy()
        samples[2, 5] = np.nan
        samples[2, 6] = np.inf
        bad = rec.with_samples(samples)
        report = validate_recording(bad)
        issues = report.by_kind("nonfinite")
        assert len(issues) == 1
        assert issues[0].channel == rec.channel_names[2]
        assert issues[0].index == 5

    def test_clock_drift_flagged(self):
        # stamps tick at 4 ms while the manifest claims 125 Hz
        rec = _recording(period_ns=4_000_000)
        report = validate_recording(rec)
        assert len(report.by_kind("drift")) == 1

    def test_drift_tolerance_is_fractional(self):
        rec = _recording(period_ns=int(PERIOD_NS * 1.005))
        assert validate_recording(rec, drift_tolerance=0.01).ok
        assert not validate_recording(rec, drift_tolerance=0.001).ok


class TestJoystickStream:
    def test_value_range_enforced(self):
        with pytest.raises(DataError, match=r"outside \[-1, 1\]"):
            JoystickStream(np.array([0]), np.array([1.2]), np.array([0.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            JoystickStream(np.array([0]), np.array([np.nan]), np.array([0.0]))

    def test_strictly_increasing_timestamps(self):
        with pytest.raises(DataError, match="increasing"):
            JoystickStream(
                np.array([0, 0]), np.array([0.0, 0.0]), np.array([0.0, 0.0])
            )

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
