"""Core data-model tests, and the stream and manifest rules ``load_session``
enforces on a written session directory."""

import json

import numpy as np
import pytest

from eegdrive.errors import DataError
from eegdrive.ingest import (
    DRIFT_TOLERANCE,
    MANIFEST_NAME,
    SessionDir,
    load_session,
    write_session_dir,
)
from eegdrive.session import (
    DEFAULT_MONTAGE_NAMES,
    ELECTRODE_POSITIONS,
    HORIZONS_MS,
    N_CLASSES,
    CommandLabel,
    EegRecording,
    JoystickStream,
    Montage,
    default_montage,
    synthetic_montage,
)

PERIOD_NS = 8_000_000  # 125 Hz


def _recording(n_channels=4, n_samples=400, fs=125.0, period_ns=PERIOD_NS, seed=0):
    rng = np.random.default_rng(seed)
    return EegRecording(
        montage=synthetic_montage(n_channels),
        timestamps=np.arange(n_samples, dtype=np.int64) * period_ns,
        samples=rng.standard_normal((n_channels, n_samples)),
        sample_rate_hz=fs,
    )


def _joystick(t_ns=(0, 100_000_000), v_x=(0.5, -0.5)):
    return JoystickStream(np.array(t_ns), np.array(v_x), np.zeros(len(t_ns)))


def _write_and_load(tmp_path, rec=None, joy=None):
    """Write a session directory and parse it back, rules and all."""
    rec = _recording() if rec is None else rec
    session = SessionDir("s01", "r01", rec, _joystick() if joy is None else joy)
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


def _unit_norms(montage):
    return np.sqrt((montage.positions**2).sum(axis=1))


class TestMontage:
    def test_default_montage_names_and_positions(self):
        mont = default_montage()
        assert mont.names == DEFAULT_MONTAGE_NAMES
        assert mont.positions.shape == (16, 3)
        assert mont.positions.dtype == np.float64
        for name, row in zip(mont.names, mont.positions.tolist()):
            assert tuple(row) == ELECTRODE_POSITIONS[name]
        assert np.allclose(_unit_norms(mont), 1.0, rtol=0, atol=1e-9)

    def test_synthetic_montage_matches_rig_at_16(self):
        a, b = synthetic_montage(16), default_montage()
        assert a.names == b.names
        assert np.array_equal(a.positions, b.positions)

    def test_synthetic_montage_other_sizes(self):
        for n in (4, 8, 23):
            mont = synthetic_montage(n)
            assert len(mont.names) == n == len(set(mont.names))
            assert mont.positions.shape == (n, 3)
            assert np.allclose(_unit_norms(mont), 1.0, rtol=0, atol=1e-9)
            assert (mont.positions[:, 2] > 0).all()  # scalp electrodes sit above the ears

    def test_positions_are_read_only_copies(self):
        pos = np.array(default_montage().positions[:3])
        mont = Montage(("a", "b", "c"), pos)
        pos[0] = (0.0, 0.0, 1.0)
        assert not np.array_equal(mont.positions[0], pos[0])
        with pytest.raises(ValueError):
            mont.positions[0, 0] = 1.0

    def test_requires_two_channels(self):
        with pytest.raises(ValueError, match="at least 2 channels"):
            Montage(("a",), [(0.0, 0.0, 1.0)])
        with pytest.raises(ValueError, match="at least 2 channels"):
            synthetic_montage(1)

    def test_requires_one_position_row_per_name(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\)"):
            Montage(("a", "b", "c"), default_montage().positions[:2])
        with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
            Montage(("a", "b"), default_montage().positions[:2, :2])

    def test_requires_unique_channel_names(self):
        mont = synthetic_montage(4)
        with pytest.raises(ValueError, match=r"channel 3: name 'ch00' is not unique"):
            Montage(mont.names[:3] + mont.names[:1], mont.positions)

    def test_requires_non_empty_names(self):
        mont = synthetic_montage(4)
        with pytest.raises(ValueError, match="channel 2: name must be non-empty"):
            Montage(("a", "b", "", "d"), mont.positions)

    @pytest.mark.parametrize("scale", [1.0 + 2e-9, 0.5, 0.0, np.nan, np.inf])
    def test_requires_unit_positions(self, scale):
        mont = synthetic_montage(4)
        pos = np.array(mont.positions)
        pos[1] *= scale
        with pytest.raises(ValueError, match=r"'ch01': \|position\| = .* unit norm"):
            Montage(mont.names, pos)

    def test_unit_tolerance_is_1e_9(self):
        mont = synthetic_montage(4)
        pos = np.array(mont.positions)
        pos[1] *= 1.0 + 5e-10
        assert Montage(mont.names, pos).names == mont.names


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
        assert out.montage is rec.montage
        assert out.sample_rate_hz == rec.sample_rate_hz
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
        bad = EegRecording(rec.montage, ts, rec.samples, rec.sample_rate_hz)
        # the sample that failed to advance is row 10, on line 12
        with pytest.raises(DataError, match=r"eeg\.csv:12: .* does not increase past"):
            _write_and_load(tmp_path, bad)

    def test_nonfinite_channel_flagged_by_name(self, tmp_path):
        rec = _recording()
        samples = rec.samples.copy()
        samples[2, 5] = np.nan
        samples[2, 6] = np.inf
        name = rec.montage.names[2]
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
    """The manifest rules, checked where the manifest is parsed: every fault
    is a DataError naming the manifest file."""

    def _edited(self, tmp_path, **fields):
        """A written session whose manifest has ``fields`` replaced."""
        root = write_session_dir(
            tmp_path / "sess", SessionDir("s01", "r01", _recording(), _joystick())
        )
        path = root / MANIFEST_NAME
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **fields)))
        return root

    def test_requires_identifiers(self, tmp_path):
        for key in ("subject_id", "session_id"):
            root = self._edited(tmp_path / key, **{key: ""})
            with pytest.raises(DataError, match="session_id must be non-empty") as e:
                load_session(root)
            assert str(root / MANIFEST_NAME) in str(e.value)

    def test_requires_unique_channel_names(self, tmp_path):
        positions = _recording().montage.positions.tolist()
        channels = [{"name": n, "pos": p} for n, p in zip("abca", positions)]
        root = self._edited(tmp_path, channels=channels)
        with pytest.raises(DataError, match="channel 3: name 'a' is not unique") as e:
            load_session(root)
        assert str(root / MANIFEST_NAME) in str(e.value)

    @pytest.mark.parametrize("rate", [0, -125.0])
    def test_requires_positive_rate(self, tmp_path, rate):
        root = self._edited(tmp_path, sample_rate_hz=rate)
        with pytest.raises(DataError, match="sample_rate_hz must be positive") as e:
            load_session(root)
        assert str(root / MANIFEST_NAME) in str(e.value)

    def test_round_trip_keeps_every_fact(self, tmp_path):
        rec = _recording()
        session = SessionDir("s01", "r01", rec, _joystick(), reserved_streams=("imu",))
        back = load_session(write_session_dir(tmp_path / "sess", session))
        assert (back.subject_id, back.session_id) == ("s01", "r01")
        assert back.reserved_streams == ("imu",)
        assert back.eeg.sample_rate_hz == rec.sample_rate_hz
        assert back.eeg.montage.names == rec.montage.names
        assert np.array_equal(back.eeg.montage.positions, rec.montage.positions)
