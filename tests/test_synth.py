"""Generator invariants: schedule, tones, anticipation ramp, determinism."""

import math

import numpy as np
import pytest

from eegdrive.errors import DataError
from eegdrive.ingest import load_session
from eegdrive.labels import (
    LabelRule,
    label_at_horizon,
    read_labels_csv,
    write_labels_csv,
)
from eegdrive.session import NS_PER_S
from eegdrive.synth import (
    JOYSTICK_MAGNITUDE,
    JOYSTICK_RATE_HZ,
    TONE_RMS_UV,
    TRUTH_NAME,
    SynthConfig,
    generate_session,
    write_synthetic_session,
)
from tones import tone_power

FS = 125.0
CLASS_FREQS = (30.0, 15.0, 10.0, 20.0, 5.0)


def _interior(mask, fs=FS, trim_s=1.0):
    """Indices inside a boolean run, at least trim_s away from either edge."""
    k = round(trim_s * fs)
    idx = np.nonzero(mask)[0]
    return idx[(idx >= idx[0] + k) & (idx <= idx[-1] - k)]


class TestPureToneSession:
    """One command for the whole session and no noise: the textbook case."""

    CFG = SynthConfig(
        duration_s=20.0,
        snr_db=math.inf,
        schedule=((30.0, 0),),
    )

    def test_every_channel_is_a_pure_forward_tone(self):
        session, truth = generate_session(self.CFG)
        x = session.eeg.samples
        assert np.all(truth.labels == 0)
        for i in range(x.shape[0]):
            total = 2.0 * float(np.mean(np.square(x[i])))
            at_tone = tone_power(x[i], 30.0, FS)
            # all of the energy sits at the forward frequency
            assert math.isclose(at_tone, total, rel_tol=1e-9, abs_tol=1e-12)
            for f in CLASS_FREQS[1:]:
                assert tone_power(x[i], f, FS) < 1e-12 * max(total, 1.0)

    def test_no_ramp_for_a_segment_already_running(self):
        # the session starts mid-segment, so the envelope is flat from t=0
        session, _ = generate_session(self.CFG)
        x = session.eeg.samples
        ch = int(np.argmax(np.abs(x).max(axis=1)))
        t = np.arange(x.shape[1]) / FS
        carrier = np.sin(2 * np.pi * 30.0 * t)
        strong = np.abs(carrier) > 0.5
        ratio = x[ch, strong] / carrier[strong]
        assert np.allclose(ratio, ratio[0], rtol=1e-9)

    def test_joystick_holds_forward(self):
        session, _ = generate_session(self.CFG)
        assert np.all(session.joystick.v_x == JOYSTICK_MAGNITUDE)
        assert np.all(session.joystick.omega_z == 0.0)


class TestAnticipationRamp:
    def test_envelope_rises_over_the_lag_interval(self):
        lag_s = 0.3
        cfg = SynthConfig(
            duration_s=16.0,
            snr_db=math.inf,
            label_lag_ms=lag_s * 1000.0,
            schedule=((8.0, 4), (12.0, 0)),
        )
        session, _ = generate_session(cfg)
        x = session.eeg.samples
        t = np.arange(x.shape[1]) / FS
        ch = int(np.argmax(np.abs(x).max(axis=1)))
        carrier = np.sin(2 * np.pi * 30.0 * t)

        # silence until the anticipation window opens at 8.0 - lag
        assert np.abs(x[:, t < 8.0 - lag_s - 1e-9]).max() == 0.0

        strong = np.abs(carrier) > 0.5
        ratio = np.where(strong, x[ch] / np.where(strong, carrier, 1.0), np.nan)
        full = ratio[strong & (t >= 8.0)][-1]
        want = np.clip((t + lag_s - 8.0) / lag_s, 0.0, 1.0)
        ok = strong & (t >= 8.0 - lag_s)
        assert np.allclose(ratio[ok] / full, want[ok], atol=1e-9)

    def test_zero_lag_means_no_ramp(self):
        cfg = SynthConfig(
            duration_s=16.0,
            snr_db=math.inf,
            label_lag_ms=0.0,
            schedule=((8.0, 4), (12.0, 0)),
        )
        session, _ = generate_session(cfg)
        x = session.eeg.samples
        t = np.arange(x.shape[1]) / FS
        assert np.abs(x[:, t < 8.0 - 1e-9]).max() == 0.0
        ch = int(np.argmax(np.abs(x).max(axis=1)))
        carrier = np.sin(2 * np.pi * 30.0 * t)
        strong = (np.abs(carrier) > 0.5) & (t >= 8.0)
        ratio = x[ch, strong] / carrier[strong]
        assert np.allclose(ratio, ratio[0], rtol=1e-9)


class TestSpectralContent:
    # six observed segments plus one to cover the lag horizon past the end
    SCHEDULE = ((4.0, 0), (4.0, 1), (4.0, 2), (4.0, 3), (4.0, 4), (4.0, 0))
    COVER = SCHEDULE + ((4.0, 0),)

    def test_active_class_dominates_segment_interiors(self):
        cfg = SynthConfig(duration_s=24.0, schedule=self.COVER)
        session, truth = generate_session(cfg)
        x = session.eeg.samples
        floor = None
        for seg, code in enumerate(c for _, c in self.SCHEDULE):
            mask = np.zeros(len(truth.labels), dtype=bool)
            lo = round(seg * 4.0 * FS)
            mask[lo : lo + round(4.0 * FS)] = True
            idx = _interior(mask & (truth.labels == code))
            powers = np.array(
                [sum(tone_power(x[i, idx], f, FS) for i in range(x.shape[0]))
                 for f in CLASS_FREQS]
            )
            if code == 4:  # silent class: nothing stands out
                stop_max = powers.max()
                continue
            others = np.delete(powers, code)
            # dominant by at least 6 dB over the runner-up
            assert powers[code] >= 4.0 * others.max(), (seg, code, powers)
            floor = powers[code] if floor is None else min(floor, powers[code])
        assert stop_max < floor / 4.0

    def test_stop_tone_appears_when_not_silent(self):
        cfg = SynthConfig(
            duration_s=12.0,
            snr_db=math.inf,
            stop_silent=False,
            schedule=((16.0, 4),),
        )
        session, _ = generate_session(cfg)
        x = session.eeg.samples
        total = sum(tone_power(x[i], 5.0, FS) for i in range(x.shape[0]))
        assert total > 0.0
        pure = 2.0 * float(np.mean(np.square(x)))
        assert pure > 0.0


class TestSchedule:
    def test_markov_dwell_times_bounded(self):
        cfg = SynthConfig(duration_s=240.0, rng_seed=7)
        _, truth = generate_session(cfg)
        changes = np.nonzero(np.diff(truth.labels) != 0)[0]
        runs_s = np.diff(changes) / FS
        assert len(runs_s) >= 30
        # dwell = segment_len * U(0.5, 1.5), quantized to the joystick tick
        assert runs_s.min() >= 2.0 - 0.15
        assert runs_s.max() <= 6.0 + 0.15

    def test_all_classes_appear_in_a_long_walk(self):
        _, truth = generate_session(SynthConfig(duration_s=240.0, rng_seed=3))
        assert set(np.unique(truth.labels)) == {0, 1, 2, 3, 4}

    def test_explicit_schedule_too_short_rejected(self):
        cfg = SynthConfig(duration_s=20.0, schedule=((5.0, 0),))
        with pytest.raises(DataError, match="schedule covers"):
            generate_session(cfg)

    def test_labels_at_the_generative_lag_reproduce_truth(self):
        cfg = SynthConfig(duration_s=60.0, rng_seed=5)
        session, truth = generate_session(cfg)
        labeled = label_at_horizon(
            session.eeg.timestamps, session.joystick, LabelRule(edge_trim_s=0.0), 300
        )
        # away from the stream tail the quantized truth tick really exists
        tick_ns = round(NS_PER_S / JOYSTICK_RATE_HZ)
        last_tick = int(session.joystick.t_ns[-1])
        safe = labeled.t_ns + 300_000_000 <= last_tick + tick_ns // 2
        assert safe.sum() > 7000
        assert np.array_equal(
            labeled.labels[safe], truth.labels[labeled.indices[safe]]
        )

    def test_joystick_values_come_from_the_sign_table(self):
        session, _ = generate_session(SynthConfig(duration_s=60.0, rng_seed=2))
        mag = 0.8
        assert set(np.unique(session.joystick.v_x)) <= {-mag, 0.0, mag}
        assert set(np.unique(session.joystick.omega_z)) <= {-mag, 0.0, mag}
        both = (session.joystick.v_x != 0) & (session.joystick.omega_z != 0)
        assert not both.any()


class TestArtifacts:
    def test_line_noise_rides_on_every_channel(self):
        cfg = SynthConfig(duration_s=16.0, line_noise_amp=10.0)
        session, _ = generate_session(cfg)
        amp_50 = 10.0 * TONE_RMS_UV * math.sqrt(2.0)
        for i in range(session.eeg.n_channels):
            p = tone_power(session.eeg.samples[i], 50.0, FS)
            assert p > (0.9 * amp_50) ** 2

    def test_corrupt_channel_is_flat(self):
        cfg = SynthConfig(duration_s=16.0, corrupt_channel="C3", line_noise_amp=10.0)
        session, _ = generate_session(cfg)
        k = session.eeg.montage.names.index("C3")
        assert np.all(session.eeg.samples[k] == 0.0)
        others = [i for i in range(session.eeg.n_channels) if i != k]
        assert np.abs(session.eeg.samples[others]).max() > 0.0

    def test_unknown_corrupt_channel_rejected(self):
        cfg = SynthConfig(duration_s=16.0, corrupt_channel="Cz")
        with pytest.raises(DataError, match="not in the montage"):
            generate_session(cfg)


class TestDeterminism:
    def test_same_seed_same_session(self):
        a, ta = generate_session(SynthConfig(duration_s=12.0, rng_seed=11))
        b, tb = generate_session(SynthConfig(duration_s=12.0, rng_seed=11))
        assert np.array_equal(a.eeg.samples, b.eeg.samples)
        assert np.array_equal(a.joystick.v_x, b.joystick.v_x)
        assert np.array_equal(ta.labels, tb.labels)

    def test_different_seed_differs(self):
        a, _ = generate_session(SynthConfig(duration_s=12.0, rng_seed=11))
        b, _ = generate_session(SynthConfig(duration_s=12.0, rng_seed=12))
        assert not np.array_equal(a.eeg.samples, b.eeg.samples)

    def test_written_sessions_are_byte_identical(self, tmp_path):
        cfg = SynthConfig(duration_s=10.0, rng_seed=4)
        d1 = write_synthetic_session(tmp_path / "a", cfg)
        d2 = write_synthetic_session(tmp_path / "b", cfg)
        for name in ("manifest.json", "eeg.csv", "joystick.jsonl", TRUTH_NAME):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_written_session_loads_back(self, tmp_path):
        cfg = SynthConfig(duration_s=10.0, rng_seed=4)
        root = write_synthetic_session(tmp_path / "s", cfg)
        session = load_session(root)
        assert session.eeg.n_channels == 16
        assert session.eeg.n_samples == 1250
        truth = read_labels_csv(root / TRUTH_NAME, session.eeg.timestamps)
        assert len(truth) == 1250
        assert np.array_equal(truth.t_ns, session.eeg.timestamps)
        assert np.array_equal(truth.indices, np.arange(1250))


class TestTruthCsv:
    """The truth track is a labels file covering every sample at delta = lag."""

    def test_round_trip(self, tmp_path):
        session, truth = generate_session(SynthConfig(duration_s=8.0))
        assert np.array_equal(truth.t_ns, session.eeg.timestamps)
        p = write_labels_csv(tmp_path / "t.csv", truth)
        back = read_labels_csv(p, session.eeg.timestamps)
        assert np.array_equal(back.t_ns, truth.t_ns)
        assert np.array_equal(back.indices, truth.indices)
        assert np.array_equal(back.labels, truth.labels)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,code\n0,0\n")
        with pytest.raises(DataError, match="header"):
            read_labels_csv(p, np.array([0]))

    def test_bad_row_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t_ns,label_code\n0,0\noops,1\n")
        with pytest.raises(DataError, match=":3"):
            read_labels_csv(p, np.array([0, 1]))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": 0.0},
            {"sample_rate_hz": 50.0},  # the 30 Hz forward tone is above Nyquist
            {"sample_rate_hz": 60.0},  # and at 60 Hz it sits on Nyquist
            {"snr_db": float("nan")},
            {"label_lag_ms": -1.0},
            {"line_noise_amp": -0.1},
            {"duration_s": 3.0},
            {"schedule": ((0.0, 0),)},
            {"schedule": ((4.0, 9),)},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)
