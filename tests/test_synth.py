"""Generator invariants: schedule, tones, anticipation ramp, determinism."""

import hashlib
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
from tracemem import peak_traced

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


#: sha256 of every file of a written session, pinned from the simulator
#: that summed the tones and the noise as whole (C, T) arrays. The in-place
#: build must write the same bytes: the synthetic data is fixed.
PINNED = {
    "markov": (SynthConfig(rng_seed=29), {
        "eeg.csv": "fee24f1a684a03de9e57aefaec9fd999a242f1126cfebd8ad2ae37a8e231106a",
        "joystick.jsonl": "76fd0861b11387fabfd46b5bcbc527a5415b0eb6c564bbfbdf0909ef1e3e20fc",
        "manifest.json": "2a788aee0196d0aedd1f623cd1464d4295a4e864f76f7eb138837020a0da5126",
        TRUTH_NAME: "5223787d450bd5ff2f4f52abfb782959438c8f09170b3b54f4d1572ae20de174",
    }),
    # every tone sounds, O2 is dead
    "schedule-corrupt": (SynthConfig(
        duration_s=30.0, rng_seed=11, stop_silent=False, corrupt_channel="O2",
        schedule=((6.0, 0), (5.0, 2), (7.0, 1), (4.0, 3), (5.0, 4), (8.0, 0)),
    ), {
        "eeg.csv": "e3ff504cd5dcc59be6429926ff4f9a4ceacc3db9de391327f4c46461e36334c1",
        "joystick.jsonl": "f0b102c1f414ee1f4c737d975a881a8214bae6a7f7c5d2d439d292be9e717379",
        "manifest.json": "3fdc853ebe4ae4202304636b2e3254ae1ae4940d8d4cb0f7465c554cf1284274",
        TRUTH_NAME: "b1ecf8711e426cbb322b5e3f880b2a700228c0e8c2655e3a5dd1f8fbe5271dee",
    }),
    # no noise stream (sigma 0), mains hum, and no ramp
    "noiseless-mains": (SynthConfig(
        duration_s=20.0, rng_seed=3, snr_db=math.inf, line_noise_amp=0.5, label_lag_ms=0.0,
    ), {
        "eeg.csv": "57a34223736b5c98162c4da10457a8e74d2fb8d0e63dcfaae8bb4f170c1dfb83",
        "joystick.jsonl": "98b7b225bfa427ae118e1bad8463a77f1852dbe08b52330107428e46498bac8a",
        "manifest.json": "6b46f38cb50f34db5433020b95642dd32d5f3ad2d63ed0fb877de11159108a63",
        TRUTH_NAME: "7ea4de32e516af73392103d12ae79ddca97ccef838114a3dc6b8297498f8236f",
    }),
}


class TestInPlaceBuild:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_written_files_match_their_pinned_digests(self, tmp_path, name):
        cfg, digests = PINNED[name]
        root = write_synthetic_session(tmp_path / name, cfg)
        got = {f: hashlib.sha256((root / f).read_bytes()).hexdigest() for f in digests}
        assert got == digests

    @pytest.mark.parametrize("duration_s", [120.0, 200.0])
    def test_working_set_at_most_two_and_a_fifth_recordings(self, duration_s):
        # the recording is the noise buffer, and the tones and streams are
        # rows beside it (~2.0x); the whole (C + 4, T) stream draw and the
        # (C, T) noise and tone terms beside the recording read 4.8x
        cfg = SynthConfig(duration_s=duration_s, rng_seed=5)
        n_bytes = generate_session(cfg)[0].eeg.samples.nbytes
        assert peak_traced(lambda: generate_session(cfg)) <= 2.2 * n_bytes


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
