"""Filtering and channel-cleaning tests.

Filter behaviour is verified on known sinusoids by RMS measurement after
trimming the transient margin; the narrow-band power estimator is checked
against an independent least-squares sinusoid fit.
"""

import math

import numpy as np
import pytest

from eegdrive import preprocess
from eegdrive.errors import DataError
from eegdrive.preprocess import (
    FilterSpec,
    PreprocessReport,
    design_highpass,
    design_notch,
    detect_bad_channels,
    filter_zero_phase,
    interpolate_channels,
    preprocess_session,
    robust_average_reference,
    zscore_channels,
)
from eegdrive.session import EegRecording, Montage, default_montage
from eegdrive.synth import SynthConfig, generate_session
from tones import tone_power
from tracemem import peak_traced

FS = 125.0
PERIOD_NS = 8_000_000


def sine(freq, n, fs=FS, amp=1.0, phase=0.0):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / fs + phase)


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def trim(x, seconds=1.0, fs=FS):
    k = round(seconds * fs)
    return x[..., k:-k]


def oracle_tone_power(x, freq, fs):
    """Least-squares fit of a*sin + b*cos at one frequency; power = a^2 + b^2."""
    t = np.arange(len(x)) / fs
    basis = np.column_stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t)])
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(coef[0] ** 2 + coef[1] ** 2)


def _structured_recording(n=3000, seed=0, n_channels=16):
    """Three dipole fields projected through the montage.

    Coefficients are centred across channels so the common mode is zero and
    average referencing leaves the structure intact; fields vary smoothly
    with electrode position, which the spatial consistency checks rely on.
    """
    rng = np.random.default_rng(seed)
    rig = default_montage()
    mont = Montage(rig.names[:n_channels], rig.positions[:n_channels])
    pos = mont.positions
    gains = rng.permuted(np.linspace(0.75, 1.25, n_channels))
    coef = gains[:, None] * pos
    coef = coef - coef.mean(axis=0, keepdims=True)
    t = np.arange(n) / FS
    bases = np.stack(
        [
            np.sqrt(2.0) * np.sin(2 * np.pi * 9.0 * t),
            np.sqrt(2.0) * np.sin(2 * np.pi * 17.0 * t + 0.7),
            np.sqrt(2.0) * np.sin(2 * np.pi * 23.0 * t + 1.9),
        ]
    )
    samples = 5.0 * (coef @ bases) + 0.3 * rng.standard_normal((n_channels, n))
    return EegRecording(
        montage=mont,
        timestamps=np.arange(n, dtype=np.int64) * PERIOD_NS,
        samples=samples,
        sample_rate_hz=FS,
    )


class TestFilters:
    def test_notch_kills_mains(self):
        spec = FilterSpec()
        x = sine(50.0, round(4 * FS))
        y = trim(filter_zero_phase(x, design_notch(spec, FS)))
        atten_db = 20 * math.log10(rms(trim(x)) / max(rms(y), 1e-300))
        assert atten_db >= 30.0

    def test_passband_tone_survives(self):
        spec = FilterSpec()
        x = sine(10.0, round(4 * FS))
        y = filter_zero_phase(x, design_highpass(spec, FS))
        y = trim(filter_zero_phase(y, design_notch(spec, FS)))
        loss_db = 20 * math.log10(rms(trim(x)) / rms(y))
        assert abs(loss_db) <= 1.0

    def test_dc_is_rejected(self):
        spec = FilterSpec()
        x = np.full(round(4 * FS), 42.0)
        y = trim(filter_zero_phase(x, design_highpass(spec, FS)))
        assert np.abs(y).max() / 42.0 <= 1e-6

    def test_zero_phase_has_no_lag(self):
        spec = FilterSpec()
        x = sine(10.0, round(4 * FS))
        y = filter_zero_phase(x, design_highpass(spec, FS))
        y = filter_zero_phase(y, design_notch(spec, FS))
        xc, yc = trim(x), trim(y)
        corr = np.correlate(yc, xc, mode="full")
        assert int(np.argmax(corr)) - (len(xc) - 1) == 0

    def test_filtering_is_linear(self):
        spec = FilterSpec()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(600)
        y = rng.standard_normal(600)
        sos = design_highpass(spec, FS)
        lhs = filter_zero_phase(2.5 * x - 1.25 * y, sos)
        rhs = 2.5 * filter_zero_phase(x, sos) - 1.25 * filter_zero_phase(y, sos)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_multichannel_rows_filtered_independently(self):
        spec = FilterSpec()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 500))
        sos = design_notch(spec, FS)
        stacked = filter_zero_phase(x, sos)
        for c in range(3):
            assert np.allclose(stacked[c], filter_zero_phase(x[c], sos), atol=1e-12)

    @pytest.mark.parametrize("shape", [(600,), (3, 500)])
    def test_cascades_in_one_call_equal_one_call_each(self, shape):
        # the notch runs in the high-pass's buffer, on the same values
        spec = FilterSpec()
        x = np.random.default_rng(4).standard_normal(shape)
        hp, notch = design_highpass(spec, FS), design_notch(spec, FS)
        both = filter_zero_phase(x, hp, notch)
        assert both.shape == x.shape
        assert both.tobytes() == filter_zero_phase(filter_zero_phase(x, hp), notch).tobytes()
        assert filter_zero_phase(x, notch, hp).tobytes() == (
            filter_zero_phase(filter_zero_phase(x, notch), hp).tobytes())

    @pytest.mark.parametrize("design", [design_highpass, design_notch])
    def test_working_set_below_four_recordings(self, design):
        # both passes share one padded buffer and one spectrum; holding the
        # extension, spectrum, output and reversed copy at once would read ~5.6x
        x = np.random.default_rng(3).standard_normal((16, 15000))
        sos = design(FilterSpec(), FS)
        assert peak_traced(lambda: filter_zero_phase(x, sos)) < 4 * x.nbytes

    def test_too_short_signal_rejected(self):
        # the odd extension is 3 x ntaps samples: 15 for the order-4 high-pass
        # (two sections, five taps), 9 for the notch (one section, three taps)
        spec = FilterSpec()
        cases = [(design_highpass, n) for n in (10, 13, 14, 15)]
        cases += [(design_notch, n) for n in (6, 7, 8, 9)]
        for design, n in cases:
            for shape in ((n,), (16, n)):
                with pytest.raises(DataError, match="too short"):
                    filter_zero_phase(np.zeros(shape), design(spec, FS))

    def test_highpass_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            design_highpass(FilterSpec(highpass_hz=80.0, notch_hz=90.0), FS)

    def test_filter_spec_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(highpass_hz=0.0)
        with pytest.raises(ValueError):
            FilterSpec(notch_hz=0.5)  # below the high-pass corner


class TestTonePower:
    def test_matches_least_squares_fit(self):
        rng = np.random.default_rng(3)
        n = round(4 * FS)
        for freq in (5.0, 10.0, 30.0, 50.0):
            x = sine(freq, n, amp=3.0, phase=1.1) + 0.5 * rng.standard_normal(n)
            got = tone_power(x, freq, FS)
            want = oracle_tone_power(x, freq, FS)
            assert math.isclose(got, want, rel_tol=1e-6), freq

    def test_pure_tone_amplitude_recovered(self):
        x = sine(10.0, round(4 * FS), amp=7.0, phase=0.3)
        assert math.isclose(tone_power(x, 10.0, FS), 49.0, rel_tol=1e-9)

    def test_off_frequency_power_is_negligible(self):
        x = sine(10.0, round(4 * FS))
        assert tone_power(x, 30.0, FS) < 1e-12


def _verdict(rec, flags):
    """A (2, C) verdict from {channel name: (reasons...)}."""
    verdict = np.zeros((len(preprocess.REASONS), rec.n_channels), dtype=bool)
    for name, reasons in flags.items():
        for why in reasons:
            verdict[preprocess.REASONS.index(why), rec.montage.names.index(name)] = True
    return verdict


def _good_rows(verdict):
    return np.flatnonzero(~verdict.any(axis=0))


class TestDetectBadChannels:
    def test_clean_recording_unflagged(self):
        rec = _structured_recording()
        verdict = detect_bad_channels(rec.samples, FS)
        assert verdict.shape == (2, rec.n_channels)
        assert verdict.dtype == bool
        assert not verdict.any()

    def test_dead_channel_flagged(self):
        rec = _structured_recording()
        x = rec.samples.copy()
        x[5] = 0.0
        verdict = detect_bad_channels(x, FS)
        assert np.flatnonzero(verdict.any(axis=0)).tolist() == [5]
        assert verdict[preprocess.REASONS.index("correlation"), 5]

    def test_extreme_amplitude_flagged_as_deviation(self):
        rec = _structured_recording()
        x = rec.samples.copy()
        x[2] *= 80.0
        verdict = detect_bad_channels(x, FS)
        assert verdict.any(axis=0)[2]
        assert verdict[preprocess.REASONS.index("deviation"), 2]

    def test_uncorrelated_channel_flagged(self):
        rec = _structured_recording()
        x = rec.samples.copy()
        scale = float(np.std(x[7]))
        x[7] = np.random.default_rng(9).standard_normal(x.shape[1]) * scale
        verdict = detect_bad_channels(x, FS)
        assert verdict.any(axis=0)[7]

    def test_batched_correlation_matches_per_window_loop(self):
        rec = _structured_recording()
        x = rec.samples.copy()
        x[4] = 0.0
        x[7] = np.random.default_rng(9).standard_normal(x.shape[1]) * float(np.std(x[7]))
        x[9, 1000:1125] = 0.0  # flat in one window of 24, over the 1 % bar
        seg = preprocess._normalized_windows(x, round(FS))
        low = np.zeros(rec.n_channels, dtype=np.int64)
        for w in seg:
            r = np.abs(w @ w.T)
            np.fill_diagonal(r, -1.0)
            low += r.max(axis=1) < preprocess.CORRELATION_MIN
        want = low / len(seg) > preprocess.CORRELATION_BAD_WINDOW_FRAC
        verdict = detect_bad_channels(x, FS)
        assert want[[4, 7, 9]].all()
        assert np.array_equal(verdict[preprocess.REASONS.index("correlation")], want)

    def test_needs_four_usable_channels(self):
        rec = _structured_recording(n_channels=3)
        with pytest.raises(DataError, match="at least 4"):
            detect_bad_channels(rec.samples, FS)


class TestReferenceAndRepair:
    def test_reference_subtracts_good_channel_mean(self):
        rec = _structured_recording()
        x = rec.samples.copy()
        verdicts, detections = robust_average_reference(x, FS)
        assert detections >= 1
        good = _good_rows(verdicts[-1])
        want = rec.samples - rec.samples[good].mean(axis=0, keepdims=True)
        assert np.allclose(x, want, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_good_mean_equals_the_gathered_mean(self, seed):
        # the good rows summed in row order and divided once, read from a
        # view with padded rows, as the filter buffer hands the samples over
        rng = np.random.default_rng(seed)
        padded = rng.standard_normal((16, 3000)) * 10.0 ** rng.integers(-3, 4, (16, 1))
        x = padded[:, 100:-100]
        masks = [np.zeros(16, bool), np.arange(16) == seed, np.arange(16) != seed,
                 rng.random(16) < 0.5]
        for flagged in masks:
            want = x[~flagged].mean(axis=0, keepdims=True)
            got = preprocess._good_mean(x, flagged)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        with pytest.raises(DataError, match="all channels flagged bad"):
            preprocess._good_mean(x, np.ones(16, bool))

    @staticmethod
    def _scripted(monkeypatch, verdicts):
        calls = []

        def fake(x, fs):
            calls.append(x)
            return verdicts[len(calls) - 1]

        monkeypatch.setattr(preprocess, "detect_bad_channels", fake)
        return calls

    @staticmethod
    def _reference(rec):
        """Reference a copy of the samples; returns it, the verdicts and the
        report the chain would write for them."""
        x = rec.samples.copy()
        verdicts, detections = robust_average_reference(x, FS)
        return x, verdicts, PreprocessReport(rec.montage.names, verdicts, detections)

    @staticmethod
    def _named(report):
        return [{k: tuple(v) for k, v in it.items()} for it in report.to_dict()["bad_channels"]]

    def test_oscillation_settles_on_union(self, monkeypatch):
        rec = _structured_recording()
        a, b = {"F3": ("deviation",)}, {"P4": ("correlation",)}
        calls = self._scripted(monkeypatch, [_verdict(rec, v) for v in (a, b, a)])
        x, verdicts, report = self._reference(rec)
        union = {**a, **b}
        assert len(calls) == report.reference_iterations == 3
        assert self._named(report) == [a, b, a, union]
        assert np.array_equal(verdicts[-1], _verdict(rec, union))
        good = [i for i, n in enumerate(rec.montage.names) if n not in union]
        want = rec.samples - rec.samples[good].mean(axis=0, keepdims=True)
        assert np.allclose(x, want, atol=1e-12)

    @pytest.mark.parametrize("verdicts, union", [
        pytest.param(
            [{"F3": ("deviation",)}, {"P4": ("correlation",)}, {"F3": ("correlation",)}],
            {"F3": ("correlation",), "P4": ("correlation",)},
            id="latest-reasons-win",
        ),
        pytest.param(
            [{"F3": ("deviation",)}, {"F3": ("correlation",), "P4": ("deviation",)}, {}],
            {"F3": ("deviation",), "P4": ("deviation",)},
            id="earliest-reasons-otherwise",
        ),
    ])
    def test_union_reasons(self, monkeypatch, verdicts, union):
        # each third flagged set repeats one referenced against before the
        # second detection, so both scripts oscillate and settle on the union
        rec = _structured_recording()
        self._scripted(monkeypatch, [_verdict(rec, v) for v in verdicts])
        _, _, report = self._reference(rec)
        assert report.reference_iterations == 3
        assert self._named(report) == verdicts + [union]

    def test_iteration_cap_keeps_last_verdict(self, monkeypatch):
        rec = _structured_recording()
        verdicts = [{name: ("correlation",)} for name in ("F3", "F4", "P3", "P4")]
        calls = self._scripted(monkeypatch, [_verdict(rec, v) for v in verdicts + [{}]])
        x, settled, report = self._reference(rec)
        assert len(calls) == report.reference_iterations == preprocess.MAX_REFERENCE_ITERATIONS
        assert self._named(report) == verdicts
        assert np.array_equal(settled[-1], _verdict(rec, verdicts[-1]))
        good = [i for i, n in enumerate(rec.montage.names) if n != "P4"]
        want = rec.samples - rec.samples[good].mean(axis=0, keepdims=True)
        assert np.allclose(x, want, atol=1e-12)

    def test_interpolation_reconstructs_shared_signal(self):
        # all good channels carry the same waveform, so any convex
        # combination of them must reproduce it exactly
        rec = _structured_recording()
        shared = rec.samples[0]
        x = np.tile(shared, (rec.n_channels, 1))
        x[4] = 0.0
        out = x.copy()
        interpolate_channels(out, np.array([4]), rec.montage.positions)
        assert np.allclose(out[4], shared, atol=1e-9)
        for i in range(rec.n_channels):
            if i != 4:
                assert np.array_equal(out[i], x[i])

    def test_interpolation_weights_favor_near_channels(self):
        rec = _structured_recording()
        out = rec.samples.copy()
        interpolate_channels(out, np.array([3]), rec.montage.positions)
        # the repaired row is a convex blend: bounded by the source extremes
        lo = rec.samples.min(axis=0) - 1e-9
        hi = rec.samples.max(axis=0) + 1e-9
        assert np.all(out[3] >= lo)
        assert np.all(out[3] <= hi)

    def test_zscore_moments(self):
        rec = _structured_recording()
        x = rec.samples.copy()
        zscore_channels(x, rec.montage.names)
        assert np.allclose(x.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(x.std(axis=1), 1.0, atol=1e-12)

    def test_zscore_rejects_flat_channel(self):
        rec = _structured_recording()
        x = rec.samples.copy()
        x[0] = 3.0
        with pytest.raises(DataError, match=f"channel {rec.montage.names[0]} has zero variance"):
            zscore_channels(x, rec.montage.names)


class TestPreprocessSession:
    def test_full_chain_report(self):
        rec = _structured_recording()
        out, report = preprocess_session(rec, FilterSpec())
        d = report.to_dict()
        assert d["stages"] == ["highpass", "notch", "robust_reference", "interpolate", "zscore"]
        assert out.n_channels == rec.n_channels
        assert out.n_samples == rec.n_samples
        assert np.allclose(out.samples.mean(axis=1), 0.0, atol=1e-12)
        assert sorted(report.by_name(report.bad_channels[-1])) == d["interpolated"]

    def test_rogue_channel_repaired_end_to_end(self):
        rec = _structured_recording()
        x = rec.samples.copy()
        x[7] = np.random.default_rng(9).standard_normal(x.shape[1]) * float(
            np.std(x[7])
        )
        name = rec.montage.names[7]
        out, report = preprocess_session(rec.with_samples(x), FilterSpec())
        assert name in report.by_name(report.bad_channels[-1])
        assert name in report.to_dict()["interpolated"]
        # the repaired channel is rebuilt from neighbours and z-scored
        assert math.isclose(float(out.samples[7].std()), 1.0, rel_tol=1e-9)

    def test_report_round_trips_to_dict(self):
        rec = _structured_recording()
        _, report = preprocess_session(rec, FilterSpec())
        d = report.to_dict()
        assert d["stages"] == list(preprocess.STAGES)
        assert d["reference_iterations"] == report.reference_iterations
        assert isinstance(d["bad_channels"], list)

    def test_deterministic(self):
        rec = _structured_recording()
        a, _ = preprocess_session(rec, FilterSpec())
        b, _ = preprocess_session(rec, FilterSpec())
        assert np.array_equal(a.samples, b.samples)

    def test_working_set_at_most_two_and_a_half_recordings(self):
        # both filters run in one padded buffer whose interior the later
        # steps edit (~1.1x), beside one spectrum or one referenced copy
        # and a block of detection temporaries (~2.4x); the notch pass over
        # a high-passed copy read ~4.4x
        session, _ = generate_session(SynthConfig(duration_s=180.0, rng_seed=3))
        rec = session.eeg
        peak = peak_traced(lambda: preprocess_session(rec, FilterSpec()))
        assert peak <= 2.5 * rec.samples.nbytes


class TestSimulatedSessions:
    """Default simulated sessions: the clean motor channels carry the class
    tones, so nothing may be repaired unless a channel is actually dead."""

    @pytest.mark.parametrize("dead", [
        pytest.param(d, id=d or "clean") for d in (None, "C3", "O2")
    ])
    @pytest.mark.parametrize("seed", range(100, 108))
    def test_only_the_dead_channel_is_interpolated(self, seed, dead, request):
        if (seed, dead) == (107, "C3"):
            # The reference without C3 puts clean C4 at deviation z = -5.3
            # and the one without C3 and C4 does not, so the detections
            # cycle {C3} -> {C3, C4} -> {C3} and settle on the union.
            request.applymarker(pytest.mark.xfail(
                strict=True, reason="oscillation union also interpolates clean C4"
            ))
        session, _ = generate_session(SynthConfig(duration_s=180.0, rng_seed=seed))
        rec = session.eeg
        x = rec.samples.copy()
        if dead is not None:
            x[rec.montage.names.index(dead)] = 0.0
        _, report = preprocess_session(rec.with_samples(x), FilterSpec())
        assert report.to_dict()["interpolated"] == ([] if dead is None else [dead])

    #: The cases of the sweep below that also repair a clean motor channel.
    #: Each settles through the oscillation rule; (107, "C3") is the strict
    #: xfail above.
    CLEAN_REPAIRS = [
        (103, "F8", ["C3"]), (103, "T4", ["C3"]), (103, "T6", ["C3"]),
        (107, "C3", ["C4"]), (111, "T4", ["C3"]), (116, "F3", ["C3"]),
    ]

    def test_sweep_repairs_a_clean_channel_in_no_more_cases(self):
        """Seeds 100-119, each clean and with each of its 16 channels dead:
        340 cases. Every dead channel is repaired, and no more cases than
        the known ones also repair a clean channel."""
        clean_repairs, unrepaired = [], []
        for seed in range(100, 120):
            session, _ = generate_session(SynthConfig(duration_s=180.0, rng_seed=seed))
            rec = session.eeg
            for dead in (None, *rec.montage.names):
                x = rec.samples.copy()
                if dead is not None:
                    x[rec.montage.names.index(dead)] = 0.0
                _, report = preprocess_session(rec.with_samples(x), FilterSpec())
                repaired = report.to_dict()["interpolated"]
                if dead is not None and dead not in repaired:
                    unrepaired.append((seed, dead, repaired))
                if set(repaired) - {dead}:
                    clean_repairs.append((seed, dead, sorted(set(repaired) - {dead})))
        assert unrepaired == []
        assert len(clean_repairs) <= len(self.CLEAN_REPAIRS), clean_repairs


class TestGeometryHelpers:
    @staticmethod
    def _repair_weights(angles_deg):
        """Weights the repair of a channel at (1, 0, 0) gives good channels
        on the equator at the given angles: each good row is one unit pulse."""
        theta = np.radians(angles_deg)
        pos = [(1.0, 0.0, 0.0)] + [(math.cos(t), math.sin(t), 0.0) for t in theta]
        n = len(theta)
        x = np.vstack([np.zeros(n), np.eye(n)])
        interpolate_channels(x, np.array([0]), np.array(pos))
        return x[0]

    def test_great_circle_distance(self):
        # weights are 1/d^2 over the 3 nearest by arc length (not chord
        # length), normalised; the 150 degree channel is not among them
        w = self._repair_weights([60.0, 150.0, 30.0, 90.0])
        arc = np.array([math.pi / 3, math.pi / 6, math.pi / 2])
        want = 1.0 / arc ** 2 / np.sum(1.0 / arc ** 2)
        assert np.allclose(w, [want[0], 0.0, want[1], want[2]], rtol=1e-12, atol=0)
        # a good channel at the bad one's position takes all the weight
        assert np.array_equal(self._repair_weights([45.0, 0.0, 90.0]), [0.0, 1.0, 0.0])
