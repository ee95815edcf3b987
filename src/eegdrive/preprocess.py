"""Offline cleaning: filtering, robust referencing, interpolation, scaling.

The chain applied by ``preprocess_session`` is fixed:

1. zero-phase Butterworth high-pass,
2. zero-phase IIR notch at the mains frequency,
3. robust average reference with iterative bad-channel exclusion,
4. inverse-distance interpolation of the remaining bad channels,
5. per-channel z-scoring over the whole recording.

A bad-channel verdict is a (2, C) boolean array over the montage: row k
flags the channels that fail criterion ``REASONS[k]``. Detection, the
reference loop and the report share it; channel names appear only in the
report's JSON and in the list handed to the interpolation.

Filters are second-order sections in closed form (a bilinear-transformed
Butterworth prototype and the one-biquad notch) and are applied forward and
backward as ``scipy.signal.sosfiltfilt`` does: an odd extension of 3 x ntaps
samples at each end, and each pass started from the steady state of its
first sample. Each pass is one rfft/irfft product with the cascade's
frequency response, with numpy alone:

- the steady state comes by linearity: the pass is the response from rest
  to x - x[0], plus x[0] times the DC gain;
- the response from rest is exact to float64 rounding once the FFT is
  longer than the signal by the settle length, the number of samples the
  slowest pole takes to decay below eps, because the circular product
  then wraps only that decayed tail onto the output;
- the response is evaluated about z = 1, which keeps poles close to DC
  (a 0.1 Hz corner) accurate where the coefficient sums nearly cancel.

The tests hold the designs and the filter to scipy's within 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .errors import DataError
from .session import EegRecording

# Fractions of windows that must misbehave before a channel is flagged.
CORRELATION_BAD_WINDOW_FRAC = 0.01
# Bad-channel detections the robust reference runs before it stops.
MAX_REFERENCE_ITERATIONS = 4
# Detection criteria, in the row order of a (2, C) verdict.
REASONS = ("deviation", "correlation")

_MAD_SCALE = 1.4826  # consistent estimator of sigma for normal data


@dataclass(frozen=True)
class FilterSpec:
    highpass_hz: float = 1.0
    highpass_order: int = 4
    notch_hz: float = 50.0
    notch_q: float = 30.0
    edge_trim_s: float = 1.0  # filter transient margin excluded from windowing

    def __post_init__(self):
        if not (self.highpass_hz > 0):
            raise ValueError("highpass_hz must be positive")
        if self.highpass_order < 1:
            raise ValueError("highpass_order must be >= 1")
        if not (self.notch_hz > self.highpass_hz):
            raise ValueError("notch_hz must exceed highpass_hz")
        if not (self.notch_q > 0):
            raise ValueError("notch_q must be positive")
        if self.edge_trim_s < 0:
            raise ValueError("edge_trim_s must be >= 0")


def design_highpass(spec: FilterSpec, fs: float) -> np.ndarray:
    """Butterworth high-pass as second-order sections.

    The analog prototype's poles are mapped low-pass to high-pass at the
    pre-warped cutoff and through the bilinear transform; every zero lands
    on z = 1. Sections are ordered by pole radius, the one closest to the
    unit circle last, with the gain on the first, as ``scipy.signal.butter``
    orders them.
    """
    if spec.highpass_hz >= fs / 2:
        raise ValueError(
            f"high-pass cutoff {spec.highpass_hz} Hz is not below the "
            f"Nyquist frequency {fs / 2} Hz"
        )
    order = spec.highpass_order
    prototype = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2) / (2 * order))
    warped = 4.0 * math.tan(math.pi * spec.highpass_hz / fs)  # bilinear at fs = 2
    analog = warped / prototype
    gain = float(np.prod(4.0 / (4.0 - analog)).real)
    poles = (4.0 + analog) / (4.0 - analog)
    poles = poles[poles.imag >= 0]  # one of each conjugate pair, and the real pole
    sos = []
    for p in poles[np.argsort(np.abs(poles), kind="stable")]:
        if p.imag > 0:
            sos.append([1.0, -2.0, 1.0, 1.0, -2.0 * p.real, p.real ** 2 + p.imag ** 2])
        else:
            sos.append([1.0, -1.0, 0.0, 1.0, -p.real, 0.0])
    sos = np.array(sos)
    sos[0, :3] *= gain
    return sos


def design_notch(spec: FilterSpec, fs: float) -> np.ndarray:
    """Single-biquad notch at the mains frequency, as second-order sections.

    The -3 dB bandwidth is notch_hz / notch_q, as in ``scipy.signal.iirnotch``.
    """
    if spec.notch_hz >= fs / 2:
        raise ValueError(
            f"notch frequency {spec.notch_hz} Hz is not below the "
            f"Nyquist frequency {fs / 2} Hz"
        )
    w0 = 2.0 * math.pi * spec.notch_hz / fs
    gain = 1.0 / (1.0 + math.tan(w0 / spec.notch_q / 2.0))
    cos = math.cos(w0)
    return np.array([[gain, -2.0 * gain * cos, gain, 1.0, -2.0 * gain * cos, 2.0 * gain - 1.0]])


def _fft_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c that is >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _settle_length(poles: np.ndarray) -> int:
    """Samples until the slowest pole's impulse response r**k falls below eps."""
    r = float(np.max(np.abs(poles)))
    if r == 0.0:
        return 0
    return math.ceil(math.log(np.finfo(np.float64).eps) / math.log(r))


def _filter_from_rest(
    x: np.ndarray, response: Callable[[np.ndarray], np.ndarray], settle: int
) -> np.ndarray:
    """Apply a stable filter along the last axis from zero initial state.

    ``response(d)`` is the filter's frequency response at z**-1 = 1 + d,
    given ``d`` on the rfft grid; the offset from 1 keeps a response with
    poles close to DC accurate there. The product is circular, so input
    more than ``nfft - n`` samples back wraps round onto the output; an FFT
    length of at least n + ``settle``, the filter's settle length, leaves
    that below float64 rounding.
    """
    n = x.shape[-1]
    nfft = _fft_length(n + settle)
    half = np.pi * np.arange(nfft // 2 + 1) / nfft
    d = -2.0 * np.sin(half) ** 2 - 1j * np.sin(2.0 * half)  # exp(-2j * half) - 1
    spectrum = np.fft.rfft(x, nfft)
    spectrum *= response(d)
    return np.fft.irfft(spectrum, nfft)[..., :n]


def _sos_response(sos: np.ndarray, d: np.ndarray | float) -> np.ndarray | float:
    """Frequency response of a cascade of second-order sections at z**-1 = 1 + d.

    Each section's polynomials are expanded about z**-1 = 1, so the sums
    that nearly cancel for a pole close to DC are taken once, exactly
    rounded, rather than at every frequency.
    """
    h = 1.0
    for b0, b1, b2, a0, a1, a2 in sos:
        num = math.fsum((b0, b1, b2)) + d * (math.fsum((b1, 2.0 * b2)) + d * b2)
        den = math.fsum((a0, a1, a2)) + d * (math.fsum((a1, 2.0 * a2)) + d * a2)
        h = h * num / den
    return h


def _steady_pass(x: np.ndarray, sos: np.ndarray, settle: int) -> np.ndarray:
    """One causal pass started from the steady state of x's first sample.

    By linearity, that is the pass from rest over x - x[0] plus the steady
    response to a constant x[0], which is x[0] times the DC gain.
    """
    x0 = x[..., :1]
    y = _filter_from_rest(x - x0, partial(_sos_response, sos), settle)
    y += _sos_response(sos, 0.0) * x0
    return y


def filter_zero_phase(x: np.ndarray, sos: np.ndarray) -> np.ndarray:
    """Forward-backward application along the last axis: zero group delay.

    Matches ``scipy.signal.sosfiltfilt(sos, x, axis=-1)`` to float64
    rounding: the signal is padded by an odd extension of 3 x ntaps samples
    at each end, and each pass starts from the steady state of its first
    sample.
    """
    x = np.asarray(x, dtype=np.float64)
    ntaps = 2 * len(sos) + 1 - min(int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum()))
    edge = 3 * ntaps
    n = x.shape[-1]
    if n <= edge:
        raise DataError(
            f"signal of length {n} too short for zero-phase filtering with "
            f"{len(sos)} second-order sections: needs more than {edge} samples"
        )
    ext = np.concatenate(
        [
            2.0 * x[..., :1] - x[..., edge:0:-1],
            x,
            2.0 * x[..., -1:] - x[..., -2 : -edge - 2 : -1],
        ],
        axis=-1,
    )
    settle = _settle_length(np.concatenate([np.roots(a) for a in sos[:, 3:]]))
    y = _steady_pass(ext, sos, settle)
    y = _steady_pass(y[..., ::-1], sos, settle)[..., ::-1]
    return y[..., edge:-edge]


# --------------------------------------------------------------------------
# Bad-channel detection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BadChannelCriteria:
    deviation_z: float = 5.0
    correlation_min: float = 0.4
    correlation_window_s: float = 1.0

    def __post_init__(self):
        if not (self.deviation_z > 0):
            raise ValueError("deviation_z must be positive")
        if not (0 < self.correlation_min < 1):
            raise ValueError("correlation_min must lie in (0, 1)")
        if not (self.correlation_window_s > 0):
            raise ValueError("correlation_window_s must be positive")


def _robust_std(x: np.ndarray) -> np.ndarray:
    """MAD-based spread per row."""
    med = np.median(x, axis=-1, keepdims=True)
    return _MAD_SCALE * np.median(np.abs(x - med), axis=-1)


def _normalized_windows(x: np.ndarray, win: int) -> np.ndarray:
    """Reshape (C, T) into (n_win, C, win) rows normalised to zero mean, unit norm.

    Zero-variance rows come back as all zeros, so their correlation with
    anything is 0 by convention rather than NaN.
    """
    n_ch, t = x.shape
    n_win = t // win
    seg = x[:, : n_win * win].reshape(n_ch, n_win, win).transpose(1, 0, 2).copy()
    seg -= seg.mean(axis=2, keepdims=True)
    norm = np.linalg.norm(seg, axis=2, keepdims=True)
    np.divide(seg, norm, out=seg, where=norm > 0)
    return seg


def detect_bad_channels(rec: EegRecording, criteria: BadChannelCriteria) -> np.ndarray:
    """Flag channels by amplitude deviation and flat correlation (PREP).

    * deviation: the robust z-score of the channel's MAD amplitude across
      channels exceeds ``deviation_z`` in magnitude;
    * correlation: in more than 1% of windows the channel's best absolute
      correlation with any other channel falls below ``correlation_min``.

    Returns the (2, C) verdict: row k flags the channels that fail
    criterion ``REASONS[k]``.
    """
    x = rec.samples
    n_ch, n_samp = x.shape
    if n_ch < 4:
        raise DataError(
            f"only {n_ch} channels, need at least 4 for bad-channel detection"
        )
    verdict = np.zeros((len(REASONS), n_ch), dtype=bool)

    # Deviation: robust z of per-channel robust amplitude.
    amp = _robust_std(x)
    med = np.median(amp)
    denom = _MAD_SCALE * np.median(np.abs(amp - med))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(amp == med, 0.0, (amp - med) / denom) if denom == 0 else (amp - med) / denom
    verdict[0] = np.abs(z) > criteria.deviation_z

    # Correlation: windowed best absolute correlation against the other channels.
    win = max(2, round(criteria.correlation_window_s * rec.sample_rate_hz))
    if n_samp >= win:
        seg = _normalized_windows(x, win)  # (n_win, C, win)
        r = seg @ seg.transpose(0, 2, 1)  # (n_win, C, C)
        np.abs(r, out=r)
        r[:, np.eye(n_ch, dtype=bool)] = -1.0
        low_counts = (r.max(axis=2) < criteria.correlation_min).sum(axis=0)
        verdict[1] = low_counts / seg.shape[0] > CORRELATION_BAD_WINDOW_FRAC

    return verdict


# --------------------------------------------------------------------------
# Referencing, interpolation, scaling
# --------------------------------------------------------------------------


@dataclass
class PreprocessReport:
    """What the cleaning chain did: stages, one verdict per detection, repairs."""

    names: tuple[str, ...]
    stages: list[str] = field(default_factory=list)
    bad_channels: list[np.ndarray] = field(default_factory=list)
    reference_iterations: int = 0
    interpolated: tuple[str, ...] = ()

    def by_name(self, verdict: np.ndarray) -> dict[str, list[str]]:
        """{channel name: [reasons]} for the channels a verdict flags."""
        return {
            self.names[i]: [REASONS[k] for k in np.flatnonzero(verdict[:, i])]
            for i in np.flatnonzero(verdict.any(axis=0))
        }

    def to_dict(self) -> dict:
        return {
            "stages": list(self.stages),
            "bad_channels": [self.by_name(v) for v in self.bad_channels],
            "reference_iterations": self.reference_iterations,
            "interpolated": list(self.interpolated),
        }


def _reference(x: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """Subtract the mean of the channels not flagged."""
    if flagged.all():
        raise DataError("all channels flagged bad; cannot build a reference")
    return x - x[~flagged].mean(axis=0, keepdims=True)


def robust_average_reference(
    rec: EegRecording,
    criteria: BadChannelCriteria,
) -> tuple[EegRecording, PreprocessReport]:
    """Average-reference the recording using only channels that test clean.

    Iterates {subtract the mean of the currently-good channels, re-detect}
    until the flagged set repeats. A newly seen set continues the loop (up
    to ``MAX_REFERENCE_ITERATIONS`` detections); revisiting an earlier,
    non-adjacent set is an oscillation and resolves to the union of
    everything seen. In the union a channel keeps the reasons of the latest
    verdict if that flagged it, else those of the earliest verdict that did.
    """
    report = PreprocessReport(names=rec.montage.names)
    x = rec.samples
    flags = [np.zeros(rec.n_channels, dtype=bool)]  # flagged set before each detection
    while report.reference_iterations < MAX_REFERENCE_ITERATIONS:
        verdict = detect_bad_channels(rec.with_samples(_reference(x, flags[-1])), criteria)
        report.reference_iterations += 1
        report.bad_channels.append(verdict)
        flagged = verdict.any(axis=0)
        if np.array_equal(flagged, flags[-1]):
            break
        if any(np.array_equal(flagged, earlier) for earlier in flags[:-1]):
            # oscillation: settle on the union, reported last
            union = verdict.copy()
            for earlier in report.bad_channels:
                missing = earlier.any(axis=0) & ~union.any(axis=0)
                union[:, missing] = earlier[:, missing]
            if not np.array_equal(union, verdict):
                report.bad_channels.append(union)
            break
        flags.append(flagged)
    # the last entry is the verdict the loop settled on
    return rec.with_samples(_reference(x, report.bad_channels[-1].any(axis=0))), report


def interpolate_channels(rec: EegRecording, bad: Iterable[str]) -> EegRecording:
    """Replace each bad channel by an inverse-distance blend of good ones.

    Each bad channel becomes the convex combination of its 3 nearest good
    channels (great-circle distance on the unit sphere, weights 1/d^2); a
    good channel at the same position takes all the weight.
    """
    bad = set(bad)
    names, positions = rec.montage.names, rec.montage.positions
    unknown = bad - set(names)
    if unknown:
        raise DataError(f"cannot interpolate unknown channels {sorted(unknown)}")
    is_bad = np.array([name in bad for name in names])
    good_idx = np.flatnonzero(~is_bad)
    if is_bad.any() and len(good_idx) < 3:
        raise DataError(
            f"only {len(good_idx)} good channels left; interpolation needs 3"
        )
    x = rec.samples.copy()
    good_pos = positions[good_idx]
    for i in np.flatnonzero(is_bad):
        dist = np.arccos(np.clip(good_pos @ positions[i], -1.0, 1.0))
        near = np.argsort(dist, kind="stable")[:3]
        if dist[near[0]] == 0.0:
            w = np.zeros(len(near))
            w[0] = 1.0
        else:
            inv = 1.0 / dist[near] ** 2
            w = inv / inv.sum()
        x[i] = w @ rec.samples[good_idx[near]]
    return rec.with_samples(x)


def zscore_channels(rec: EegRecording) -> EegRecording:
    """Standardise each channel to zero mean, unit population variance."""
    x = rec.samples
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)  # 1/N convention
    flat = np.nonzero(var[:, 0] == 0)[0]
    if len(flat):
        raise DataError(
            f"channel {rec.montage.names[int(flat[0])]} has zero variance; "
            "cannot z-score"
        )
    return rec.with_samples((x - mean) / np.sqrt(var))


def preprocess_session(
    rec: EegRecording,
    spec: FilterSpec,
    criteria: BadChannelCriteria,
) -> tuple[EegRecording, PreprocessReport]:
    """Run the full cleaning chain; returns the cleaned recording and report."""
    fs = rec.sample_rate_hz
    x = filter_zero_phase(rec.samples, design_highpass(spec, fs))
    x = filter_zero_phase(x, design_notch(spec, fs))
    filtered = rec.with_samples(x)
    referenced, report = robust_average_reference(filtered, criteria)
    bad = tuple(sorted(report.by_name(report.bad_channels[-1])))
    out = zscore_channels(interpolate_channels(referenced, bad))
    report.stages = ["highpass", "notch", "robust_reference", "interpolate", "zscore"]
    report.interpolated = bad
    return out, report
