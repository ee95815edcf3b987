"""Offline cleaning: filtering, robust referencing, interpolation, scaling.

The chain applied by ``preprocess_session`` is fixed. Both filters run in
one padded buffer, and steps 3-5 edit the (C, T) view of that buffer that
holds the filtered samples, which is wrapped in a recording once, at the
end:

1. zero-phase Butterworth high-pass,
2. zero-phase IIR notch at the mains frequency,
3. robust average reference with iterative bad-channel exclusion,
4. inverse-distance interpolation of the remaining bad channels,
5. per-channel z-scoring over the whole recording.

A bad-channel verdict is a (2, C) boolean array over the montage: row k
flags the channels that fail criterion ``REASONS[k]``. Detection, the
reference loop, the repair and the report share it; channel names appear
only in the report's JSON.

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
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import median
from .session import EegRecording

# Fractions of windows that must misbehave before a channel is flagged.
CORRELATION_BAD_WINDOW_FRAC = 0.01
# A channel's best absolute correlation with any other below this is low.
CORRELATION_MIN = 0.4
# Length of the windows the correlation criterion scores.
CORRELATION_WINDOW_S = 1.0
# Rows that each filter pass transforms at once; the spectrum buffer holds
# this many rows.
FILTER_ROWS_PER_BLOCK = 4
# Correlation windows whose normalised copies detection holds at once.
CORRELATION_WINDOWS_PER_BLOCK = 16
# Robust z-score of a channel's amplitude beyond which it deviates.
DEVIATION_Z = 5.0
# Bad-channel detections the robust reference runs before it stops.
MAX_REFERENCE_ITERATIONS = 4
# Detection criteria, in the row order of a (2, C) verdict.
REASONS = ("deviation", "correlation")
# The cleaning chain, in the order preprocess_session applies it.
STAGES = ("highpass", "notch", "robust_reference", "interpolate", "zscore")

_MAD_SCALE = 1.4826  # consistent estimator of sigma for normal data


@dataclass(frozen=True)
class FilterSpec:
    highpass_hz: float = 1.0
    highpass_order: int = 4
    notch_hz: float = 50.0
    notch_q: float = 30.0

    def __post_init__(self):
        if not (self.highpass_hz > 0):
            raise ValueError("highpass_hz must be positive")
        if self.highpass_order < 1:
            raise ValueError("highpass_order must be >= 1")
        if not (self.notch_hz > self.highpass_hz):
            raise ValueError("notch_hz must exceed highpass_hz")
        if not (self.notch_q > 0):
            raise ValueError("notch_q must be positive")


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


def _rfft_grid(nfft: int) -> np.ndarray:
    """d = z**-1 - 1 at the frequencies of an rfft of length nfft."""
    half = np.pi * np.arange(nfft // 2 + 1) / nfft
    return -2.0 * np.sin(half) ** 2 - 1j * np.sin(2.0 * half)  # exp(-2j * half) - 1


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


def filter_zero_phase(x: np.ndarray, *cascades: np.ndarray) -> np.ndarray:
    """Forward-backward application of each cascade of second-order
    sections in turn, along the last axis: zero group delay.

    Each cascade matches ``scipy.signal.sosfiltfilt(sos, x, axis=-1)`` to
    float64 rounding: the signal is padded by an odd extension of
    3 x ntaps samples at each end, and each pass starts from the steady
    state of its first sample.

    Every pass runs in place in one zero-padded float64 buffer. Rows go
    through all cascades ``FILTER_ROWS_PER_BLOCK`` at a time, so the
    spectrum buffer holds one block's rows. The signal keeps its columns in
    the buffer from cascade to cascade, and the result is the view of the
    buffer that holds it.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    plans = []  # (edge, nfft, response, dc gain) per cascade, before the buffer
    for sos in cascades:
        ntaps = 2 * len(sos) + 1 - min(int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum()))
        edge = 3 * ntaps
        if n <= edge:
            raise DataError(
                f"signal of length {n} too short for zero-phase filtering with "
                f"{len(sos)} second-order sections: needs more than {edge} samples"
            )
        settle = _settle_length(np.concatenate([np.roots(a) for a in sos[:, 3:]]))
        # the circular product's wrap-round decays below eps
        nfft = _fft_length(n + 2 * edge + settle)
        plans.append((edge, nfft, _sos_response(sos, _rfft_grid(nfft)), _sos_response(sos, 0.0)))
    inner = max(edge for edge, *_ in plans)  # the signal's first column
    width = max(inner - edge + nfft for edge, nfft, *_ in plans)
    buf = np.zeros(x.shape[:-1] + (width,))
    out = buf[..., inner : inner + n]
    out[...] = x
    rows = buf.reshape(-1, width)
    spectrum = np.empty((min(len(rows), FILTER_ROWS_PER_BLOCK), width // 2 + 1),
                        dtype=np.complex128)
    for lo in range(0, len(rows), FILTER_ROWS_PER_BLOCK):
        block = rows[lo : lo + FILTER_ROWS_PER_BLOCK]
        signal = block[:, inner : inner + n]
        for edge, nfft, response, dc_gain in plans:
            m = n + 2 * edge
            padded = block[:, inner - edge : inner - edge + nfft]
            y = padded[:, :m]  # the odd extension; the rest of padded is zeros
            np.subtract(2.0 * signal[:, :1], signal[:, edge:0:-1], out=y[:, :edge])
            np.subtract(2.0 * signal[:, -1:], signal[:, -2 : -edge - 2 : -1],
                        out=y[:, edge + n :])
            padded[:, m:] = 0.0
            spec = spectrum[: len(block), : nfft // 2 + 1]
            for _ in range(2):
                # A pass started from the steady state of the first sample
                # is, by linearity, the pass from rest over y - y[0] plus
                # y[0] times the DC gain. Each pass ends reversed, so the
                # second runs backward and leaves y forward again.
                y0 = y[:, :1].copy()
                y -= y0
                np.fft.rfft(padded, out=spec)
                spec *= response
                np.fft.irfft(spec, nfft, out=padded)
                padded[:, m:] = 0.0
                y += dc_gain * y0
                for row in y:  # a row's reversed copy at a time
                    row[:] = row[::-1]
    return out


# --------------------------------------------------------------------------
# Bad-channel detection
# --------------------------------------------------------------------------


def _robust_std(x: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """MAD-based spread per row of ``x - reference``, one row's deviations
    at a time."""
    spread = np.empty(len(x))
    for i, row in enumerate(x):
        dev = row - reference
        dev -= median(dev)
        spread[i] = median(np.abs(dev, out=dev))
    return _MAD_SCALE * spread


def _normalized_windows(x: np.ndarray, win: int,
                        reference: np.ndarray | float = 0.0) -> np.ndarray:
    """Reshape (C, T) ``x - reference``, for a (T,) ``reference``, into
    (n_win, C, win) rows normalised to zero mean, unit norm.

    Zero-variance rows come back as all zeros, so their correlation with
    anything is 0 by convention rather than NaN.
    """
    n_ch, t = x.shape
    n_win = t // win
    seg = x[:, : n_win * win].reshape(n_ch, n_win, win).transpose(1, 0, 2).copy()
    seg -= np.broadcast_to(reference, (t,))[: n_win * win].reshape(n_win, 1, win)
    seg -= seg.mean(axis=2, keepdims=True)
    norm = np.linalg.norm(seg, axis=2, keepdims=True)
    np.divide(seg, norm, out=seg, where=norm > 0)
    return seg


def detect_bad_channels(x: np.ndarray, fs: float,
                        reference: np.ndarray | float = 0.0) -> np.ndarray:
    """Flag channels by amplitude deviation and flat correlation (PREP).

    * deviation: the robust z-score of the channel's MAD amplitude across
      channels exceeds ``DEVIATION_Z`` in magnitude;
    * correlation: in more than 1% of ``CORRELATION_WINDOW_S`` windows the
      channel's best absolute correlation with any other channel falls
      below ``CORRELATION_MIN``.

    Returns the (2, C) verdict over the rows of the (C, T) array
    ``x - reference``, for a (1, T) ``reference`` row: row k flags the
    channels that fail criterion ``REASONS[k]``. The referenced samples
    are taken one channel at a time for the deviations and
    ``CORRELATION_WINDOWS_PER_BLOCK`` windows at a time for the
    correlations, so no temporary array is the size of ``x``.
    """
    n_ch, n_samp = x.shape
    reference = np.broadcast_to(reference, (1, n_samp))[0]
    if n_ch < 4:
        raise DataError(
            f"only {n_ch} channels, need at least 4 for bad-channel detection"
        )
    verdict = np.zeros((len(REASONS), n_ch), dtype=bool)

    # Deviation: robust z of per-channel robust amplitude.
    amp = _robust_std(x, reference)
    med = median(amp)
    denom = _MAD_SCALE * median(np.abs(amp - med))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(amp == med, 0.0, (amp - med) / denom) if denom == 0 else (amp - med) / denom
    verdict[0] = np.abs(z) > DEVIATION_Z

    # Correlation: windowed best absolute correlation against the other channels.
    win = max(2, round(CORRELATION_WINDOW_S * fs))
    n_win = n_samp // win
    if n_win:
        low_counts = np.zeros(n_ch, dtype=np.int64)
        block = CORRELATION_WINDOWS_PER_BLOCK * win
        for lo in range(0, n_win * win, block):
            seg = _normalized_windows(x[:, lo : lo + block], win,
                                      reference[lo : lo + block])  # (n, C, win)
            r = seg @ seg.transpose(0, 2, 1)  # (n, C, C)
            np.abs(r, out=r)
            r[:, np.eye(n_ch, dtype=bool)] = -1.0
            low_counts += (r.max(axis=2) < CORRELATION_MIN).sum(axis=0)
        verdict[1] = low_counts / n_win > CORRELATION_BAD_WINDOW_FRAC

    return verdict


# --------------------------------------------------------------------------
# Referencing, interpolation, scaling
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PreprocessReport:
    """What the cleaning chain found: one verdict per detection, the settled one last."""

    names: tuple[str, ...]
    bad_channels: list[np.ndarray]
    reference_iterations: int

    def by_name(self, verdict: np.ndarray) -> dict[str, list[str]]:
        """{channel name: [reasons]} for the channels a verdict flags."""
        return {
            self.names[i]: [REASONS[k] for k in np.flatnonzero(verdict[:, i])]
            for i in np.flatnonzero(verdict.any(axis=0))
        }

    def to_dict(self) -> dict:
        return {
            "stages": list(STAGES),
            "bad_channels": [self.by_name(v) for v in self.bad_channels],
            "reference_iterations": self.reference_iterations,
            "interpolated": sorted(self.by_name(self.bad_channels[-1])),
        }


def _good_mean(x: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """The (1, T) mean of the channels not flagged, bit for bit that of
    the gathered good rows: a copy of the first good row, the others added
    in row order, divided once."""
    good = np.flatnonzero(~flagged)
    if not len(good):
        raise DataError("all channels flagged bad; cannot build a reference")
    total = x[good[:1]]
    for i in good[1:]:
        total += x[i]
    total /= len(good)
    return total


def robust_average_reference(x: np.ndarray, fs: float) -> tuple[list[np.ndarray], int]:
    """Average-reference ``x`` in place, using only channels that test clean.

    Iterates {subtract the mean of the currently-good channels, re-detect}
    until the flagged set repeats. A newly seen set continues the loop (up
    to ``MAX_REFERENCE_ITERATIONS`` detections); revisiting an earlier,
    non-adjacent set is an oscillation and resolves to the union of
    everything seen. In the union a channel keeps the reasons of the latest
    verdict if that flagged it, else those of the earliest verdict that did.
    Returns the verdicts, the settled one last, and the number of detections.
    """
    verdicts: list[np.ndarray] = []
    detections = 0
    while detections < MAX_REFERENCE_ITERATIONS:
        # the flagged sets referenced against so far, the current one last
        seen = [np.zeros(len(x), dtype=bool)] + [v.any(axis=0) for v in verdicts]
        verdict = detect_bad_channels(x, fs, _good_mean(x, seen[-1]))
        detections += 1
        verdicts.append(verdict)
        flagged = verdict.any(axis=0)
        if np.array_equal(flagged, seen[-1]):
            break
        if any(np.array_equal(flagged, earlier) for earlier in seen[:-1]):
            # oscillation: settle on the union, reported last
            union = verdict.copy()
            for earlier in verdicts:
                missing = earlier.any(axis=0) & ~union.any(axis=0)
                union[:, missing] = earlier[:, missing]
            if not np.array_equal(union, verdict):
                verdicts.append(union)
            break
    x -= _good_mean(x, verdicts[-1].any(axis=0))
    return verdicts, detections


def interpolate_channels(x: np.ndarray, bad: np.ndarray, positions: np.ndarray) -> None:
    """Overwrite the rows ``bad`` of ``x`` by inverse-distance blends of good rows.

    Each bad channel becomes the convex combination of its 3 nearest good
    channels (great-circle distance between the unit vectors ``positions``,
    weights 1/d^2); a good channel at the same position takes all the weight.
    """
    good = np.ones(len(x), dtype=bool)
    good[bad] = False
    good_idx = np.flatnonzero(good)
    if len(bad) and len(good_idx) < 3:
        raise DataError(
            f"only {len(good_idx)} good channels left; interpolation needs 3"
        )
    good_pos = positions[good_idx]
    for i in bad:
        dist = np.arccos(np.clip(good_pos @ positions[i], -1.0, 1.0))
        near = np.argsort(dist, kind="stable")[:3]
        if dist[near[0]] == 0.0:
            w = np.zeros(len(near))
            w[0] = 1.0
        else:
            inv = 1.0 / dist[near] ** 2
            w = inv / inv.sum()
        x[i] = w @ x[good_idx[near]]


def zscore_channels(x: np.ndarray, names: tuple[str, ...]) -> None:
    """Standardise each row of ``x`` in place to zero mean, unit population
    variance, one row's deviations at a time."""
    moments = [(row.mean(), row.var()) for row in x]  # 1/N convention
    flat = [i for i, (_, var) in enumerate(moments) if var == 0]
    if flat:
        raise DataError(f"channel {names[flat[0]]} has zero variance; cannot z-score")
    for row, (mean, var) in zip(x, moments):
        row -= mean
        row /= np.sqrt(var)


def preprocess_session(
    rec: EegRecording, spec: FilterSpec
) -> tuple[EegRecording, PreprocessReport]:
    """Run the full cleaning chain; returns the cleaned recording and report.

    ``rec`` is let go as soon as the filter returns, so a caller that
    passes its only reference frees the raw samples there."""
    fs, montage, timestamps = rec.sample_rate_hz, rec.montage, rec.timestamps
    x = filter_zero_phase(rec.samples, design_highpass(spec, fs), design_notch(spec, fs))
    del rec
    verdicts, detections = robust_average_reference(x, fs)
    interpolate_channels(x, np.flatnonzero(verdicts[-1].any(axis=0)), montage.positions)
    zscore_channels(x, montage.names)
    return (EegRecording(montage, timestamps, x, fs),
            PreprocessReport(montage.names, verdicts, detections))
