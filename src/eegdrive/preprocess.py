"""Offline cleaning: filtering, robust referencing, interpolation, scaling.

The chain applied by ``preprocess_session`` is fixed:

1. zero-phase Butterworth high-pass,
2. zero-phase IIR notch at the mains frequency,
3. robust average reference with iterative bad-channel exclusion,
4. inverse-distance interpolation of the remaining bad channels,
5. per-channel z-scoring over the whole recording.

Filters are designed and applied with scipy.signal (second-order sections,
forward-backward), which keeps them numerically stable; the tests pin the
magnitude responses against closed-form values. Everything above the filter
primitives is implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy import signal

from .errors import DataError
from .session import EegRecording

# Fractions of windows that must misbehave before a channel is flagged.
CORRELATION_BAD_WINDOW_FRAC = 0.01
# Bad-channel detections the robust reference runs before it stops.
MAX_REFERENCE_ITERATIONS = 4

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
    """Butterworth high-pass as second-order sections."""
    if spec.highpass_hz >= fs / 2:
        raise ValueError(
            f"high-pass cutoff {spec.highpass_hz} Hz is not below the "
            f"Nyquist frequency {fs / 2} Hz"
        )
    return signal.butter(
        spec.highpass_order, spec.highpass_hz, btype="highpass", fs=fs, output="sos"
    )


def design_notch(spec: FilterSpec, fs: float) -> np.ndarray:
    """Single-biquad notch at the mains frequency, as second-order sections."""
    if spec.notch_hz >= fs / 2:
        raise ValueError(
            f"notch frequency {spec.notch_hz} Hz is not below the "
            f"Nyquist frequency {fs / 2} Hz"
        )
    b, a = signal.iirnotch(spec.notch_hz, spec.notch_q, fs=fs)
    return signal.tf2sos(b, a)


def filter_zero_phase(x: np.ndarray, sos: np.ndarray) -> np.ndarray:
    """Forward-backward application along the last axis: zero group delay."""
    order = 2 * len(sos)
    if x.shape[-1] <= 3 * order:
        raise DataError(
            f"signal of length {x.shape[-1]} too short for zero-phase "
            f"filtering at order {order}"
        )
    return signal.sosfiltfilt(sos, x, axis=-1)


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


def great_circle_distance(a, b) -> float:
    """Arc length between two unit vectors."""
    dot = float(np.clip(np.dot(a, b), -1.0, 1.0))
    return float(np.arccos(dot))


def _idw_weights(target_pos, candidate_pos: np.ndarray, k: int = 3, power: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-distance weights over the k nearest candidates.

    Returns (chosen candidate indices, weights). Weights are nonnegative and
    sum to one; a candidate coincident with the target takes all the weight.
    """
    dists = np.array([great_circle_distance(target_pos, p) for p in candidate_pos])
    order = np.argsort(dists, kind="stable")[: min(k, len(dists))]
    d = dists[order]
    if d[0] == 0.0:
        w = np.zeros(len(order))
        w[0] = 1.0
        return order, w
    inv = 1.0 / d ** power
    return order, inv / inv.sum()


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


def detect_bad_channels(
    rec: EegRecording,
    criteria: BadChannelCriteria,
    exclude: Iterable[str] = (),
) -> dict[str, tuple[str, ...]]:
    """Flag channels by amplitude deviation and flat correlation (PREP).

    * deviation: the robust z-score of the channel's MAD amplitude across
      channels exceeds ``deviation_z`` in magnitude;
    * correlation: in more than 1% of windows the channel's best absolute
      correlation with any other channel falls below ``correlation_min``.

    ``exclude`` removes channels from consideration entirely (they are
    neither tested nor used as evidence). Returns {name: (reasons...)}.
    """
    exclude = set(exclude)
    all_names = rec.montage.names
    usable = [i for i, n in enumerate(all_names) if n not in exclude]
    if len(usable) < 4:
        raise DataError(
            f"only {len(usable)} usable channels, need at least 4 for "
            "bad-channel detection"
        )
    x = rec.samples[usable]
    names = [all_names[i] for i in usable]
    n_ch, n_samp = x.shape
    reasons: dict[str, list[str]] = {}

    def _flag(idx: int, why: str) -> None:
        reasons.setdefault(names[idx], []).append(why)

    # Deviation: robust z of per-channel robust amplitude.
    amp = _robust_std(x)
    med = np.median(amp)
    denom = _MAD_SCALE * np.median(np.abs(amp - med))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(amp == med, 0.0, (amp - med) / denom) if denom == 0 else (amp - med) / denom
    for i in np.nonzero(np.abs(z) > criteria.deviation_z)[0]:
        _flag(int(i), "deviation")

    # Correlation: windowed best absolute correlation against the other channels.
    win = max(2, round(criteria.correlation_window_s * rec.sample_rate_hz))
    if n_samp >= win:
        seg = _normalized_windows(x, win)  # (n_win, C, win)
        low_counts = np.zeros(n_ch, dtype=np.int64)
        for w in range(seg.shape[0]):
            r = np.abs(seg[w] @ seg[w].T)
            np.fill_diagonal(r, -1.0)
            low_counts += r.max(axis=1) < criteria.correlation_min
        frac = low_counts / seg.shape[0]
        for i in np.nonzero(frac > CORRELATION_BAD_WINDOW_FRAC)[0]:
            _flag(int(i), "correlation")

    return {name: tuple(why) for name, why in reasons.items()}


# --------------------------------------------------------------------------
# Referencing, interpolation, scaling
# --------------------------------------------------------------------------


@dataclass
class PreprocessReport:
    """What the cleaning chain did: stages, per-iteration flags, repairs."""

    stages: list[str] = field(default_factory=list)
    bad_channels: list[dict[str, tuple[str, ...]]] = field(default_factory=list)
    reference_iterations: int = 0
    interpolated: tuple[str, ...] = ()

    @property
    def final_bad(self) -> dict[str, tuple[str, ...]]:
        return dict(self.bad_channels[-1]) if self.bad_channels else {}

    def to_dict(self) -> dict:
        return {
            "stages": list(self.stages),
            "bad_channels": [
                {k: list(v) for k, v in it.items()} for it in self.bad_channels
            ],
            "reference_iterations": self.reference_iterations,
            "interpolated": list(self.interpolated),
        }


def robust_average_reference(
    rec: EegRecording,
    criteria: BadChannelCriteria,
) -> tuple[EegRecording, PreprocessReport]:
    """Average-reference the recording using only channels that test clean.

    Iterates {subtract the mean of the currently-good channels, re-detect}
    until the flagged set repeats. A newly seen set continues the loop (up
    to ``MAX_REFERENCE_ITERATIONS`` detections); revisiting an earlier,
    non-adjacent set is an oscillation and resolves to the union of
    everything seen.
    """
    report = PreprocessReport()
    x = rec.samples
    names = rec.montage.names
    bad: dict[str, tuple[str, ...]] = {}
    seen: list[frozenset[str]] = []
    while True:
        good_idx = [i for i, n in enumerate(names) if n not in bad]
        if not good_idx:
            raise DataError("all channels flagged bad; cannot build a reference")
        referenced = x - x[good_idx].mean(axis=0, keepdims=True)
        new_bad = detect_bad_channels(rec.with_samples(referenced), criteria)
        report.reference_iterations += 1
        report.bad_channels.append(dict(new_bad))
        key = frozenset(new_bad)
        if key == frozenset(bad):
            bad = new_bad
            break
        if key in seen:  # oscillation: settle on the union, reported last
            bad = dict(new_bad)
            for it in report.bad_channels:
                for name, why in it.items():
                    bad.setdefault(name, why)
            if frozenset(bad) != key:
                report.bad_channels.append(dict(bad))
            break
        seen.append(frozenset(bad))
        bad = new_bad
        if report.reference_iterations >= MAX_REFERENCE_ITERATIONS:
            break
    good_idx = [i for i, n in enumerate(names) if n not in bad]
    if not good_idx:
        raise DataError("all channels flagged bad; cannot build a reference")
    out = x - x[good_idx].mean(axis=0, keepdims=True)
    return rec.with_samples(out), report


def interpolate_channels(rec: EegRecording, bad: Iterable[str]) -> EegRecording:
    """Replace each bad channel by an inverse-distance blend of good ones.

    Each bad channel becomes the convex combination of its 3 nearest good
    channels (great-circle distance on the unit sphere, weights 1/d^2).
    """
    bad = set(bad)
    names, positions = rec.montage.names, rec.montage.positions
    unknown = bad - set(names)
    if unknown:
        raise DataError(f"cannot interpolate unknown channels {sorted(unknown)}")
    if not bad:
        return rec.with_samples(rec.samples.copy())
    good_idx = [i for i, n in enumerate(names) if n not in bad]
    if len(good_idx) < 3:
        raise DataError(
            f"only {len(good_idx)} good channels left; interpolation needs 3"
        )
    x = rec.samples.copy()
    good_pos = positions[good_idx]
    for i, name in enumerate(names):
        if name not in bad:
            continue
        sel, w = _idw_weights(positions[i], good_pos)
        src = [good_idx[int(s)] for s in sel]
        x[i] = w @ rec.samples[src]
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
    bad = sorted(report.final_bad)
    out = zscore_channels(interpolate_channels(referenced, bad))
    report.stages = ["highpass", "notch", "robust_reference", "interpolate", "zscore"]
    report.interpolated = tuple(bad)
    return out, report
