"""Narrow-band power estimate shared by the generator and filter tests."""

import numpy as np


def tone_power(x: np.ndarray, freq_hz: float, fs: float) -> float:
    """Power of the single-frequency component of ``x`` (Goertzel bin).

    Returns |c|^2 where c is the complex amplitude of the bin, i.e. the
    mean-square contribution of that frequency. Used for narrow-band
    before/after comparisons; only ratios are meaningful.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    t = np.arange(n)
    e = np.exp(-2j * np.pi * freq_hz / fs * t)
    c = (x * e).sum(axis=-1) * (2.0 / n)
    return float(np.mean(np.abs(c) ** 2))
