"""The numpy filters against scipy.signal, which serves as the oracle.

scipy is a test dependency only. The designs must reproduce scipy's
second-order sections, and ``filter_zero_phase`` must reproduce
``sosfiltfilt``. Filter errors are measured relative to the input's largest
magnitude, the scale a linear filter's rounding grows with.
"""

import numpy as np
import pytest
from scipy import signal

from eegdrive.preprocess import (
    FilterSpec,
    _settle_length,
    design_highpass,
    design_notch,
    filter_zero_phase,
)

FS = 125.0
CORNERS = [(1.0, 125.0), (0.1, 125.0), (0.5, 1000.0), (30.0, 250.0), (40.0, 100.0)]


def _highpass(order, fc, fs):
    return design_highpass(FilterSpec(highpass_hz=fc, highpass_order=order, notch_hz=2 * fc), fs)


def _assert_matches_sosfiltfilt(x, sos, tol=1e-12):
    want = signal.sosfiltfilt(sos, x, axis=-1)
    got = filter_zero_phase(x, sos)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(x).max()


class TestDesigns:
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    @pytest.mark.parametrize("fc,fs", CORNERS)
    def test_highpass_matches_butter_even_orders(self, order, fc, fs):
        want = signal.butter(order, fc, btype="highpass", fs=fs, output="sos")
        np.testing.assert_allclose(_highpass(order, fc, fs), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize("fc,fs", CORNERS)
    def test_highpass_cascade_matches_butter(self, order, fc, fs):
        sos = _highpass(order, fc, fs)
        assert sos.shape == ((order + 1) // 2, 6)
        _, got = signal.sosfreqz(sos, worN=1024, fs=fs)
        _, want = signal.sosfreqz(
            signal.butter(order, fc, btype="highpass", fs=fs, output="sos"), worN=1024, fs=fs
        )
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("f0,q,fs", [(50.0, 30.0, 125.0), (60.0, 30.0, 250.0), (50.0, 5.0, 1000.0)])
    def test_notch_matches_iirnotch(self, f0, q, fs):
        sos = design_notch(FilterSpec(notch_hz=f0, notch_q=q), fs)
        want = signal.tf2sos(*signal.iirnotch(f0, q, fs=fs))
        np.testing.assert_allclose(sos, want, rtol=0, atol=1e-12)


class TestZeroPhase:
    @pytest.mark.parametrize("design", [design_highpass, design_notch])
    @pytest.mark.parametrize("shape", [(3000,), (16, 15000), (16, 25000)])
    def test_matches_sosfiltfilt(self, design, shape):
        x = 100.0 + 30.0 * np.random.default_rng(0).standard_normal(shape)
        _assert_matches_sosfiltfilt(x, design(FilterSpec(), FS))

    @pytest.mark.parametrize("design,edge", [(design_highpass, 15), (design_notch, 9)])
    def test_minimum_length(self, design, edge):
        x = 5.0 + np.random.default_rng(1).standard_normal((16, edge + 1))
        _assert_matches_sosfiltfilt(x, design(FilterSpec(), FS))
        _assert_matches_sosfiltfilt(x[0], design(FilterSpec(), FS))

    @pytest.mark.parametrize("design", [design_highpass, design_notch])
    def test_dc_plus_ramp(self, design):
        x = 40.0 + 0.01 * np.arange(5000)
        _assert_matches_sosfiltfilt(x, design(FilterSpec(), FS))

    def test_slow_highpass_settling_longer_than_signal(self):
        sos = _highpass(4, 0.1, FS)
        n = 3000
        assert _settle_length(np.concatenate([np.roots(a) for a in sos[:, 3:]])) > n
        t = np.arange(n)
        _assert_matches_sosfiltfilt(40.0 + 0.01 * t, sos)
        _assert_matches_sosfiltfilt(np.stack([40.0 + 0.01 * t, -3.0 - 0.02 * t]), sos)
