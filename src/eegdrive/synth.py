"""Synthetic sessions with a known command schedule.

The generator builds a seeded Markov walk over the five commands, renders
the EEG as class-specific sinusoids in noise, and emits a joystick stream
that acts out the same schedule ``label_lag_ms`` later. Because the tone
present at time t belongs to the command at t + lag, decoding gets easier
as the labelling horizon approaches the generative lag and degrades away
from it.

Layout choices that the rest of the pipeline depends on:

- Segment boundaries land exactly on joystick ticks, and the ground-truth
  label of an EEG sample is read at the tick nearest t + lag. Labelling at
  a horizon equal to the lag therefore reproduces the truth track exactly.
- Spatial structure is low-rank and smooth, like scalp fields produced by
  volume conduction: each class tone projects onto the montage through a
  seeded dipole pattern (the dot product of electrode position and a random
  unit vector), and the background noise is a common term plus three
  dipole-mixed sources plus a small per-sensor remainder. Smooth zero-mean
  patterns survive average referencing, which the cleaning stage relies on
  when it re-checks channels against their neighbours' predictions;
  channel-independent noise would get every channel flagged as bad there.
- By default the Stop "tone" is omitted (silence plus noise), so Stop
  differs from the other classes in energy as well as in frequency. Every
  linear projection of a fixed-frequency tone averages to zero over phase,
  and an energy gap leaves the class-conditional mean at zero too, so
  neither gives the affine baseline a mean difference to read; only a model
  that squares its input, like the conv net, decodes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import SessionDir, write_session_dir
from .labels import LabeledSamples, write_labels_csv
from .session import (
    N_CLASSES,
    NS_PER_MS,
    NS_PER_S,
    EegRecording,
    JoystickStream,
    synthetic_montage,
)

TRUTH_NAME = "truth_labels.csv"

# background noise variance split: common mode / dipole sources / per-sensor.
# Common mode dominates real scalp recordings and is what robust average
# referencing exists to remove; the spatially smooth dipole part keeps
# inter-channel correlations realistic.
NOISE_COMMON_FRAC = 0.45
NOISE_DIPOLE_FRAC = 0.5
NOISE_SENSOR_FRAC = 0.05

# per-command joystick direction: (v_x, omega_z) sign pattern
_VX_SIGN = (1.0, -1.0, 0.0, 0.0, 0.0)
_WZ_SIGN = (0.0, 0.0, 1.0, -1.0, 0.0)


@dataclass(frozen=True)
class SynthConfig:
    duration_s: float = 240.0
    sample_rate_hz: float = 125.0
    n_channels: int = 16
    # tone frequency per class code (forward, reverse, left, right, stop)
    class_freqs_hz: tuple[float, ...] = (30.0, 15.0, 10.0, 20.0, 5.0)
    snr_db: float = 6.0
    segment_len_s: float = 4.0
    label_lag_ms: float = 300.0
    rng_seed: int = 0
    joystick_rate_hz: float = 10.0
    joystick_magnitude: float = 0.8
    tone_rms_uv: float = 10.0
    stop_silent: bool = True
    line_noise_amp: float = 0.0  # 50 Hz amplitude as a multiple of tone amplitude
    corrupt_channel: str | None = None
    # explicit (length_s, class_code) segments; replaces the Markov walk
    schedule: tuple[tuple[float, int], ...] | None = None

    def __post_init__(self):
        if not (self.duration_s > 0 and self.sample_rate_hz > 0
                and self.joystick_rate_hz > 0):
            raise ValueError("durations and rates must be positive")
        if self.n_channels < 4:
            raise ValueError("n_channels must be >= 4 (cleaning needs context)")
        if len(self.class_freqs_hz) != N_CLASSES:
            raise ValueError(f"class_freqs_hz needs {N_CLASSES} entries")
        nyquist = self.sample_rate_hz / 2.0
        for f in self.class_freqs_hz:
            if not (0.0 < f < nyquist):
                raise ValueError(f"class frequency {f} Hz outside (0, {nyquist})")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must be a number or infinity")
        if not (self.segment_len_s > 0):
            raise ValueError("segment_len_s must be positive")
        if self.label_lag_ms < 0:
            raise ValueError("label_lag_ms must be non-negative")
        if not (0.0 < self.joystick_magnitude <= 1.0):
            raise ValueError("joystick_magnitude must lie in (0, 1]")
        if not (self.tone_rms_uv > 0):
            raise ValueError("tone_rms_uv must be positive")
        if self.line_noise_amp < 0:
            raise ValueError("line_noise_amp must be non-negative")
        # every class must stand a chance of reaching ~n_chunks samples
        if self.duration_s * self.sample_rate_hz < 500:
            raise ValueError("duration too short to populate all five classes")
        if self.schedule is not None:
            for k, (length_s, code) in enumerate(self.schedule):
                if length_s <= 0:
                    raise ValueError(f"schedule entry {k}: length must be positive")
                if not (0 <= int(code) < N_CLASSES):
                    raise ValueError(f"schedule entry {k}: bad class code {code}")

    @property
    def noise_sigma_uv(self) -> float:
        if math.isinf(self.snr_db):
            return 0.0
        return self.tone_rms_uv * 10.0 ** (-self.snr_db / 20.0)


def _build_schedule(cfg: SynthConfig, horizon_ns: int) -> tuple[list[int], list[int]]:
    """Segment start times (ns, tick-aligned) and class codes covering
    [0, horizon_ns]."""
    tick_ns = round(NS_PER_S / cfg.joystick_rate_hz)
    starts: list[int] = []
    codes: list[int] = []
    if cfg.schedule is not None:
        t = 0
        for length_s, code in cfg.schedule:
            starts.append(t)
            codes.append(int(code))
            t += max(1, round(length_s * cfg.joystick_rate_hz)) * tick_ns
        if t < horizon_ns:
            raise DataError(
                f"explicit schedule covers {t} ns but {horizon_ns} ns are needed"
            )
        return starts, codes

    rng = np.random.default_rng(np.random.SeedSequence((cfg.rng_seed, 0)))
    t = 0
    code = int(rng.integers(0, N_CLASSES))
    while t <= horizon_ns:
        starts.append(t)
        codes.append(code)
        dwell_s = cfg.segment_len_s * rng.uniform(0.5, 1.5)
        t += max(1, round(dwell_s * cfg.joystick_rate_hz)) * tick_ns
        step = int(rng.integers(0, N_CLASSES - 1))
        code = (code + 1 + step) % N_CLASSES  # uniform over the other four
    return starts, codes


def _codes_at(starts: list[int], codes: list[int], t_ns: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(np.asarray(starts, dtype=np.int64), t_ns, side="right") - 1
    if (idx < 0).any():
        raise DataError("schedule does not cover the requested times")
    return np.asarray(codes, dtype=np.int8)[idx]


def _class_gains(cfg: SynthConfig, positions: np.ndarray) -> np.ndarray:
    """(n_channels, n_classes) tone gain matrix.

    Each class gets a dipole topography: gain = electrode position dotted
    with a seeded random unit vector. Gains span [-1, 1], vary smoothly over
    the scalp, and average to roughly zero across channels, so the class
    signatures pass through average referencing nearly untouched.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.rng_seed, 1)))
    dirs = rng.standard_normal((3, N_CLASSES))
    dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
    return positions @ dirs


def generate_session(cfg: SynthConfig) -> tuple[SessionDir, LabeledSamples]:
    """One session plus its ground truth: every EEG sample labelled with the
    command at the joystick tick nearest t + lag, as a ``LabeledSamples``
    at delta = the generative lag."""
    period_ns = round(NS_PER_S / cfg.sample_rate_hz)
    tick_ns = round(NS_PER_S / cfg.joystick_rate_hz)
    lag_ns = round(cfg.label_lag_ms * NS_PER_MS)
    n_eeg = round(cfg.duration_s * cfg.sample_rate_hz)
    n_joy = round(cfg.duration_s * cfg.joystick_rate_hz)

    eeg_t = np.arange(n_eeg, dtype=np.int64) * period_ns
    joy_t = np.arange(n_joy, dtype=np.int64) * tick_ns

    horizon_ns = int(eeg_t[-1]) + lag_ns + 2 * NS_PER_S
    starts, seg_codes = _build_schedule(cfg, horizon_ns)

    # what the subject is about to do: command active at t + lag
    intent = _codes_at(starts, seg_codes, eeg_t + lag_ns)
    # ground truth quantized to the joystick clock, nearest tick to t + lag
    nearest_tick = (eeg_t + lag_ns + tick_ns // 2) // tick_ns
    truth = LabeledSamples(
        indices=np.arange(n_eeg),
        t_ns=eeg_t,
        labels=_codes_at(starts, seg_codes, nearest_tick * tick_ns),
    )

    montage = synthetic_montage(cfg.n_channels)
    names, positions = montage.names, montage.positions

    t_sec = eeg_t.astype(np.float64) / NS_PER_S
    amp = cfg.tone_rms_uv * math.sqrt(2.0)
    gains = _class_gains(cfg, positions)

    # Preparation builds up: over the anticipation interval (the lag before
    # the command starts) the tone ramps linearly from 0 to full amplitude,
    # reaching full strength exactly at command onset and holding it for the
    # rest of the segment. A segment already running at t=0 is past its
    # ramp, so a whole-session segment is a constant-amplitude tone.
    starts_arr = np.asarray(starts, dtype=np.int64)
    seg_start = starts_arr[
        np.searchsorted(starts_arr, eeg_t + lag_ns, side="right") - 1
    ]
    if lag_ns > 0:
        envelope = np.clip((eeg_t + lag_ns - seg_start) / lag_ns, 0.0, 1.0)
    else:
        envelope = np.ones(n_eeg)

    x = np.zeros((cfg.n_channels, n_eeg))
    for c in range(N_CLASSES):
        if cfg.stop_silent and c == N_CLASSES - 1:
            continue
        mask = intent == c
        if not mask.any():
            continue
        tone = np.where(
            mask,
            amp * envelope * np.sin(2.0 * np.pi * cfg.class_freqs_hz[c] * t_sec),
            0.0,
        )
        x += gains[:, c : c + 1] * tone[None, :]

    sigma = cfg.noise_sigma_uv
    if sigma > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.rng_seed, 2)))
        streams = rng.standard_normal((cfg.n_channels + 4, n_eeg))
        streams /= streams.std(axis=1, keepdims=True)
        common, dipole_src, sensor = streams[0], streams[1:4], streams[4:]
        # position rows are unit vectors, so the dipole mix has unit
        # variance on every channel and the fractions add to one
        x += sigma * (
            math.sqrt(NOISE_COMMON_FRAC) * common[None, :]
            + math.sqrt(NOISE_DIPOLE_FRAC) * (positions @ dipole_src)
            + math.sqrt(NOISE_SENSOR_FRAC) * sensor
        )

    if cfg.line_noise_amp > 0.0:
        x += (cfg.line_noise_amp * amp) * np.sin(2.0 * np.pi * 50.0 * t_sec)[None, :]
    if cfg.corrupt_channel is not None:
        if cfg.corrupt_channel not in names:
            raise DataError(
                f"corrupt_channel {cfg.corrupt_channel!r} not in the montage"
            )
        x[names.index(cfg.corrupt_channel)] = 0.0

    joy_codes = _codes_at(starts, seg_codes, joy_t)
    mag = cfg.joystick_magnitude
    v_x = mag * np.asarray(_VX_SIGN, dtype=np.float64)[joy_codes]
    omega_z = mag * np.asarray(_WZ_SIGN, dtype=np.float64)[joy_codes]

    session = SessionDir(
        subject_id="synthetic",
        session_id=f"synth-{cfg.rng_seed:04d}",
        eeg=EegRecording(montage, eeg_t, x, cfg.sample_rate_hz),
        joystick=JoystickStream(joy_t, v_x, omega_z),
    )
    return session, truth


def write_synthetic_session(out_dir: str | Path, cfg: SynthConfig) -> Path:
    """Generate and persist one session; returns its directory."""
    session, truth = generate_session(cfg)
    root = write_session_dir(out_dir, session)
    write_labels_csv(root / TRUTH_NAME, truth)
    return root
