"""Core domain types for EEG driving-command sessions.

Every timestamp in this package is an integer count of nanoseconds, never a
float: alignment, labelling and splitting all compare timestamps for order
and equality, and those comparisons must stay exact no matter how long a
recording runs. Bulk data (timestamps, samples) lives in numpy arrays;
scalar records are small dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


class CommandLabel(IntEnum):
    """Discrete driving commands with the fixed codes used in every file format."""

    FORWARD = 0
    REVERSE = 1
    LEFT = 2
    RIGHT = 3
    STOP = 4


N_CLASSES = len(CommandLabel)

#: Anticipation horizons (ms) supported by the labelling protocol.
HORIZONS_MS = (0, 300, 400, 500, 600, 700, 800, 900, 1000)


# --------------------------------------------------------------------------
# Electrode geometry
#
# Idealised unit-sphere coordinates: the head is a sphere with the vertex at
# +z, the nose at +y and the right ear at +x. The outer ring of the montage
# sits at a polar angle of 72 degrees, the central chain at 36 degrees, and
# the four parasagittal electrodes are great-circle midpoints of their
# neighbouring landmarks.
# --------------------------------------------------------------------------


def _sph(polar_deg: float, azimuth_deg: float) -> tuple[float, float, float]:
    """Unit vector at a polar angle from the vertex; azimuth from the nose, +right."""
    p = math.radians(polar_deg)
    a = math.radians(azimuth_deg)
    v = (math.sin(p) * math.sin(a), math.sin(p) * math.cos(a), math.cos(p))
    n = math.sqrt(sum(c * c for c in v))
    return (v[0] / n, v[1] / n, v[2] / n)


def _arc_midpoint(u: tuple, v: tuple) -> tuple[float, float, float]:
    s = tuple(a + b for a, b in zip(u, v))
    n = math.sqrt(sum(c * c for c in s))
    return (s[0] / n, s[1] / n, s[2] / n)


_FZ = _sph(36.0, 0.0)
_PZ = _sph(36.0, 180.0)

ELECTRODE_POSITIONS: dict[str, tuple[float, float, float]] = {
    "Fp1": _sph(72.0, -18.0),
    "Fp2": _sph(72.0, +18.0),
    "F7": _sph(72.0, -54.0),
    "F8": _sph(72.0, +54.0),
    "T3": _sph(72.0, -90.0),
    "T4": _sph(72.0, +90.0),
    "T5": _sph(72.0, -126.0),
    "T6": _sph(72.0, +126.0),
    "O1": _sph(72.0, -162.0),
    "O2": _sph(72.0, +162.0),
    "C3": _sph(36.0, -90.0),
    "C4": _sph(36.0, +90.0),
    "F3": _arc_midpoint(_FZ, _sph(72.0, -54.0)),
    "F4": _arc_midpoint(_FZ, _sph(72.0, +54.0)),
    "P3": _arc_midpoint(_PZ, _sph(72.0, -126.0)),
    "P4": _arc_midpoint(_PZ, _sph(72.0, +126.0)),
}

#: Channel order used by the reference recording rig.
DEFAULT_MONTAGE_NAMES = (
    "Fp1", "Fp2", "F3", "F4", "F7", "F8", "C3", "C4",
    "T3", "T4", "T5", "T6", "P3", "P4", "O1", "O2",
)


@dataclass(frozen=True)
class ChannelMeta:
    """One electrode: a unique name plus its unit-sphere position."""

    name: str
    position: tuple[float, float, float]

    def __post_init__(self):
        if not self.name:
            raise ValueError("channel name must be non-empty")
        norm = math.sqrt(sum(c * c for c in self.position))
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise ValueError(
                f"channel {self.name!r}: |position| = {norm!r}, expected unit norm"
            )


def default_montage() -> list[ChannelMeta]:
    """The built-in 16-channel montage in rig order."""
    return [ChannelMeta(n, ELECTRODE_POSITIONS[n]) for n in DEFAULT_MONTAGE_NAMES]


def synthetic_montage(n_channels: int) -> list[ChannelMeta]:
    """A montage for simulation: the rig layout at 16 channels, otherwise a
    deterministic spread of points over the upper hemisphere."""
    if n_channels == len(DEFAULT_MONTAGE_NAMES):
        return default_montage()
    if n_channels < 2:
        raise ValueError("need at least 2 channels")
    chans = []
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(n_channels):
        z = 1.0 - (i + 0.5) / n_channels  # upper hemisphere only
        r = math.sqrt(max(0.0, 1.0 - z * z))
        a = golden * i
        v = (r * math.cos(a), r * math.sin(a), z)
        n = math.sqrt(sum(c * c for c in v))
        chans.append(ChannelMeta(f"ch{i:02d}", (v[0] / n, v[1] / n, v[2] / n)))
    return chans


# --------------------------------------------------------------------------
# Recordings and streams
# --------------------------------------------------------------------------


@dataclass
class EegRecording:
    """A multichannel EEG recording.

    ``samples`` is (n_channels, n_samples) in microvolts; ``timestamps`` is
    int64 nanoseconds, one per sample column. Arrays are adopted (not
    copied) and marked read-only so downstream stages can share them safely;
    operations that transform a recording always allocate new arrays.
    """

    channels: list[ChannelMeta]
    timestamps: np.ndarray
    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.timestamps.ndim != 1 or self.samples.ndim != 2:
            raise ValueError("timestamps must be 1-D and samples 2-D")
        names = [c.name for c in self.channels]
        if len(set(names)) != len(names):
            raise ValueError("channel names must be unique")
        if self.samples.shape[0] != len(self.channels):
            raise ValueError(
                f"{len(self.channels)} channels but samples has "
                f"{self.samples.shape[0]} rows"
            )
        if self.samples.shape[1] != self.timestamps.shape[0]:
            raise ValueError(
                f"{self.timestamps.shape[0]} timestamps but samples has "
                f"{self.samples.shape[1]} columns"
            )
        if not (self.sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be positive")
        self.timestamps.setflags(write=False)
        self.samples.setflags(write=False)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def channel_names(self) -> list[str]:
        return [c.name for c in self.channels]

    def with_samples(self, samples: np.ndarray) -> "EegRecording":
        """Same metadata and timestamps, new sample matrix."""
        return EegRecording(self.channels, self.timestamps, samples, self.sample_rate_hz)


@dataclass
class JoystickStream:
    """Column-oriented joystick stream; ``ingest`` enforces its stream rules."""

    t_ns: np.ndarray
    v_x: np.ndarray
    omega_z: np.ndarray

    def __post_init__(self):
        self.t_ns = np.asarray(self.t_ns, dtype=np.int64)
        self.v_x = np.asarray(self.v_x, dtype=np.float64)
        self.omega_z = np.asarray(self.omega_z, dtype=np.float64)
        if not (self.t_ns.shape == self.v_x.shape == self.omega_z.shape):
            raise ValueError("joystick stream columns must share one length")
        if self.t_ns.ndim != 1:
            raise ValueError("joystick stream columns must be 1-D")
        for a in (self.t_ns, self.v_x, self.omega_z):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t_ns)


@dataclass(frozen=True)
class SessionManifest:
    """Identity and layout of one recorded session."""

    subject_id: str
    session_id: str
    sample_rate_hz: float
    montage: tuple[ChannelMeta, ...]
    reserved_streams: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.subject_id or not self.session_id:
            raise ValueError("subject_id and session_id must be non-empty")
        if not (self.sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be positive")
        if len(self.montage) < 2:
            raise ValueError("montage must list at least 2 channels")
        names = [c.name for c in self.montage]
        if len(set(names)) != len(names):
            raise ValueError("montage channel names must be unique")
