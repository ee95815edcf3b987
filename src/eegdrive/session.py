"""Core domain types for EEG driving-command sessions.

Every timestamp in this package is an integer count of nanoseconds, never a
float: alignment, labelling and splitting all compare timestamps for order
and equality, and those comparisons must stay exact no matter how long a
recording runs. Bulk data (timestamps, samples, electrode positions) lives
in numpy arrays; scalar records are small dataclasses. Each fact about a
session has one owner: the recording holds its montage and sample rate,
and ``ingest.SessionDir`` adds only the identifiers and the joystick
stream.
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


@dataclass(frozen=True, eq=False)
class Montage:
    """The electrode layout of a recording, one row per channel.

    ``names`` are the channel names in row order; ``positions`` is a
    read-only float64 (C, 3) array of unit vectors on the head sphere.
    """

    names: tuple[str, ...]
    positions: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        pos = np.array(self.positions, dtype=np.float64)
        if len(names) < 2:
            raise ValueError("montage must list at least 2 channels")
        if pos.shape != (len(names), 3):
            raise ValueError(
                f"positions must have shape ({len(names)}, 3), got {pos.shape}"
            )
        for i, name in enumerate(names):
            if not name:
                raise ValueError(f"channel {i}: name must be non-empty")
            if name in names[:i]:
                raise ValueError(f"channel {i}: name {name!r} is not unique")
        norm = np.sqrt((pos * pos).sum(axis=1))
        off = ~(np.abs(norm - 1.0) <= 1e-9)  # NaN norms count as off
        if off.any():
            i = int(np.argmax(off))
            raise ValueError(
                f"channel {names[i]!r}: |position| = {float(norm[i])!r}, "
                "expected unit norm"
            )
        pos.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "positions", pos)


def default_montage() -> Montage:
    """The built-in 16-channel montage in rig order."""
    return Montage(
        DEFAULT_MONTAGE_NAMES, [ELECTRODE_POSITIONS[n] for n in DEFAULT_MONTAGE_NAMES]
    )


def synthetic_montage(n_channels: int) -> Montage:
    """A montage for simulation: the rig layout at 16 channels, otherwise a
    deterministic spread of points over the upper hemisphere."""
    if n_channels == len(DEFAULT_MONTAGE_NAMES):
        return default_montage()
    positions = []
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(n_channels):
        z = 1.0 - (i + 0.5) / n_channels  # upper hemisphere only
        r = math.sqrt(max(0.0, 1.0 - z * z))
        a = golden * i
        v = (r * math.cos(a), r * math.sin(a), z)
        n = math.sqrt(sum(c * c for c in v))
        positions.append((v[0] / n, v[1] / n, v[2] / n))
    return Montage(tuple(f"ch{i:02d}" for i in range(n_channels)), positions)


# --------------------------------------------------------------------------
# Recordings and streams
# --------------------------------------------------------------------------


@dataclass
class EegRecording:
    """A multichannel EEG recording: the one owner of its montage and rate.

    ``samples`` is (n_channels, n_samples) in microvolts, one row per
    montage channel; ``timestamps`` is int64 nanoseconds, one per sample
    column. Arrays are adopted (not copied) and marked read-only so
    downstream stages can share them safely; operations that transform a
    recording always allocate new arrays.
    """

    montage: Montage
    timestamps: np.ndarray
    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.timestamps.ndim != 1 or self.samples.ndim != 2:
            raise ValueError("timestamps must be 1-D and samples 2-D")
        n_names = len(self.montage.names)
        if self.samples.shape[0] != n_names:
            raise ValueError(
                f"{n_names} channels but samples has {self.samples.shape[0]} rows"
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

    def with_samples(self, samples: np.ndarray) -> "EegRecording":
        """Same montage, rate and timestamps, new sample matrix."""
        return EegRecording(self.montage, self.timestamps, samples, self.sample_rate_hz)


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
