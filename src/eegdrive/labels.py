"""The labelling rule and its multi-horizon label assignment.

``LabelRule`` holds the whole rule in three values, and ``label_at_horizon``
applies all of them; each can deny a sample its label:

- ``tau``, the dead band: a joystick reading (v_x, omega_z) maps to one
  command, an axis being active only when its magnitude exceeds tau, so
  values exactly at tau fall inside the band. A reading with both axes
  active is contradictory and yields no label;
- ``max_gap_ms``: each EEG timestamp, shifted forward by the horizon delta,
  takes the nearest joystick reading, which must lie within this gap;
- ``edge_trim_s``: samples closer than this to either end of the recording
  get no label. The zero-phase filters' transients corrupt those
  stretches, so they must never reach the windowing stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import RecalledText, align_nearest, raise_first_fault, rising_rows, write_csv
from .session import NS_PER_MS, NS_PER_S, CommandLabel, JoystickStream

#: Code used in bulk arrays for "no label" (contradictory or unmatched).
NO_LABEL = -1
LABELS_HEADER = "t_ns,label_code"
#: One labels row, as written and as read.
LABELS_DTYPE = np.dtype([("t", np.int64), ("code", np.int64)])


@dataclass(frozen=True)
class LabelRule:
    """Dead-band threshold for both joystick axes, the widest gap between a
    target and its joystick reading, and the unlabelled stretch at each end."""

    tau: float = 0.1
    max_gap_ms: float = 100.0
    edge_trim_s: float = 1.0  # filter transient margin excluded from windowing

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not (0 < self.max_gap_ms < math.inf):
            raise ValueError("max_gap_ms must be positive and finite")
        if not (0 <= self.edge_trim_s < math.inf):
            raise ValueError("edge_trim_s must be >= 0 and finite")


def classify_commands(v_x: np.ndarray, omega_z: np.ndarray, rule: LabelRule) -> np.ndarray:
    """Classify joystick readings; returns int8 command codes, NO_LABEL for a
    contradictory reading (both axes active)."""
    v_x = np.asarray(v_x, dtype=np.float64)
    omega_z = np.asarray(omega_z, dtype=np.float64)
    tau = rule.tau
    v_in = np.abs(v_x) <= tau
    w_in = np.abs(omega_z) <= tau
    out = np.full(v_x.shape, NO_LABEL, dtype=np.int8)
    out[v_in & w_in] = CommandLabel.STOP
    out[w_in & (v_x > tau)] = CommandLabel.FORWARD
    out[w_in & (v_x < -tau)] = CommandLabel.REVERSE
    out[v_in & (omega_z > tau)] = CommandLabel.LEFT
    out[v_in & (omega_z < -tau)] = CommandLabel.RIGHT
    return out


@dataclass
class LabeledSamples:
    """All labelled samples of one recording under one horizon, time-ordered.

    Column-oriented for the splitting stage: ``indices`` are sample columns
    into the source recording, ``t_ns`` the matching timestamps, ``labels``
    the command codes.
    """

    indices: np.ndarray
    t_ns: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.t_ns = np.asarray(self.t_ns, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if not (len(self.indices) == len(self.t_ns) == len(self.labels)):
            raise ValueError("labelled-sample columns must share one length")

    def __len__(self) -> int:
        return len(self.indices)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=len(CommandLabel))


def label_at_horizon(
    eeg_ts: np.ndarray, joystick: JoystickStream, rule: LabelRule, delta_ms: int
) -> LabeledSamples:
    """Assign Label(t) = command(joystick nearest to t + delta) under ``rule``.

    Returns only the samples that received a label. Dropped are the samples
    whose target has no joystick reading within the gap, those whose reading
    is contradictory, and those that lie less than the edge trim after the
    first or before the last timestamp (a sample exactly that far in keeps
    its label).
    """
    eeg_ts = np.asarray(eeg_ts, dtype=np.int64)
    targets = eeg_ts + delta_ms * NS_PER_MS
    match = align_nearest(targets, joystick.t_ns, round(rule.max_gap_ms * NS_PER_MS))
    matched = match >= 0
    codes = np.full(len(eeg_ts), NO_LABEL, dtype=np.int8)
    codes[matched] = classify_commands(
        joystick.v_x[match[matched]], joystick.omega_z[match[matched]], rule
    )
    keep = codes != NO_LABEL
    if len(eeg_ts):
        trim_ns = round(rule.edge_trim_s * NS_PER_S)
        keep &= (eeg_ts >= int(eeg_ts[0]) + trim_ns) & (eeg_ts <= int(eeg_ts[-1]) - trim_ns)
    idx = np.flatnonzero(keep)
    return LabeledSamples(indices=idx, t_ns=eeg_ts[idx], labels=codes[idx])


def write_labels_csv(path: str | Path, labeled: LabeledSamples) -> Path:
    """Write one ``t_ns,label_code`` row per sample; ``path`` is replaced
    only once the whole file is written."""
    return write_csv(path, LABELS_HEADER, LABELS_DTYPE, [labeled.t_ns, labeled.labels])


def read_labels_csv(path: str | Path, eeg_ts: np.ndarray) -> LabeledSamples:
    """Load a labels file back, recovering sample indices from timestamps.

    The body parses in one bulk call (``ingest.RecalledText.columns``): a
    row that is not two integers is reported as ``path:line``. Then, as for
    a session stream, the earliest row whose timestamp does not increase,
    whose code is not a ``CommandLabel`` or whose timestamp is not in
    ``eeg_ts`` is reported as ``path:line``, the line found only for that
    row. A header-only file holds zero samples.
    """
    path = Path(path)
    text = RecalledText(path)
    if text.header() != LABELS_HEADER:
        raise DataError(f"{path}:1: expected header {LABELS_HEADER}")
    t_arr, codes = text.columns(LABELS_DTYPE)
    eeg_ts = np.asarray(eeg_ts, dtype=np.int64)
    pos = np.searchsorted(eeg_ts, t_arr)
    absent = (pos >= len(eeg_ts)) | (eeg_ts[np.minimum(pos, len(eeg_ts) - 1)] != t_arr)
    top = len(CommandLabel) - 1
    raise_first_fault(path, text.row_line, [
        (~rising_rows(t_arr),
         lambda i: f"timestamp {t_arr[i]} does not increase past {t_arr[i - 1]}"),
        ((codes < 0) | (codes > top),
         lambda i: f"label codes must lie in [0, {top}], got {codes[i]}"),
        (absent, lambda i: f"label timestamp {t_arr[i]} not present in the recording"),
    ])
    return LabeledSamples(indices=pos, t_ns=t_arr, labels=codes)
