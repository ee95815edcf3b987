"""Session directory ingestion and cross-stream timestamp alignment.

A session directory holds exactly three files::

    manifest.json    identity, sample rate, montage with unit-sphere positions
    eeg.csv          header ``timestamp_ns,<ch1>,...,<chC>``, microvolt samples
    joystick.jsonl   one JSON object per line: {"t_ns": ..., "vx": ..., "wz": ...}

All three must be UTF-8, and the EEG header must match the manifest montage
exactly. Each file's row loop only splits rows into fields and checks their
syntax (field count; integer, float or JSON), recording the file line of
every row. ``_check_stream`` then applies every stream rule to the parsed
columns at once and reports the first broken row as ``path:line``:

- timestamps are integers in [0, 2^63) and strictly increase;
- EEG samples are finite;
- joystick ``vx`` and ``wz`` are finite and within [-1, 1] (rejected, not
  clamped), and ``t_ns`` is a JSON integer;
- the median EEG sample gap is within ``DRIFT_TOLERANCE`` of the period
  the manifest's sample rate implies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError
from .session import (
    NS_PER_MS,
    NS_PER_S,
    ChannelMeta,
    EegRecording,
    JoystickStream,
    SessionManifest,
)

MANIFEST_NAME = "manifest.json"
EEG_NAME = "eeg.csv"
JOYSTICK_NAME = "joystick.jsonl"
FORMAT_VERSION = 1
MAX_TIMESTAMP_NS = 2**63 - 1
#: Largest fractional difference allowed between the median EEG sample gap
#: and the period the manifest's sample rate implies.
DRIFT_TOLERANCE = 0.01


@dataclass(frozen=True)
class AlignmentConfig:
    """Nearest-neighbour matching tolerance between EEG and joystick clocks."""

    max_gap_ms: float = 100.0

    def __post_init__(self):
        if not (self.max_gap_ms > 0):
            raise ValueError("max_gap_ms must be positive")

    @property
    def max_gap_ns(self) -> int:
        return round(self.max_gap_ms * NS_PER_MS)


def align_nearest(
    eeg_ts: np.ndarray, joy_ts: np.ndarray, cfg: AlignmentConfig
) -> np.ndarray:
    """Match each EEG timestamp to its nearest joystick timestamp.

    Returns one int64 entry per EEG sample: the joystick index whose
    timestamp minimises |t_eeg - t_joy|, or -1 when the nearest candidate is
    further than ``cfg.max_gap_ns``. Exact ties break toward the earlier
    joystick sample. Both inputs must be strictly increasing; one binary
    search per EEG sample finds its two neighbouring joystick stamps.
    """
    eeg = np.asarray(eeg_ts, dtype=np.int64)
    joy = np.asarray(joy_ts, dtype=np.int64)
    if len(joy) == 0 or len(eeg) == 0:
        return np.full(len(eeg), -1, dtype=np.int64)
    after = np.searchsorted(joy, eeg)  # first stamp >= t
    later = np.minimum(after, len(joy) - 1)
    earlier = np.maximum(after - 1, 0)
    d_later = np.abs(joy[later] - eeg)
    d_earlier = np.abs(eeg - joy[earlier])
    # strict: equal distance keeps the earlier stamp
    best = np.where(d_later < d_earlier, later, earlier)
    best_d = np.minimum(d_later, d_earlier)
    return np.where(best_d <= cfg.max_gap_ns, best, -1)


@dataclass
class SessionDir:
    """A fully parsed session: manifest plus both validated streams."""

    manifest: SessionManifest
    eeg: EegRecording
    joystick: JoystickStream

    def __post_init__(self):
        if [c.name for c in self.manifest.montage] != self.eeg.channel_names:
            raise DataError("EEG channels do not match the manifest montage")
        if self.manifest.sample_rate_hz != self.eeg.sample_rate_hz:
            raise DataError("EEG sample rate does not match the manifest")


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, text without its line ending) for each line of a
    UTF-8 file."""
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as e:
                raise DataError(f"{path}:{lineno}: not UTF-8: {e}") from e


def _parse_manifest(path: Path) -> SessionManifest:
    try:
        raw = json.loads("\n".join(line for _, line in _lines(path)))
    except (ValueError, RecursionError) as e:
        raise DataError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    version = raw.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format_version {version!r}")
    required = {"subject_id", "session_id", "sample_rate_hz", "channels"}
    missing = required - raw.keys()
    if missing:
        raise DataError(f"{path}: manifest missing keys {sorted(missing)}")
    if not isinstance(raw["channels"], list):
        raise DataError(f"{path}: channels must be a list")
    montage = []
    for k, ch in enumerate(raw["channels"]):
        try:
            montage.append(ChannelMeta(str(ch["name"]), tuple(float(v) for v in ch["pos"])))
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"{path}: channel entry {k} invalid: {e}") from e
    try:
        return SessionManifest(
            subject_id=str(raw["subject_id"]),
            session_id=str(raw["session_id"]),
            sample_rate_hz=float(raw["sample_rate_hz"]),
            montage=tuple(montage),
            reserved_streams=tuple(str(s) for s in raw.get("reserved_streams", ())),
        )
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: {e}") from e


def _check_stream(
    path: Path,
    lines: list[int],
    t: list[int],
    values: np.ndarray,
    names: list[str],
    limit: float = math.inf,
    rate_hz: float | None = None,
) -> np.ndarray:
    """Apply every stream rule to one parsed file at once.

    ``lines`` holds the file line of each row, ``t`` its timestamp as parsed
    and ``values`` its (n_rows, len(names)) data. Row rules: timestamps lie
    in [0, 2^63) and strictly increase, and values are finite and within
    [-limit, limit]. The first row that breaks a rule is reported as
    ``path:line``. With ``rate_hz`` set, the median timestamp gap must also
    lie within DRIFT_TOLERANCE of the period that rate implies. Returns the
    timestamps as int64.
    """
    try:
        ts = np.array(t, dtype=np.int64)
    except OverflowError:
        ts = np.array(t, dtype=object)  # exact Python ints, for the range rule
    rising = np.ones(len(ts), dtype=bool)
    rising[1:] = ts[1:] > ts[:-1]
    nonfinite = ~np.isfinite(values)
    beyond = np.abs(values) > limit

    def at(mask: np.ndarray, i: int) -> tuple[str, float]:
        c = int(np.argmax(mask[i]))  # first offending column of row i
        return names[c], values[i, c]

    def nonfinite_msg(i: int) -> str:
        name, v = at(nonfinite, i)
        return f"non-finite sample {v} in channel {name}"

    def beyond_msg(i: int) -> str:
        name, v = at(beyond, i)
        return f"{name} value {v} outside [-{limit:g}, {limit:g}]"

    rules = [
        (ts < 0, lambda i: f"negative timestamp {ts[i]}"),
        (ts > MAX_TIMESTAMP_NS, lambda i: f"timestamp {ts[i]} is not below 2^63"),
        (~rising, lambda i: f"timestamp {ts[i]} does not increase past {ts[i - 1]}"),
        (nonfinite.any(axis=1), nonfinite_msg),
        (beyond.any(axis=1), beyond_msg),
    ]
    # the earliest broken row wins; on one row, the rule listed first
    broken = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(rules) if bad.any()]
    if broken:
        i, k = min(broken)
        raise DataError(f"{path}:{lines[i]}: {rules[k][1](i)}")
    ts = ts.astype(np.int64)
    if rate_hz is not None and len(ts) > 1:
        gap = float(np.median(np.diff(ts)))
        if not abs(gap * rate_hz / NS_PER_S - 1.0) <= DRIFT_TOLERANCE:
            raise DataError(
                f"{path}: median sample gap {gap / NS_PER_MS:.3f} ms is not within "
                f"{DRIFT_TOLERANCE:.0%} of the {1e3 / rate_hz:.3f} ms period "
                f"of {rate_hz} Hz"
            )
    return ts


def _parse_eeg_csv(path: Path, manifest: SessionManifest) -> EegRecording:
    names = [c.name for c in manifest.montage]
    rows = _lines(path)
    header = next(rows, (1, ""))[1]
    expected = "timestamp_ns," + ",".join(names)
    if header != expected:
        raise DataError(
            f"{path}:1: header does not match the manifest montage\n"
            f"  expected: {expected}\n  found:    {header}"
        )
    lines: list[int] = []
    t: list[int] = []
    values: list[list[float]] = []
    for lineno, line in rows:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(names) + 1:
            raise DataError(
                f"{path}:{lineno}: expected {len(names) + 1} fields, found {len(parts)}"
            )
        try:
            t.append(int(parts[0]))
            values.append([float(p) for p in parts[1:]])
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from e
        lines.append(lineno)
    if not lines:
        raise DataError(f"{path}: no samples")
    samples = np.array(values, dtype=np.float64)
    timestamps = _check_stream(
        path, lines, t, samples, names, rate_hz=manifest.sample_rate_hz
    )
    return EegRecording(
        channels=list(manifest.montage),
        timestamps=timestamps,
        samples=samples.T,
        sample_rate_hz=manifest.sample_rate_hz,
    )


def _parse_joystick_jsonl(path: Path) -> JoystickStream:
    lines: list[int] = []
    t: list[int] = []
    values: list[list[float]] = []
    for lineno, line in _lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            t_ns, axes = obj["t_ns"], [obj["vx"], obj["wz"]]
        except (ValueError, RecursionError, KeyError, TypeError) as e:
            raise DataError(
                f"{path}:{lineno}: expected a JSON object with t_ns, vx and wz: {e!r}"
            ) from e
        # bool is an int subclass; a JSON integer parses to exactly int
        if type(t_ns) is not int:
            raise DataError(
                f"{path}:{lineno}: t_ns {json.dumps(t_ns)} is not a JSON integer"
            )
        if any(type(v) not in (int, float) for v in axes):
            raise DataError(f"{path}:{lineno}: vx and wz must be JSON numbers")
        try:
            values.append([float(v) for v in axes])
        except OverflowError as e:
            raise DataError(f"{path}:{lineno}: {e}") from e
        t.append(t_ns)
        lines.append(lineno)
    if not lines:
        raise DataError(f"{path}: no joystick samples")
    v = np.array(values, dtype=np.float64)
    timestamps = _check_stream(path, lines, t, v, ["vx", "wz"], limit=1.0)
    return JoystickStream(timestamps, v[:, 0], v[:, 1])


def load_session(path: str | Path) -> SessionDir:
    """Parse and validate one session directory."""
    root = Path(path)
    for name in (MANIFEST_NAME, EEG_NAME, JOYSTICK_NAME):
        if not (root / name).is_file():
            raise DataError(f"{root}: missing {name}")
    manifest = _parse_manifest(root / MANIFEST_NAME)
    eeg = _parse_eeg_csv(root / EEG_NAME, manifest)
    joystick = _parse_joystick_jsonl(root / JOYSTICK_NAME)
    return SessionDir(manifest, eeg, joystick)


# --------------------------------------------------------------------------
# Writers (used by the simulator and by the preprocessing stage, whose
# output is itself a loadable session directory)
# --------------------------------------------------------------------------


def write_session_dir(path: str | Path, session: SessionDir) -> Path:
    """Write a session to disk in the exact on-disk formats parsed above."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    m = session.manifest
    manifest = {
        "format_version": FORMAT_VERSION,
        "subject_id": m.subject_id,
        "session_id": m.session_id,
        "sample_rate_hz": m.sample_rate_hz,
        "channels": [
            {"name": c.name, "pos": [float(v) for v in c.position]} for c in m.montage
        ],
        "reserved_streams": list(m.reserved_streams),
    }
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")

    names = [c.name for c in m.montage]
    with (root / EEG_NAME).open("w", newline="") as fh:
        fh.write("timestamp_ns," + ",".join(names) + "\n")
        cols = session.eeg.samples  # (C, T)
        for i, t in enumerate(session.eeg.timestamps.tolist()):
            fh.write(f"{t}," + ",".join(f"{v:.6f}" for v in cols[:, i]) + "\n")

    with (root / JOYSTICK_NAME).open("w") as fh:
        joy = session.joystick
        for i in range(len(joy)):
            fh.write(
                json.dumps(
                    {"t_ns": int(joy.t_ns[i]), "vx": float(joy.v_x[i]), "wz": float(joy.omega_z[i])}
                )
                + "\n"
            )
    return root
