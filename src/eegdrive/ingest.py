"""Session directory ingestion and cross-stream timestamp alignment.

A session directory holds exactly three files::

    manifest.json    identity, sample rate, montage with unit-sphere positions
    eeg.csv          header ``timestamp_ns,<ch1>,...,<chC>``, microvolt samples
    joystick.jsonl   one JSON object per line: {"t_ns": ..., "vx": ..., "wz": ...}

Parsing is strict: the first malformed row aborts with the file name and
line number, joystick values outside [-1, 1] are rejected rather than
clamped, and the EEG header must match the manifest montage exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .session import (
    NS_PER_MS,
    ChannelMeta,
    EegRecording,
    JoystickStream,
    SessionManifest,
)

MANIFEST_NAME = "manifest.json"
EEG_NAME = "eeg.csv"
JOYSTICK_NAME = "joystick.jsonl"
FORMAT_VERSION = 1


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
    joystick sample. Both inputs must be strictly increasing; the sweep is a
    single two-pointer pass, O(T + J).
    """
    eeg = np.asarray(eeg_ts, dtype=np.int64)
    joy = np.asarray(joy_ts, dtype=np.int64)
    out = np.full(len(eeg), -1, dtype=np.int64)
    if len(joy) == 0 or len(eeg) == 0:
        return out
    max_gap = cfg.max_gap_ns
    joy_list = joy.tolist()  # plain ints: exact arithmetic, faster scalar access
    n_joy = len(joy_list)
    j = 0
    for i, t in enumerate(eeg.tolist()):
        while j + 1 < n_joy and joy_list[j + 1] < t:
            j += 1
        # joy[j] is the last stamp < t (or index 0); joy[j+1] is the first >= t.
        best = j
        best_d = abs(t - joy_list[j])
        if j + 1 < n_joy:
            d_next = joy_list[j + 1] - t
            if d_next < best_d:  # strict: equal distance keeps the earlier stamp
                best, best_d = j + 1, d_next
        if best_d <= max_gap:
            out[i] = best
    return out


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


def _parse_manifest(path: Path) -> SessionManifest:
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format_version {version!r}")
    required = {"subject_id", "session_id", "sample_rate_hz", "channels"}
    missing = required - raw.keys()
    if missing:
        raise DataError(f"{path}: manifest missing keys {sorted(missing)}")
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
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


def _parse_eeg_csv(path: Path, manifest: SessionManifest) -> EegRecording:
    names = [c.name for c in manifest.montage]
    n_ch = len(names)
    with path.open("r", newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        expected = "timestamp_ns," + ",".join(names)
        if header != expected:
            raise DataError(
                f"{path}:1: header does not match the manifest montage\n"
                f"  expected: {expected}\n  found:    {header}"
            )
        timestamps: list[int] = []
        rows: list[list[float]] = []
        blank_lines: list[int] = []
        prev = None
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if not line:
                blank_lines.append(lineno)
                continue
            parts = line.split(",")
            if len(parts) != n_ch + 1:
                raise DataError(
                    f"{path}:{lineno}: expected {n_ch + 1} fields, found {len(parts)}"
                )
            try:
                t = int(parts[0])
                vals = [float(p) for p in parts[1:]]
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}") from e
            if t < 0:
                raise DataError(f"{path}:{lineno}: negative timestamp {t}")
            if prev is not None and t <= prev:
                raise DataError(
                    f"{path}:{lineno}: timestamp {t} does not increase past {prev}"
                )
            prev = t
            timestamps.append(t)
            rows.append(vals)
    if not timestamps:
        raise DataError(f"{path}: no samples")
    samples = np.array(rows, dtype=np.float64).T
    finite = np.isfinite(samples)
    if not finite.all():
        i, ch = np.argwhere(~finite.T)[0]  # first bad row, then its channel
        lineno = int(i) + 2
        for blank in blank_lines:  # ascending; each one at or before shifts the row
            if blank <= lineno:
                lineno += 1
        raise DataError(
            f"{path}:{lineno}: non-finite sample {samples[ch, i]} "
            f"in channel {names[ch]}"
        )
    return EegRecording(
        channels=list(manifest.montage),
        timestamps=np.array(timestamps, dtype=np.int64),
        samples=samples,
        sample_rate_hz=manifest.sample_rate_hz,
    )


def _parse_joystick_jsonl(path: Path) -> JoystickStream:
    t_ns: list[int] = []
    v_x: list[float] = []
    omega_z: list[float] = []
    prev = None
    with path.open("r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                t = int(obj["t_ns"])
                vx = float(obj["vx"])
                wz = float(obj["wz"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise DataError(f"{path}:{lineno}: {e}") from e
            if not (math.isfinite(vx) and math.isfinite(wz)):
                raise DataError(f"{path}:{lineno}: non-finite joystick value")
            if abs(vx) > 1.0 or abs(wz) > 1.0:
                raise DataError(
                    f"{path}:{lineno}: joystick value outside [-1, 1] "
                    f"(vx={vx}, wz={wz})"
                )
            if t < 0:
                raise DataError(f"{path}:{lineno}: negative timestamp {t}")
            if prev is not None and t <= prev:
                raise DataError(
                    f"{path}:{lineno}: timestamp {t} does not increase past {prev}"
                )
            prev = t
            t_ns.append(t)
            v_x.append(vx)
            omega_z.append(wz)
    if not t_ns:
        raise DataError(f"{path}: no joystick samples")
    return JoystickStream(np.array(t_ns), np.array(v_x), np.array(omega_z))


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
