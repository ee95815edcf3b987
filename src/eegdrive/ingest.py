"""Session directory ingestion and cross-stream timestamp alignment.

A session directory holds exactly three files::

    manifest.json    identity, sample rate, montage with unit-sphere positions
    eeg.csv          header ``timestamp_ns,<ch1>,...,<chC>``, microvolt samples
    joystick.jsonl   one JSON object per line: {"t_ns": ..., "vx": ..., "wz": ...}

All three must be UTF-8, and each is decoded once (``read_lines``). The
manifest's channels must form a valid ``session.Montage`` (the fault names
the channel), and the EEG header must match that montage exactly. The EEG
body is parsed in one bulk call (``parse_rows``) and the joystick stream one
JSON line at a time; both check only syntax and keep each row's file line.
``_check_stream`` then applies every stream rule to the parsed columns at
once and reports the first broken row as ``path:line``:

- timestamps are integers in [0, 2^63) and strictly increase;
- EEG samples are finite;
- joystick ``vx`` and ``wz`` are finite and within [-1, 1] (rejected, not
  clamped), and ``t_ns`` is a JSON integer;
- the median EEG sample gap is within ``DRIFT_TOLERANCE`` of the period
  the manifest's sample rate implies.

``load_session`` reads all three files; ``load_recording`` reads only the
manifest and the EEG, for a stage that needs no joystick stream.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .session import NS_PER_MS, NS_PER_S, EegRecording, JoystickStream, Montage

MANIFEST_NAME = "manifest.json"
EEG_NAME = "eeg.csv"
JOYSTICK_NAME = "joystick.jsonl"
FORMAT_VERSION = 1
MAX_TIMESTAMP_NS = 2**63 - 1
#: Largest fractional difference allowed between the median EEG sample gap
#: and the period the manifest's sample rate implies.
DRIFT_TOLERANCE = 0.01
#: EEG rows formatted per block when writing: converting a whole recording
#: to Python floats at once would add ~13 MB to peak memory for 200 s.
EEG_ROWS_PER_BLOCK = 1024


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
    """A fully parsed session: its identifiers plus both validated streams.

    The montage and the sample rate are owned by ``eeg``; the manifest file
    is written from, and parsed back into, these fields and that recording.
    """

    subject_id: str
    session_id: str
    eeg: EegRecording
    joystick: JoystickStream
    reserved_streams: tuple[str, ...] = ()


def read_lines(path: Path) -> list[str]:
    """The lines of a UTF-8 file, split at each LF only: a CR before it stays.

    The file is decoded once; a byte that is not UTF-8 is reported as
    ``path:line``, the line found by counting the newlines before it.
    """
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as e:
        lineno = raw.count(b"\n", 0, e.start) + 1
        raise DataError(f"{path}:{lineno}: not UTF-8: {e}") from e


def parse_rows(path: Path, lines: list[str], dtype) -> tuple[np.ndarray, list[int]]:
    """Parse the comma-separated body ``lines[1:]`` into a structured array
    of ``dtype`` in one bulk call; returns it and the file line of each row.

    Like ``np.loadtxt``, lines that are empty or a lone CR are skipped. When
    the bulk parse fails, the lines are parsed one at a time and the first
    that fails is reported as ``path:line``: a wrong field count as such,
    any other fault with numpy's message less its row and column, which
    count within the one-line parse, not the file.
    """
    dtype = np.dtype(dtype)
    n_fields = sum(math.prod(dtype[name].shape) for name in dtype.names)

    def load(body: list[str]) -> np.ndarray:
        return np.loadtxt(body, delimiter=",", dtype=dtype, ndmin=1, comments=None)

    def fault(line: str, e: ValueError) -> str:
        found = len(line.split(","))
        if found != n_fields:
            return f"expected {n_fields} fields, found {found}"
        return re.sub(r" at row \d+(, column \d+)?", "", str(e))

    body = lines[1:]
    with warnings.catch_warnings():
        # an empty body is zero rows, for the caller to judge
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = load(body)
        except ValueError as bulk:
            for lineno, line in enumerate(body, start=2):
                try:
                    load([line])
                except ValueError as e:
                    raise DataError(f"{path}:{lineno}: {fault(line, e)}") from e
            raise DataError(f"{path}: {bulk}") from bulk
    return rows, [n for n, line in enumerate(body, start=2) if line not in ("", "\r")]


def _parse_manifest(path: Path) -> tuple[dict, Montage, float]:
    """Returns the SessionDir identifier fields, the montage and the rate."""
    try:
        raw = json.loads("\n".join(read_lines(path)))
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
    names, positions = [], []
    for k, ch in enumerate(raw["channels"]):
        try:
            names.append(str(ch["name"]))
            positions.append([float(v) for v in ch["pos"]])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise DataError(f"{path}: channel entry {k} invalid: {e}") from e
        if len(positions[-1]) != 3:
            raise DataError(
                f"{path}: channel {names[-1]!r}: pos has {len(positions[-1])} "
                "coordinates, expected 3"
            )
    try:
        ids = {
            "subject_id": str(raw["subject_id"]),
            "session_id": str(raw["session_id"]),
            "reserved_streams": tuple(str(s) for s in raw.get("reserved_streams", ())),
        }
        rate = float(raw["sample_rate_hz"])
        montage = Montage(tuple(names), positions)
    except (TypeError, ValueError, OverflowError) as e:
        raise DataError(f"{path}: {e}") from e
    if not ids["subject_id"] or not ids["session_id"]:
        raise DataError(f"{path}: subject_id and session_id must be non-empty")
    if not (rate > 0):
        raise DataError(f"{path}: sample_rate_hz must be positive")
    return ids, montage, rate


def _check_stream(
    path: Path,
    lines: list[int],
    ts: np.ndarray,
    values: np.ndarray,
    names: Sequence[str],
    limit: float = math.inf,
    rate_hz: float | None = None,
) -> np.ndarray:
    """Apply every stream rule to one parsed file at once.

    ``lines`` holds the file line of each row, ``ts`` its timestamp as parsed
    (uint64 from a CSV, so 2^63 still reaches the range rule) and ``values``
    its (n_rows, len(names)) data. Row rules: timestamps lie in [0, 2^63)
    and strictly increase, and values are finite and within [-limit, limit].
    The first row that breaks a rule is reported as ``path:line``. With
    ``rate_hz`` set, the median timestamp gap must also lie within
    DRIFT_TOLERANCE of the period that rate implies. Returns the timestamps
    as int64.
    """
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


def _parse_eeg_csv(path: Path, montage: Montage, rate_hz: float) -> EegRecording:
    names = montage.names
    lines = read_lines(path)
    header = lines[0].rstrip("\r")
    expected = "timestamp_ns," + ",".join(names)
    if header != expected:
        raise DataError(
            f"{path}:1: header does not match the manifest montage\n"
            f"  expected: {expected}\n  found:    {header}"
        )
    rows, numbered = parse_rows(
        path, lines, [("t", np.uint64), ("x", np.float64, (len(names),))]
    )
    if not len(rows):
        raise DataError(f"{path}: no samples")
    samples = rows["x"]
    timestamps = _check_stream(path, numbered, rows["t"], samples, names, rate_hz=rate_hz)
    return EegRecording(montage, timestamps, samples.T, rate_hz)


def _parse_joystick_jsonl(path: Path) -> JoystickStream:
    lines: list[int] = []
    t: list[int] = []
    values: list[list[float]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
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
    try:
        ts = np.array(t, dtype=np.int64)
    except OverflowError:
        ts = np.array(t, dtype=object)  # exact Python ints, for the range rule
    v = np.array(values, dtype=np.float64)
    timestamps = _check_stream(path, lines, ts, v, ["vx", "wz"], limit=1.0)
    return JoystickStream(timestamps, v[:, 0], v[:, 1])


def load_recording(path: str | Path) -> tuple[dict, EegRecording]:
    """Parse and validate the manifest and EEG of one session directory;
    returns the SessionDir identifier fields and the recording. The joystick
    stream is neither read nor required."""
    root = Path(path)
    for name in (MANIFEST_NAME, EEG_NAME):
        if not (root / name).is_file():
            raise DataError(f"{root}: missing {name}")
    ids, montage, rate_hz = _parse_manifest(root / MANIFEST_NAME)
    return ids, _parse_eeg_csv(root / EEG_NAME, montage, rate_hz)


def load_session(path: str | Path) -> SessionDir:
    """Parse and validate one session directory."""
    root = Path(path)
    ids, eeg = load_recording(root)
    if not (root / JOYSTICK_NAME).is_file():
        raise DataError(f"{root}: missing {JOYSTICK_NAME}")
    joystick = _parse_joystick_jsonl(root / JOYSTICK_NAME)
    return SessionDir(eeg=eeg, joystick=joystick, **ids)


# --------------------------------------------------------------------------
# Writers (used by the simulator and by the preprocessing stage, whose
# output is itself a loadable session directory)
# --------------------------------------------------------------------------


def write_session_dir(path: str | Path, session: SessionDir) -> Path:
    """Write a session to disk in the exact on-disk formats parsed above."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    eeg = session.eeg
    montage = eeg.montage
    manifest = {
        "format_version": FORMAT_VERSION,
        "subject_id": session.subject_id,
        "session_id": session.session_id,
        "sample_rate_hz": eeg.sample_rate_hz,
        "channels": [
            {"name": n, "pos": p}
            for n, p in zip(montage.names, montage.positions.tolist())
        ],
        "reserved_streams": list(session.reserved_streams),
    }
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")

    row = "%d" + ",%.6f" * eeg.n_channels + "\n"
    with (root / EEG_NAME).open("w", newline="") as fh:
        fh.write("timestamp_ns," + ",".join(montage.names) + "\n")
        for start in range(0, eeg.n_samples, EEG_ROWS_PER_BLOCK):
            cols = slice(start, start + EEG_ROWS_PER_BLOCK)
            ts, x = eeg.timestamps[cols].tolist(), eeg.samples[:, cols].tolist()
            fh.writelines(row % r for r in zip(ts, *x))

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
