"""Session directory ingestion and cross-stream timestamp alignment.

A session directory holds these three files, the only ones read (the
simulator adds ``truth_labels.csv``, which no stage reads)::

    manifest.json    identity, sample rate, montage with unit-sphere positions
    eeg.csv          header ``timestamp_ns,<ch1>,...,<chC>``, microvolt samples
    joystick.jsonl   one JSON object per line: {"t_ns": ..., "vx": ..., "wz": ...}

All three must be UTF-8, and each is decoded once: the manifest by
``decode_json``, the decode of every JSON file but the joystick stream, the
other two by ``RecalledText``. The manifest's channels must form a valid
``session.Montage`` (the fault names the channel), and the EEG header must
match that montage exactly. The EEG body is parsed in one bulk call
(``RecalledText.columns``): a pure-ASCII file straight from its bytes, its
header taken from the first line alone, and any other file, or one that
bulk parse refuses, by ``parse_rows`` over its decoded lines, which
places the fault. The joystick stream is decoded one line at a time.
Both parses check only syntax. ``_check_stream`` then applies every
stream rule to the parsed columns at once and reports the first broken
row as ``path:line`` (``raise_first_fault``), the line counted only for
that row:

- timestamps are integers in [0, 2^63) and strictly increase;
- EEG samples are finite;
- joystick ``vx`` and ``wz`` are finite and within [-1, 1] (rejected, not
  clamped), and ``t_ns`` is a JSON integer;
- the median EEG sample gap is within ``DRIFT_TOLERANCE`` of the period
  the manifest's sample rate implies.

``load_session`` reads all three files; ``load_recording`` reads only the
manifest and the EEG, for preprocess and split, which use no joystick
stream, so only label and validate parse it. Both read the samples from
the file given, by default the directory's own ``eeg.csv``, so a cleaned
``eeg.csv`` is read with its session's files.

The writers render every numeric CSV through ``write_csv``: its header,
then rows that numpy renders (``format_rows``) byte for byte as Python's
``%d`` and ``%.6f`` would. The joystick stream is rendered in one pass.
Each file is written through a temp file that replaces it only once
complete (``write_replacing``), as ``write_json`` does.

Inside a ``parse_memo()`` block a CSV this process has just written is not
parsed again. ``write_csv`` stores, under its row dtype and the sha256 of
the bytes it wrote, exactly the columns ``RecalledText.columns`` would parse
from those bytes, read-only and sharing no memory with the writer: for a
float, ``%.6f`` read back (``_read_back``). ``columns`` hashes a file's
bytes and looks the digest up; on a miss it parses them as outside a block.
Every check runs on recalled columns as on parsed ones; the file's lines
are decoded only to name the line of a fault, so each message is the same
either way. ``pipeline.run_all`` opens one block per session around
preprocess, label and split, and the entries are dropped when it closes.
Outside a block nothing is stored or looked up: the stage-by-stage
commands and every other reader parse from disk.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import re
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
#: Values rendered per ``format_rows`` call when writing a CSV, 1,024 rows
#: of a 16-channel ``eeg.csv``: a block's temporaries, a few arrays of the
#: block's size, peak at about 1.7 MB, half the samples of a 200 s
#: recording.
CSV_VALUES_PER_BLOCK = 17 * 1024


def align_nearest(eeg_ts: np.ndarray, joy_ts: np.ndarray, max_gap_ns: int) -> np.ndarray:
    """Match each EEG timestamp to its nearest joystick timestamp.

    Returns one int64 entry per EEG sample: the joystick index whose
    timestamp minimises |t_eeg - t_joy|, or -1 when the nearest candidate is
    further than ``max_gap_ns``. Exact ties break toward the earlier
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
    return np.where(best_d <= max_gap_ns, best, -1)


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


#: The open ``parse_memo()`` block's parses, keyed by a row dtype and the
#: sha256 of the file's bytes.
_MEMO: ContextVar[dict | None] = ContextVar("eegdrive_parse_memo", default=None)


@contextmanager
def parse_memo() -> Iterator[dict[tuple[np.dtype, bytes], tuple]]:
    """A block in which every CSV written by ``write_csv`` is recalled, not
    parsed, by ``RecalledText.columns`` of its unchanged bytes. Every entry
    is dropped when the block ends."""
    memo: dict[tuple[np.dtype, bytes], tuple] = {}
    token = _MEMO.set(memo)
    try:
        yield memo
    finally:
        _MEMO.reset(token)
        memo.clear()


class RecalledText:
    """A file's bytes, read once. Its lines are decoded on first use, so a
    pure-ASCII file is decoded only to place a fault.

    A file that cannot be read is a DataError naming it.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self.raw = path.read_bytes()
        except OSError as e:
            raise DataError(f"{path}: cannot read: {e}") from e

    @cached_property
    def lines(self) -> list[str]:
        """The lines, split at each LF only: a CR before it stays. A byte
        that is not UTF-8 is reported as ``path:line``, the line found by
        counting the newlines before it."""
        try:
            return self.raw.decode("utf-8").split("\n")
        except UnicodeDecodeError as e:
            lineno = self.raw.count(b"\n", 0, e.start) + 1
            raise DataError(f"{self.path}:{lineno}: not UTF-8: {e}") from e

    def header(self) -> str:
        """The first line less a trailing CR. A file that is not pure ASCII
        decodes every line first, so a bad byte anywhere is reported before
        the header; a pure-ASCII file cannot hold one, so only its first
        line is decoded."""
        if not self.raw.isascii():
            first = self.lines[0]
        else:
            end = self.raw.find(b"\n")
            first = self.raw[: end if end >= 0 else None].decode("utf-8")
        return first.rstrip("\r")

    def columns(self, dtype) -> tuple[np.ndarray, ...]:
        """The CSV body's columns, one per field of the row ``dtype``, as
        ``parse_rows`` parses them. Inside a ``parse_memo()`` block, bytes
        ``write_csv`` wrote there under ``dtype`` are recalled instead: the
        read-only columns it stored. Otherwise a pure-ASCII file is parsed
        in one bulk call straight from its bytes, and its lines are never
        decoded. Any other file, and one whose bulk parse fails, takes
        ``parse_rows``'s line path, which reports each fault."""
        dtype = np.dtype(dtype)
        memo = _MEMO.get()
        if memo:  # an empty memo has nothing to find: no hash
            recalled = memo.get((dtype, hashlib.sha256(self.raw).digest()))
            if recalled is not None:
                return recalled
        rows = None
        if self.raw.isascii():
            body = io.BytesIO(self.raw)  # shares the bytes: no copy
            body.readline()  # the header
            try:
                rows = _load_csv(body, dtype)
            except ValueError:
                pass
        if rows is None:
            rows = parse_rows(self.path, self.lines, dtype)
        return tuple(rows[name] for name in dtype.names)

    def row_line(self, i: int) -> int:
        """The file line of row ``i`` of a CSV body: the lines after the
        header that are not blank, as ``parse_rows`` reads them."""
        return _file_line(self.lines, i, 2, _is_blank_row)


def decode_json(path: Path, what: str = "", header: bytes | None = None):
    """The JSON document in the file ``path``, or in ``header``, the JSON
    header bytes of the binary file ``path``. An unreadable file, a byte
    that is not UTF-8 (placed as ``path:line`` in a JSON file), text that
    is not JSON or nests too deeply is a DataError naming ``path``, then
    ``what`` when given."""
    prefix = f"{what}: " if what else ""
    try:
        raw = path.read_bytes() if header is None else header
        return json.loads(raw.decode("utf-8"))
    except OSError as e:
        raise DataError(f"{path}: {prefix}cannot read: {e}") from e
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        where = path if header is not None else f"{path}:{line}"
        raise DataError(f"{where}: {prefix}not UTF-8: {e}") from e
    except (ValueError, RecursionError) as e:
        raise DataError(f"{path}: {prefix}invalid JSON: {e}") from e


def non_integers(values: Iterable, lo: float = -math.inf, hi: float = math.inf) -> list:
    """The entries of decoded JSON ``values`` that are not integers in
    [lo, hi). A JSON integer decodes to exactly ``int``: bool, an int
    subclass, is refused, as are float and every other type."""
    return [v for v in values if type(v) is not int or not lo <= v < hi]


def median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1)`` bit for bit when ``a`` holds no NaN: the
    mean of the middle value, or of the two middle values, of a partition.
    Unlike ``np.median`` it runs no NaN check, whose first call imports
    ``numpy.ma``."""
    n = np.shape(a)[-1]
    mid = sorted({(n - 1) // 2, n // 2})
    return np.mean(np.partition(a, mid, axis=-1)[..., mid], axis=-1)


def _is_blank_row(line: str) -> bool:
    return line in ("", "\r")


def _is_blank_json(line: str) -> bool:
    return not line.strip()


def _file_line(lines: list[str], i: int, first: int, blank: Callable[[str], bool]) -> int:
    """The file line of row ``i`` of a body that starts at file line
    ``first`` and whose rows are its lines that are not ``blank``. Parsers
    find it only for a row they report, not for every row."""
    rows = (n for n, line in enumerate(lines[first - 1 :], start=first) if not blank(line))
    return next(itertools.islice(rows, i, None))


def _load_csv(body: Iterable, dtype: np.dtype) -> np.ndarray:
    """``np.loadtxt`` of the comma-separated lines ``body`` into ``dtype``.
    Lines that are empty or a lone CR are skipped, and an empty body is
    zero rows, for the caller to judge."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(body, delimiter=",", dtype=dtype, ndmin=1, comments=None)


def parse_rows(path: Path, lines: list[str], dtype) -> np.ndarray:
    """Parse the comma-separated body ``lines[1:]`` into a structured array
    of ``dtype`` in one bulk call.

    Like ``np.loadtxt``, lines that are empty or a lone CR are skipped. When
    the bulk parse fails, the lines are parsed one at a time and the first
    that fails is reported as ``path:line``: a wrong field count as such,
    any other fault with numpy's message less its row and column, which
    count within the one-line parse, not the file.
    """
    dtype = np.dtype(dtype)
    n_fields = sum(math.prod(dtype[name].shape) for name in dtype.names)

    def fault(line: str, e: ValueError) -> str:
        found = len(line.split(","))
        if found != n_fields:
            return f"expected {n_fields} fields, found {found}"
        return re.sub(r" at row \d+(, column \d+)?", "", str(e))

    body = lines[1:]
    try:
        return _load_csv(body, dtype)
    except ValueError as bulk:
        for lineno, line in enumerate(body, start=2):
            try:
                _load_csv([line], dtype)
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {fault(line, e)}") from e
        raise DataError(f"{path}: {bulk}") from bulk


def _parse_manifest(path: Path) -> tuple[dict, Montage, float]:
    """Returns the SessionDir identifier fields, the montage and the rate."""
    raw = decode_json(path)
    if not isinstance(raw, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    version = raw.get("format_version")
    if non_integers([version]) or version != FORMAT_VERSION:
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
            name, pos = ch["name"], ch["pos"]
        except (KeyError, TypeError) as e:
            raise DataError(f"{path}: channel entry {k} invalid: {e}") from e
        if type(name) is not str:
            raise DataError(f"{path}: channel entry {k}: name must be a JSON string")
        if type(pos) is not list or any(type(v) not in (int, float) for v in pos):
            raise DataError(f"{path}: channel {name!r}: pos must be a list of JSON numbers")
        try:
            positions.append([float(v) for v in pos])
        except OverflowError as e:
            raise DataError(f"{path}: channel entry {k} invalid: {e}") from e
        names.append(name)
        if len(pos) != 3:
            raise DataError(
                f"{path}: channel {name!r}: pos has {len(pos)} coordinates, expected 3"
            )
    ids = {key: raw[key] for key in ("subject_id", "session_id")}
    for key, value in ids.items():
        if type(value) is not str:
            raise DataError(f"{path}: {key} must be a JSON string")
    if type(raw["sample_rate_hz"]) not in (int, float):
        raise DataError(f"{path}: sample_rate_hz must be a JSON number")
    try:
        rate = float(raw["sample_rate_hz"])
        montage = Montage(tuple(names), positions)
    except (ValueError, OverflowError) as e:
        raise DataError(f"{path}: {e}") from e
    if not ids["subject_id"] or not ids["session_id"]:
        raise DataError(f"{path}: subject_id and session_id must be non-empty")
    if not 0 < rate < math.inf:
        raise DataError(f"{path}: sample_rate_hz must be positive and finite")
    return ids, montage, rate


def rising_rows(ts: np.ndarray) -> np.ndarray:
    """Per row, whether its timestamp is above the previous row's; the
    first row is."""
    rising = np.ones(len(ts), dtype=bool)
    rising[1:] = ts[1:] > ts[:-1]
    return rising


def raise_first_fault(
    path: Path, line_of: Callable[[int], int], rules: list[tuple[np.ndarray, Callable]]
) -> None:
    """Raise ``path:line: message`` for the earliest row that one of
    ``rules``, (per-row fault mask, message of a row) pairs, marks; on one
    row, the rule listed first. ``line_of`` gives the file line of a row,
    asked only for the row reported."""
    broken = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(rules) if bad.any()]
    if broken:
        i, k = min(broken)
        raise DataError(f"{path}:{line_of(i)}: {rules[k][1](i)}")


def _check_stream(
    path: Path,
    line_of: Callable[[int], int],
    ts: np.ndarray,
    values: np.ndarray,
    names: Sequence[str],
    limit: float = math.inf,
    rate_hz: float | None = None,
) -> np.ndarray:
    """Apply every stream rule to one parsed file at once.

    ``line_of`` gives the file line of a row, ``ts`` its timestamp as parsed
    (uint64 from a CSV, so 2^63 still reaches the range rule) and ``values``
    its (n_rows, len(names)) data. Row rules: timestamps lie in [0, 2^63)
    and strictly increase, and values are finite and within [-limit, limit].
    The first row that breaks a rule is reported as ``path:line``. With
    ``rate_hz`` set, the median timestamp gap must also lie within
    DRIFT_TOLERANCE of the period that rate implies. Returns the timestamps
    as int64.
    """
    nonfinite = ~np.isfinite(values)

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
        (~rising_rows(ts), lambda i: f"timestamp {ts[i]} does not increase past {ts[i - 1]}"),
        (nonfinite.any(axis=1), nonfinite_msg),
    ]
    if limit < math.inf:  # no finite value is beyond an infinite limit
        beyond = np.abs(values) > limit
        rules.append((beyond.any(axis=1), beyond_msg))
    raise_first_fault(path, line_of, rules)
    ts = ts.astype(np.int64)
    if rate_hz is not None and len(ts) > 1:
        gap = float(median(np.diff(ts)))
        if not abs(gap * rate_hz / NS_PER_S - 1.0) <= DRIFT_TOLERANCE:
            raise DataError(
                f"{path}: median sample gap {gap / NS_PER_MS:.6g} ms is not within "
                f"{DRIFT_TOLERANCE:.0%} of the {1e3 / rate_hz:.6g} ms period "
                f"of {rate_hz:g} Hz"
            )
    return ts


def _parse_eeg_csv(path: Path, montage: Montage, rate_hz: float) -> EegRecording:
    names = montage.names
    text = RecalledText(path)
    expected = "timestamp_ns," + ",".join(names)
    header = text.header()
    if header != expected:
        raise DataError(
            f"{path}:1: header does not match the manifest montage\n"
            f"  expected: {expected}\n  found:    {header}"
        )
    ts, samples = text.columns(_eeg_dtype(len(names)))
    if not len(ts):
        raise DataError(f"{path}: no samples")
    timestamps = _check_stream(path, text.row_line, ts, samples, names, rate_hz=rate_hz)
    return EegRecording(montage, timestamps, samples.T, rate_hz)


def _eeg_dtype(n_channels: int) -> np.dtype:
    """One ``eeg.csv`` row: the timestamp as uint64, so 2^63 still reaches
    the range rule, and the channels' samples."""
    return np.dtype([("t", np.uint64), ("x", np.float64, (n_channels,))])


def _decode_each_line(path: Path, lines: list[str]) -> tuple[list, np.ndarray]:
    """The ``t_ns`` values and (n, 2) ``vx``, ``wz`` floats of a joystick
    stream, decoded one line at a time, blank lines skipped: the first line
    that is not one JSON object with an integer ``t_ns`` and numeric ``vx``
    and ``wz`` is reported as ``path:line``."""
    t: list[int] = []
    values: list[list[float]] = []
    for lineno, line in enumerate(lines, start=1):
        if _is_blank_json(line):
            continue
        try:
            obj = json.loads(line)
            t_ns, axes = obj["t_ns"], [obj["vx"], obj["wz"]]
        except (ValueError, RecursionError, KeyError, TypeError) as e:
            raise DataError(
                f"{path}:{lineno}: expected a JSON object with t_ns, vx and wz: {e!r}"
            ) from e
        if non_integers([t_ns]):
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
    return t, np.array(values, dtype=np.float64).reshape(-1, 2)


def _parse_joystick_jsonl(path: Path) -> JoystickStream:
    text = RecalledText(path)
    t, v = _decode_each_line(path, text.lines)
    if not len(t):
        raise DataError(f"{path}: no joystick samples")
    try:
        ts = np.asarray(t, dtype=np.int64)
    except OverflowError:
        ts = np.array(t, dtype=object)  # exact Python ints, for the range rule
    timestamps = _check_stream(
        path, lambda i: _file_line(text.lines, i, 1, _is_blank_json), ts, v, ["vx", "wz"],
        limit=1.0,
    )
    return JoystickStream(timestamps, v[:, 0], v[:, 1])


def _existing(path: Path) -> Path:
    if not path.is_file():
        raise DataError(f"missing {path}")
    return path


def load_recording(
    path: str | Path, eeg: str | Path | None = None
) -> tuple[dict, EegRecording]:
    """Parse and validate the manifest of the session directory ``path`` and
    the samples file ``eeg``, by default ``path``'s own; returns the
    SessionDir identifier fields and the recording. The joystick stream is
    neither read nor required."""
    root = Path(path)
    manifest = _existing(root / MANIFEST_NAME)
    eeg_path = _existing(root / EEG_NAME if eeg is None else Path(eeg))
    ids, montage, rate_hz = _parse_manifest(manifest)
    return ids, _parse_eeg_csv(eeg_path, montage, rate_hz)


def load_session(path: str | Path, eeg: str | Path | None = None) -> SessionDir:
    """Parse and validate one session directory, its samples read from
    ``eeg`` as ``load_recording`` does."""
    root = Path(path)
    ids, recording = load_recording(root, eeg)
    joystick = _parse_joystick_jsonl(_existing(root / JOYSTICK_NAME))
    return SessionDir(eeg=recording, joystick=joystick, **ids)


# --------------------------------------------------------------------------
# Writers (the simulator's session directories and the preprocessing
# stage's cleaned ``eeg.csv``)
# --------------------------------------------------------------------------


def _digit_table(fmt: bytes) -> np.ndarray:
    """One 4-byte cell per k in [0, 1000): ``fmt % k``, spaces made NUL."""
    return np.frombuffer(b"".join(fmt % k for k in range(1000)).replace(b" ", b"\0"), "<u4")


#: The cells ``format_rows`` builds rows from: 4 ASCII bytes each, read as
#: one little-endian uint32. NUL bytes are padding, dropped from the text.
#: Rows [0, 1000) hold a three-digit group and a NUL, [1000, 2000) the same
#: group leading its number (leading zeros NUL), and row 2000 no digits.
_GROUPS = np.concatenate(
    [_digit_table(b"%03d\0"), _digit_table(b"%3d\0"), np.zeros(1, "<u4")]
)
_NO_DIGITS = 2000
#: "." and a three-digit group: the first half of a six-digit fraction.
_POINT_GROUPS = _digit_table(b".%03d")


def _digit_cells(v: np.ndarray) -> list[np.ndarray]:
    """The decimal digits of the non-negative int64 array ``v`` in cells of
    three and a NUL, most significant first and as many as its largest
    value needs; each value's leading zeros are NUL."""
    n_cells = max(1, -(-len(str(int(v.max(initial=0)))) // 3))
    cells = []
    rest = v  # the digits not yet in a cell
    for j in range(n_cells):
        if j == n_cells - 1:  # at most one group is left, so it leads
            higher, index = None, rest + 1000
        else:  # floor division by a scalar is vectorised, unlike divmod
            higher = rest // 1000
            index = rest - 1000 * higher + 1000 * (higher == 0)
        if j:
            index[rest == 0] = _NO_DIGITS
        cells.append(_GROUPS[index])
        rest = higher
    return cells[::-1]


def _micro_units(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rint(|x| * 1e6)``, the digits of ``"%.6f" % x`` unless the mask
    also returned is set: that product is a half-integer, which ``%``
    rounds from the exact value, or at least 2^52 (so NaN and the
    infinities too)."""
    with np.errstate(over="ignore", invalid="ignore"):  # to inf, and inf - inf
        scaled = np.abs(x)
        scaled *= 1e6
        rounded = np.rint(scaled)
        odd = ~(scaled < 2.0**52)
        scaled -= rounded
        odd |= ~(np.abs(scaled, out=scaled) < 0.5)
    return rounded, odd


def _read_back(x: np.ndarray) -> np.ndarray:
    """The floats that parsing ``"%.6f" % v`` gives for each ``v`` of
    ``x``, as ``format_rows`` renders it: below 2^52 the decimal is
    ``rint(|v| * 1e6)`` millionths, and dividing that integer by 1e6
    rounds as a parse does; the sign is the sign bit's, so -0.000000
    reads -0.0. Values ``format_rows`` hands to ``%`` are parsed."""
    values, odd = _micro_units(x)
    values /= 1e6
    np.copysign(values, x, out=values)
    values[odd] = [float("%.6f" % v) for v in x[odd].tolist()]
    return values


def format_rows(ints: Sequence[np.ndarray], floats: np.ndarray | None = None) -> bytes:
    """The rows of one or more integer columns ``ints`` (each (n,)) and the
    (n, m) ``floats``, exactly as Python formats each with
    ``",".join(["%d"] * len(ints)) + ",%.6f" * m + "\\n"``.

    Every value is rendered at once into fixed-width cells of NUL-padded
    ASCII, and the NULs are dropped at the end. A float's sign is its sign
    bit, as with ``%`` (so -0.0 and -4e-7 read ``-0.000000``), and its
    digits are ``rint(|x| * 1e6)`` split into the integer part and six
    fraction digits. That product lies within half an ulp of the exact
    one, and below 2^52 it and every half-integer are multiples of its
    ulp, so it rounds as ``%.6f`` does unless it is itself a half-integer.
    A row holding such a product, one of 2^52 or more (so NaN and the
    infinities too), or a negative integer is formatted by ``%`` instead.
    """
    given = [np.asarray(c, dtype=np.int64) for c in ints]
    n = len(given[0])
    x = np.empty((n, 0)) if floats is None else np.asarray(floats, dtype=np.float64)
    rounded, odd = _micro_units(x)
    odd_rows = odd.any(axis=1)
    for c in given:
        odd_rows |= c < 0
    rendered = given
    if odd_rows.any():  # rendered as zeros here, then replaced
        rounded[odd] = 0.0
        rendered = [np.maximum(c, 0) for c in given]
    # each value-sized array is dropped once spent, so a block holds few
    # at a time
    units = rounded.astype(np.int64)
    del rounded, odd
    whole = units // 10**6
    units -= 10**6 * whole  # the fraction's millionths
    high = units // 1000
    units -= 1000 * high  # the fraction's last three digits

    # a row: each integer's cells, then per float the integer part's cells
    # (the first shifted a byte to make room for the sign), "." and three
    # digits, and three digits; a separator fills the NUL of each value's
    # last cell
    columns = [_digit_cells(c) for c in rendered]
    lead = [cell for column in columns for cell in column]
    last = np.cumsum([len(column) for column in columns])
    whole_cells = _digit_cells(whole)
    del whole
    whole_cells[0] = (whole_cells[0] << 8) | np.signbit(x) * np.uint32(ord("-"))
    per_float = len(whole_cells) + 2
    cells = np.empty((n, len(lead) + x.shape[1] * per_float), "<u4")
    for k, cell in enumerate(lead):
        cells[:, k] = cell
    fields = cells[:, len(lead) :].reshape(n, x.shape[1], per_float)
    for k, cell in enumerate(whole_cells):
        fields[:, :, k] = cell
    fields[:, :, -2] = _POINT_GROUPS[high]
    fields[:, :, -1] = _GROUPS[units]
    del whole_cells, high, units
    text = cells.view(np.uint8)
    text[:, 4 * last - 1] = ord(",")
    text[:, 4 * len(lead) :].reshape(n, x.shape[1], 4 * per_float)[:, :, -1] = ord(",")
    text[:, -1] = ord("\n")

    fmt = ",".join(["%d"] * len(given)) + ",%.6f" * x.shape[1] + "\n"
    parts, start = [], 0
    for i in np.flatnonzero(odd_rows).tolist():
        parts.append(text[start:i].tobytes().translate(None, b"\0"))
        parts.append((fmt % (*(int(c[i]) for c in given), *x[i].tolist())).encode())
        start = i + 1
    parts.append(text[start:].tobytes().translate(None, b"\0"))
    return b"".join(parts)


def write_replacing(path: Path, chunks: Iterable[bytes]) -> Path:
    """Write ``chunks`` to a temp file beside ``path``, then move it onto
    ``path``: a reader sees the old file or the whole new one. On any
    exception, raised by the writes or by the iterable, the temp file is
    removed and ``path`` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_json(path: Path, doc) -> Path:
    """Write ``doc`` as indented JSON with sorted keys, replacing ``path``."""
    return write_replacing(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])


def _json_numbers(values: np.ndarray) -> list[str]:
    """Each float of ``values`` as ``json.dumps`` renders it, from one call:
    no rendered number holds the ", " that separates them."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def write_csv(path: str | Path, header: str, dtype, ints: Sequence[np.ndarray],
              floats: np.ndarray | None = None) -> Path:
    """Write the line ``header``, then the rows of ``format_rows(ints,
    floats)`` in blocks of at most ``CSV_VALUES_PER_BLOCK`` values, replacing
    ``path``. Inside a ``parse_memo()`` block, also store under ``dtype`` and
    the sha256 of the bytes the columns ``RecalledText.columns(dtype)``
    parses from them, read-only and sharing no memory with ``ints`` or
    ``floats``: each integer column cast to its field's dtype, then the
    floats read back, block by block as each is formatted, into one array
    laid out as ``floats``."""
    path = Path(path)
    n, width = len(ints[0]), len(ints) + (0 if floats is None else floats.shape[1])
    step = max(1, CSV_VALUES_PER_BLOCK // width)
    memo = _MEMO.get()
    dtype = np.dtype(dtype)
    fields = [dtype[name] for name in dtype.names]
    # a negative value is no unsigned integer: that parse fails, so no recall
    recall = memo is not None and not any(
        f.kind == "u" and (c < 0).any() for f, c in zip(fields, ints))
    read_back = np.empty_like(floats) if recall and floats is not None else None

    def chunks() -> Iterator[bytes]:
        yield (header + "\n").encode()
        for start in range(0, n, step):
            rows = slice(start, start + step)
            block = None if floats is None else floats[rows]
            if read_back is not None:
                read_back[rows] = _read_back(block)
            yield format_rows([c[rows] for c in ints], block)

    if not recall:
        return write_replacing(path, chunks())
    digest = hashlib.sha256()

    def hashed() -> Iterator[bytes]:
        for chunk in chunks():
            digest.update(chunk)
            yield chunk

    write_replacing(path, hashed())
    columns = [c.astype(f) for f, c in zip(fields, ints)]
    columns += [] if read_back is None else [read_back]
    for c in columns:
        c.setflags(write=False)
    memo[dtype, digest.digest()] = tuple(columns)
    return path


def write_eeg_csv(path: str | Path, eeg: EegRecording) -> Path:
    """Write ``eeg`` as an ``eeg.csv`` file, replacing ``path``."""
    return write_csv(
        path, "timestamp_ns," + ",".join(eeg.montage.names),
        _eeg_dtype(eeg.n_channels), [eeg.timestamps], eeg.samples.T,
    )


def write_session_dir(path: str | Path, session: SessionDir) -> Path:
    """Write a session to disk in the exact on-disk formats parsed above,
    each file through ``write_replacing``."""
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
    }
    write_replacing(root / MANIFEST_NAME, [(json.dumps(manifest, indent=2) + "\n").encode()])
    write_eeg_csv(root / EEG_NAME, eeg)
    joy = session.joystick
    lines = zip(joy.t_ns.tolist(), _json_numbers(joy.v_x), _json_numbers(joy.omega_z))
    text = "".join(f'{{"t_ns": {t}, "vx": {vx}, "wz": {wz}}}\n' for t, vx, wz in lines)
    write_replacing(root / JOYSTICK_NAME, [text.encode()])
    return root
