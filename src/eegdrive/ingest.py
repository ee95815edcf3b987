"""Session directory ingestion and cross-stream timestamp alignment.

A session directory holds these three files, the only ones read (the
simulator adds ``truth_labels.csv``, which no stage reads)::

    manifest.json    identity, sample rate, montage with unit-sphere positions
    eeg.csv          header ``timestamp_ns,<ch1>,...,<chC>``, microvolt samples
    joystick.jsonl   one JSON object per line: {"t_ns": ..., "vx": ..., "wz": ...}

All three must be UTF-8, and each is decoded once: the manifest by
``decode_json``, the decode of every JSON file but the joystick stream, the
other two by ``read_lines``. The manifest's channels must form a valid
``session.Montage`` (the fault names the channel), and the EEG header must
match that montage exactly. The EEG body is parsed in one bulk call
(``parse_rows``), and the joystick stream in one ``json.loads`` call when
every line is one flat object, else one line at a time; both check only
syntax. ``_check_stream`` then applies every stream rule to the parsed
columns at once and reports the first broken row as ``path:line``, the line
counted only for that row:

- timestamps are integers in [0, 2^63) and strictly increase;
- EEG samples are finite;
- joystick ``vx`` and ``wz`` are finite and within [-1, 1] (rejected, not
  clamped), and ``t_ns`` is a JSON integer;
- the median EEG sample gap is within ``DRIFT_TOLERANCE`` of the period
  the manifest's sample rate implies.

``load_session`` reads all three files; ``load_recording`` reads only the
manifest and the EEG, for a stage that needs no joystick stream.

The writers render numeric CSV rows with numpy (``format_rows``), byte for
byte as Python's ``%d`` and ``%.6f`` would, render the joystick stream in
one pass, and write each file through a temp file that replaces it only
once complete (``write_replacing``), as ``write_json`` does.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

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
#: EEG rows rendered per ``format_rows`` call when writing: a block's
#: temporaries, a few arrays of the block's size, peak at about 1.7 MB for
#: 16 channels, half the samples of a 200 s recording.
EEG_ROWS_PER_BLOCK = 1024


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
    return rows


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
        raise DataError(f"{path}:{line_of(i)}: {rules[k][1](i)}")
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
    rows = parse_rows(path, lines, [("t", np.uint64), ("x", np.float64, (len(names),))])
    if not len(rows):
        raise DataError(f"{path}: no samples")
    samples = rows["x"]
    timestamps = _check_stream(
        path,
        lambda i: _file_line(lines, i, 2, _is_blank_row),
        rows["t"],
        samples,
        names,
        rate_hz=rate_hz,
    )
    return EegRecording(montage, timestamps, samples.T, rate_hz)


def _decode_flat_lines(lines: list[str]) -> tuple[list, np.ndarray] | None:
    """The ``t_ns`` values and (n, 2) ``vx``, ``wz`` floats of a joystick
    stream, decoded in one ``json.loads`` call; None when any rule fails,
    for ``_decode_each_line`` to find and report.

    Only a stream whose every non-blank line is one flat object is decoded
    here: stripped of JSON whitespace, each line starts with its only "{"
    and ends with its only "}", and no "[" or "]" appears. Joined with a
    newline, which no JSON string may hold, those lines then decode to
    exactly the objects that one decode per line would give.
    """
    body = [line.strip(" \t\r") for line in lines if not _is_blank_json(line)]
    text = ",\n".join(body)
    n = len(body)
    if not (
        n
        and text[0] == "{"
        and text[-1] == "}"
        and text.count("},\n{") == n - 1
        and text.count("{") == text.count("}") == n
        and "[" not in text
        and "]" not in text
    ):
        return None
    try:
        objs = json.loads("[" + text + "]")
        t = [obj["t_ns"] for obj in objs]
        axes = [(obj["vx"], obj["wz"]) for obj in objs]
        numbers = set(map(type, itertools.chain.from_iterable(axes)))
        if set(map(type, t)) != {int} or not numbers <= {int, float}:
            return None
        return t, np.array(axes, dtype=np.float64)
    except (ValueError, KeyError, OverflowError):
        return None


def _decode_each_line(path: Path, lines: list[str]) -> tuple[list, np.ndarray]:
    """As ``_decode_flat_lines``, one line at a time: the first line that
    breaks a rule is reported as ``path:line``."""
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
    lines = read_lines(path)
    t, v = _decode_flat_lines(lines) or _decode_each_line(path, lines)
    if not t:
        raise DataError(f"{path}: no joystick samples")
    try:
        ts = np.array(t, dtype=np.int64)
    except OverflowError:
        ts = np.array(t, dtype=object)  # exact Python ints, for the range rule
    timestamps = _check_stream(
        path, lambda i: _file_line(lines, i, 1, _is_blank_json), ts, v, ["vx", "wz"], limit=1.0
    )
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
    with np.errstate(over="ignore", invalid="ignore"):  # to inf, and inf - inf
        scaled = np.abs(x)
        scaled *= 1e6
        rounded = np.rint(scaled)
        odd = ~((np.abs(scaled - rounded) < 0.5) & (scaled < 2.0**52))
    odd_rows = odd.any(axis=1)
    for c in given:
        odd_rows |= c < 0
    rendered = given
    if odd_rows.any():  # rendered as zeros here, then replaced
        rounded[odd] = 0.0
        rendered = [np.maximum(c, 0) for c in given]
    units = rounded.astype(np.int64)
    whole = units // 10**6
    fraction = units - 10**6 * whole
    high = fraction // 1000
    low = fraction - 1000 * high

    # a row: each integer's cells, then per float the integer part's cells
    # (the first shifted a byte to make room for the sign), "." and three
    # digits, and three digits; a separator fills the NUL of each value's
    # last cell
    columns = [_digit_cells(c) for c in rendered]
    lead = [cell for column in columns for cell in column]
    last = np.cumsum([len(column) for column in columns])
    whole_cells = _digit_cells(whole)
    whole_cells[0] = (whole_cells[0] << 8) | np.signbit(x) * np.uint32(ord("-"))
    per_float = len(whole_cells) + 2
    cells = np.empty((n, len(lead) + x.shape[1] * per_float), "<u4")
    for k, cell in enumerate(lead):
        cells[:, k] = cell
    fields = cells[:, len(lead) :].reshape(n, x.shape[1], per_float)
    for k, cell in enumerate(whole_cells):
        fields[:, :, k] = cell
    fields[:, :, -2] = _POINT_GROUPS[high]
    fields[:, :, -1] = _GROUPS[low]
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
        "reserved_streams": list(session.reserved_streams),
    }
    write_replacing(root / MANIFEST_NAME, [(json.dumps(manifest, indent=2) + "\n").encode()])

    header = ("timestamp_ns," + ",".join(montage.names) + "\n").encode()
    blocks = (
        slice(start, start + EEG_ROWS_PER_BLOCK)
        for start in range(0, eeg.n_samples, EEG_ROWS_PER_BLOCK)
    )
    write_replacing(
        root / EEG_NAME,
        itertools.chain(
            [header],
            (format_rows([eeg.timestamps[b]], eeg.samples[:, b].T) for b in blocks),
        ),
    )

    joy = session.joystick
    lines = zip(joy.t_ns.tolist(), _json_numbers(joy.v_x), _json_numbers(joy.omega_z))
    text = "".join(f'{{"t_ns": {t}, "vx": {vx}, "wz": {wz}}}\n' for t, vx, wz in lines)
    write_replacing(root / JOYSTICK_NAME, [text.encode()])
    return root
