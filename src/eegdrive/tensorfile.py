"""The workspace's binary files: window tensor pairs and checkpoints.

A window pair is a raw little-endian float32 blob ``<base>.f32``, row-major
with shape (n_windows, n_channels, window_len), plus a JSON sidecar:

    {"shape": [n, C, S], "dtype": "f32le", "labels": [...],
     "delta_ms": 300, "partition": "train"}

where ``partition`` is the name of the pair's base path, ``train`` or
``test`` in a workspace.

A checkpoint is the magic ``EEGDRIV1``, the header's length as a
little-endian u32, the header as UTF-8 JSON, then the tensors little-endian
and row-major in the order of the header's ``tensors`` list of ``name``,
``shape`` and ``dtype``.

Every file is written through ``ingest.write_replacing``. ``write_windows``
streams the blob from (m, C, S) blocks, so no (n, C, S) tensor of a whole
partition need exist; it deletes the old sidecar first and writes it last,
so an interrupted write leaves a blob without a sidecar, which
``read_windows`` rejects. Both readers compare the bytes the declared
shapes need with the file's size (``_check_extent``) before anything is
read, allocated or reshaped.
``read_windows`` also rejects a blob that holds a non-finite value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError
from .ingest import decode_json, non_integers, write_replacing
from .session import N_CLASSES

DTYPE_TAG = "f32le"
_DTYPE = np.dtype("<f4")
CHECKPOINT_MAGIC = b"EEGDRIV1"
_LENGTH_BYTES = 4
_DTYPES = {"float32": _DTYPE, "float64": np.dtype("<f8")}


def _check_extent(path: Path, size: int, offset: int, tensors: list) -> None:
    """Check that the (name, dtype, shape) ``tensors`` fill the ``size``-byte
    file ``path`` exactly from byte ``offset``. The byte counts are Python
    ints, so no declared shape overflows them."""
    end = offset + sum(math.prod(shape) * dtype.itemsize for _, dtype, shape in tensors)
    if end != size:
        problem = "truncated tensor data" if end > size else "trailing bytes after tensor data"
        counts = ", ".join(f"{math.prod(shape)} {dtype.name} values" for _, dtype, shape in tensors)
        raise DataError(f"{path}: {problem}: {counts} end at byte {end}, the file at {size}")


def write_windows(
    base: str | Path,
    blocks: Iterable[np.ndarray],
    labels,
    delta_ms: int,
) -> tuple[Path, Path]:
    """Write the (m, C, S) window ``blocks`` in order as ``<base>.f32``, then
    ``<base>.json`` for partition ``base.name``; returns both paths. The
    blocks are consumed one at a time as the blob is written, and the
    sidecar's shape is that of their concatenation. A block that is not 3-D or whose (C, S) differs from the
    first block's, no block at all, and a label count other than the
    window count are each a ValueError raised before the blob is moved into
    place, so the old blob stays and no temp file is left."""
    base = Path(base)
    labels = [int(v) for v in labels]
    bin_path = base.with_suffix(".f32")
    json_path = base.with_suffix(".json")
    shape = []

    def chunks():
        for block in blocks:
            arr = np.ascontiguousarray(block, dtype=_DTYPE)
            if arr.ndim != 3:
                raise ValueError(f"window block must be 3-D, got shape {arr.shape}")
            if not shape:
                shape[:] = [0, *arr.shape[1:]]
            elif list(arr.shape[1:]) != shape[1:]:
                raise ValueError(f"window block of shape {arr.shape} after blocks "
                                 f"of {shape[1]} channels x {shape[2]} samples")
            shape[0] += len(arr)
            yield arr.data
        if not shape:
            raise ValueError("no window blocks to write")
        if len(labels) != shape[0]:
            raise ValueError(f"{len(labels)} labels for {shape[0]} windows")

    json_path.unlink(missing_ok=True)
    write_replacing(bin_path, chunks())
    sidecar = {
        "shape": shape,
        "dtype": DTYPE_TAG,
        "labels": labels,
        "delta_ms": int(delta_ms),
        "partition": base.name,
    }
    write_replacing(json_path, [(json.dumps(sidecar) + "\n").encode()])
    return bin_path, json_path


def read_windows(base: str | Path, delta_ms: int) -> tuple[np.ndarray, np.ndarray]:
    """Read a window tensor pair written for horizon ``delta_ms``; returns
    (data, labels). A sidecar written for another horizon or partition, or
    for no windows, and a non-finite value in the blob are each a DataError;
    the blob is checked by its min and max, which NaN propagates to, and the
    first window holding such a value is found only on a fault."""
    base = Path(base)
    bin_path = base.with_suffix(".f32")
    json_path = base.with_suffix(".json")
    for p in (bin_path, json_path):
        if not p.is_file():
            raise DataError(f"missing window tensor file {p}")
    sidecar = decode_json(json_path, "invalid sidecar")
    try:
        shape, labels = list(sidecar["shape"]), list(sidecar["labels"])
        stored, partition = sidecar["delta_ms"], sidecar["partition"]
        dtype = sidecar["dtype"]
    except (KeyError, TypeError) as e:
        raise DataError(f"{json_path}: invalid sidecar: {e!r}") from e
    for key, values in (("shape", shape), ("labels", labels), ("delta_ms", [stored])):
        bad = non_integers(values)
        if bad:
            raise DataError(f"{json_path}: {key} must be JSON integers, got {bad[0]!r}")
    if stored != delta_ms:
        raise DataError(f"{json_path}: windows are for delta_ms {stored}, not {delta_ms}")
    if partition != base.name:
        raise DataError(
            f"{json_path}: windows are for partition {partition!r}, not {base.name!r}"
        )
    bad = non_integers(labels, 0, N_CLASSES)
    if bad:
        raise DataError(f"{json_path}: label {bad[0]} outside [0, {N_CLASSES})")
    labels = np.asarray(labels, dtype=np.int64)
    if dtype != DTYPE_TAG:
        raise DataError(f"{json_path}: unsupported dtype {dtype!r}")
    if len(shape) != 3 or non_integers(shape, 1):
        raise DataError(f"{json_path}: shape must have 3 dims, each at least 1, got {shape}")
    if len(labels) != shape[0]:
        raise DataError(f"{json_path}: {len(labels)} labels for {shape[0]} windows")
    _check_extent(bin_path, bin_path.stat().st_size, 0, [("windows", _DTYPE, shape)])
    data = np.fromfile(bin_path, dtype=_DTYPE).reshape(shape)
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        finite = np.isfinite(data.reshape(len(data), -1))
        i = int(np.argmin(finite.all(axis=1)))
        value = data[i].ravel()[np.argmin(finite[i])]
        raise DataError(f"{bin_path}: window {i} holds the non-finite value {value}")
    return data, labels


def write_checkpoint(path: str | Path, header: dict, params: dict[str, np.ndarray]) -> Path:
    """Write ``params`` as a checkpoint: ``header`` plus the ``tensors`` list."""
    names = sorted(params)
    tensors = [
        {"name": k, "shape": list(params[k].shape), "dtype": str(params[k].dtype)}
        for k in names
    ]
    blob = json.dumps(dict(header, tensors=tensors), sort_keys=True).encode("utf-8")
    data = [np.ascontiguousarray(params[k], params[k].dtype.newbyteorder("<")).data for k in names]
    length = len(blob).to_bytes(_LENGTH_BYTES, "little")
    return write_replacing(Path(path), [CHECKPOINT_MAGIC, length, blob, *data])


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (header, tensors), the tensors in native byte order. A missing
    or truncated file, a wrong magic, a header that is not JSON or lists a
    tensor with a dtype other than float32 and float64 or a dim that is not
    a positive JSON integer, and trailing bytes are each a DataError."""
    path = Path(path)
    try:
        fh = path.open("rb")
    except FileNotFoundError as e:
        raise DataError(f"{path}: no checkpoint; train this model at this horizon first") from e
    except OSError as e:
        raise DataError(f"{path}: cannot read checkpoint: {e}") from e
    with fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a model checkpoint")
        size = path.stat().st_size
        prefix = fh.read(_LENGTH_BYTES)
        start = fh.tell() + int.from_bytes(prefix, "little")
        if len(prefix) < _LENGTH_BYTES or start > size:
            raise DataError(f"{path}: corrupt checkpoint header: it runs past byte {size}")
        header = decode_json(path, "corrupt checkpoint header", fh.read(start - fh.tell()))
        try:
            entries = [(t["name"], _DTYPES[t["dtype"]], t["shape"]) for t in header["tensors"]]
        except (KeyError, TypeError) as e:
            raise DataError(f"{path}: corrupt checkpoint header: {e!r}") from e
        for name, _, shape in entries:
            if type(name) is not str or not isinstance(shape, list) or non_integers(shape, 1):
                raise DataError(f"{path}: corrupt checkpoint header: tensor {name!r} of shape "
                                f"{shape!r}, not a string name and positive integer dims")
        _check_extent(path, size, start, entries)
        return header, {
            name: np.frombuffer(fh.read(math.prod(shape) * dtype.itemsize), dtype)
            .reshape(shape)
            .astype(dtype.newbyteorder("="))
            for name, dtype, shape in entries
        }
