"""Window tensor files: a raw little-endian float32 blob plus a JSON sidecar.

The blob is row-major with shape (n_windows, n_channels, window_len). The
sidecar carries everything needed to interpret it:

    {"shape": [n, C, S], "dtype": "f32le", "labels": [...],
     "delta_ms": 300, "partition": "train"}

``write_windows`` deletes the old sidecar first and writes it last, each
file through ``ingest.write_replacing``, so an interrupted write leaves a
blob without a sidecar, which ``read_windows`` rejects.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import write_replacing
from .session import N_CLASSES

DTYPE_TAG = "f32le"
_DTYPE = np.dtype("<f4")


def write_windows(
    base: str | Path,
    data: np.ndarray,
    labels,
    delta_ms: int,
    partition: str,
) -> tuple[Path, Path]:
    """Write ``<base>.f32``, then ``<base>.json``; returns both paths."""
    base = Path(base)
    arr = np.ascontiguousarray(data, dtype=_DTYPE)
    if arr.ndim != 3:
        raise ValueError(f"window tensor must be 3-D, got shape {arr.shape}")
    labels = [int(v) for v in labels]
    if len(labels) != arr.shape[0]:
        raise ValueError(
            f"{len(labels)} labels for {arr.shape[0]} windows"
        )
    bin_path = base.with_suffix(".f32")
    json_path = base.with_suffix(".json")
    sidecar = {
        "shape": list(arr.shape),
        "dtype": DTYPE_TAG,
        "labels": labels,
        "delta_ms": int(delta_ms),
        "partition": str(partition),
    }
    json_path.unlink(missing_ok=True)
    write_replacing(bin_path, [arr.data])
    write_replacing(json_path, [(json.dumps(sidecar) + "\n").encode()])
    return bin_path, json_path


def read_windows(base: str | Path, delta_ms: int) -> tuple[np.ndarray, np.ndarray]:
    """Read a window tensor pair written for horizon ``delta_ms``; returns
    (data, labels). A sidecar written for another horizon is a DataError."""
    base = Path(base)
    bin_path = base.with_suffix(".f32")
    json_path = base.with_suffix(".json")
    for p in (bin_path, json_path):
        if not p.is_file():
            raise DataError(f"missing window tensor file {p}")
    try:
        sidecar = json.loads(json_path.read_text())
        shape, labels = list(sidecar["shape"]), list(sidecar["labels"])
        stored, dtype = sidecar["delta_ms"], sidecar["dtype"]
    except (KeyError, TypeError, ValueError) as e:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{json_path}: invalid sidecar: {e!r}") from e
    for key, values in (("shape", shape), ("labels", labels), ("delta_ms", [stored])):
        bad = [v for v in values if type(v) is not int]  # bool and float refused
        if bad:
            raise DataError(f"{json_path}: {key} must be JSON integers, got {bad[0]!r}")
    if stored != delta_ms:
        raise DataError(f"{json_path}: windows are for delta_ms {stored}, not {delta_ms}")
    bad = [v for v in labels if not 0 <= v < N_CLASSES]
    if bad:
        raise DataError(f"{json_path}: label {bad[0]} outside [0, {N_CLASSES})")
    labels = np.asarray(labels, dtype=np.int64)
    if dtype != DTYPE_TAG:
        raise DataError(f"{json_path}: unsupported dtype {dtype!r}")
    if len(shape) != 3 or min(shape) < 0:
        raise DataError(f"{json_path}: shape must have 3 dims, none negative, got {shape}")
    if len(labels) != shape[0]:
        raise DataError(f"{json_path}: {len(labels)} labels for {shape[0]} windows")
    raw = np.fromfile(bin_path, dtype=_DTYPE)
    expected = shape[0] * shape[1] * shape[2]
    if raw.size != expected:
        raise DataError(
            f"{bin_path}: holds {raw.size} float32 values, sidecar shape "
            f"{shape} needs {expected}"
        )
    return raw.reshape(shape), labels
