"""Window tensor container round trips and corruption handling."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from eegdrive.errors import DataError
from eegdrive.tensorfile import read_windows, write_windows


def _sample(rng, n=6, c=4, s=25):
    data = rng.standard_normal((n, c, s)).astype(np.float32)
    labels = rng.integers(0, 5, size=n)
    return data, labels


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data, labels = _sample(rng)
    write_windows(tmp_path / "train", [data], labels, 300, "train")
    back, lab = read_windows(tmp_path / "train", 300)
    assert np.array_equal(back, data)
    assert back.dtype == np.float32
    assert np.array_equal(lab, labels)


def test_float64_input_is_stored_as_float32(tmp_path):
    data = np.full((2, 3, 4), 1.0 / 3.0, dtype=np.float64)
    write_windows(tmp_path / "w", [data], [0, 1], 0, "test")
    back, _ = read_windows(tmp_path / "w", 0)
    assert np.array_equal(back, data.astype(np.float32))


def test_blob_is_exactly_the_raw_values(tmp_path):
    data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    bin_path, _ = write_windows(tmp_path / "w", [data], [1, 2], 500, "val")
    assert bin_path.read_bytes() == data.tobytes()


def test_sidecar_is_plain_json(tmp_path):
    data = np.zeros((1, 2, 3), dtype=np.float32)
    _, json_path = write_windows(tmp_path / "w", [data], [4], 700, "test")
    sidecar = json.loads(json_path.read_text())
    assert sidecar == {
        "shape": [1, 2, 3],
        "dtype": "f32le",
        "labels": [4],
        "delta_ms": 700,
        "partition": "test",
    }


def _leaves_the_old_blob(tmp_path, blocks, labels, match):
    """Writing ``blocks`` over a pair is a ValueError matching ``match`` that
    leaves the old blob's bytes, no sidecar and no temp file."""
    rng = np.random.default_rng(3)
    data, old_labels = _sample(rng)
    bin_path, _ = write_windows(tmp_path / "w", [data], old_labels, 300, "train")
    with pytest.raises(ValueError, match=match):
        write_windows(tmp_path / "w", blocks, labels, 300, "train")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.f32"]
    assert bin_path.read_bytes() == data.tobytes()


def test_wrong_rank_rejected_on_write(tmp_path):
    _leaves_the_old_blob(tmp_path, [np.zeros((2, 3))], [0, 1], "3-D")
    # a bare 3-D array is an iterable of 2-D blocks, not a block
    _leaves_the_old_blob(tmp_path, np.zeros((2, 3, 4)), [0, 1], "3-D")


def test_label_count_mismatch_rejected_on_write(tmp_path):
    _leaves_the_old_blob(tmp_path, [np.zeros((2, 3, 4))], [0], "labels")
    # the count is of all blocks' windows, known only once the last is written
    _leaves_the_old_blob(tmp_path, [np.zeros((2, 3, 4))] * 2, [0, 1, 2], "3 labels for 4")


def test_block_shape_mismatch_rejected_on_write(tmp_path):
    blocks = [np.zeros((2, 3, 4)), np.zeros((2, 3, 5))]
    _leaves_the_old_blob(tmp_path, blocks, [0] * 4, "3 channels x 4 samples")


def test_no_blocks_rejected_on_write(tmp_path):
    _leaves_the_old_blob(tmp_path, iter([]), [], "no window blocks")


def test_blocks_are_written_as_one_tensor(tmp_path):
    rng = np.random.default_rng(4)
    data, labels = _sample(rng, n=7)
    blocks = (data[:3], data[3:3], data[3:6], data[6:])  # an empty block is allowed
    bin_path, json_path = write_windows(tmp_path / "w", iter(blocks), labels, 300, "train")
    assert bin_path.read_bytes() == data.tobytes()
    assert json.loads(json_path.read_text())["shape"] == [7, 4, 25]
    back, lab = read_windows(tmp_path / "w", 300)
    assert np.array_equal(back, data) and np.array_equal(lab, labels)


def test_failed_blob_write_leaves_no_sidecar(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    data, labels = _sample(rng)
    bin_path, json_path = write_windows(tmp_path / "w", [data], labels, 300, "train")
    old_blob = bin_path.read_bytes()
    replace = os.replace

    def fail_on_the_blob(src, dst):
        if Path(dst) == bin_path:
            raise OSError("injected")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_the_blob)
    with pytest.raises(OSError, match="injected"):
        write_windows(tmp_path / "w", [data[:2]], labels[:2], 300, "train")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.f32"]
    assert bin_path.read_bytes() == old_blob
    with pytest.raises(DataError, match="missing window tensor file"):
        read_windows(tmp_path / "w", 300)


class TestReadFailures:
    @pytest.fixture
    def pair(self, tmp_path):
        rng = np.random.default_rng(1)
        data, labels = _sample(rng)
        write_windows(tmp_path / "w", [data], labels, 300, "train")
        return tmp_path / "w"

    def test_missing_blob(self, pair):
        pair.with_suffix(".f32").unlink()
        with pytest.raises(DataError, match="missing"):
            read_windows(pair, 300)

    def test_missing_sidecar(self, pair):
        pair.with_suffix(".json").unlink()
        with pytest.raises(DataError, match="missing"):
            read_windows(pair, 300)

    def test_malformed_json(self, pair):
        pair.with_suffix(".json").write_text("{not json")
        with pytest.raises(DataError, match="invalid sidecar"):
            read_windows(pair, 300)

    def test_missing_key(self, pair):
        side = json.loads(pair.with_suffix(".json").read_text())
        del side["labels"]
        pair.with_suffix(".json").write_text(json.dumps(side))
        with pytest.raises(DataError, match="invalid sidecar"):
            read_windows(pair, 300)

    def test_unsupported_dtype(self, pair):
        side = json.loads(pair.with_suffix(".json").read_text())
        side["dtype"] = "f64be"
        pair.with_suffix(".json").write_text(json.dumps(side))
        with pytest.raises(DataError, match="unsupported dtype"):
            read_windows(pair, 300)

    def test_wrong_dim_count(self, pair):
        side = json.loads(pair.with_suffix(".json").read_text())
        side["shape"] = side["shape"][:2]
        pair.with_suffix(".json").write_text(json.dumps(side))
        with pytest.raises(DataError, match="3 dims"):
            read_windows(pair, 300)

    def test_label_count_mismatch(self, pair):
        side = json.loads(pair.with_suffix(".json").read_text())
        side["labels"] = side["labels"][:-1]
        pair.with_suffix(".json").write_text(json.dumps(side))
        with pytest.raises(DataError, match="labels"):
            read_windows(pair, 300)

    def test_truncated_blob(self, pair):
        blob = pair.with_suffix(".f32").read_bytes()
        pair.with_suffix(".f32").write_bytes(blob[:-8])
        with pytest.raises(DataError, match="float32 values"):
            read_windows(pair, 300)

    def test_oversized_blob(self, pair):
        blob = pair.with_suffix(".f32").read_bytes()
        pair.with_suffix(".f32").write_bytes(blob + b"\x00" * 4)
        with pytest.raises(DataError, match="float32 values"):
            read_windows(pair, 300)

    def test_other_horizon(self, pair):
        with pytest.raises(DataError, match="windows are for delta_ms 300, not 400"):
            read_windows(pair, 400)
