"""Temporal-stratified train/test splitting and sliding-window extraction.

The split works per class: a class's samples are taken in chronological
order, cut into a fixed number of contiguous chunks, and the head of every
chunk goes to train with the tail going to test. One boolean mask over the
labelled samples marks every head; train and test are its marked and
unmarked positions, in time order. Each is windowed with a sliding window
over the partition's own sample sequence, and the train windows are
optionally rebalanced by random oversampling with replacement.

Each partition's windows are one ``Windows`` record of arrays. Its ``src``
rows are the provenance: row i lists the recording columns window i
covers, and ``src[i, 0]`` is its start. Windowing, majority labelling and
oversampling work on those index rows only. The sample data is gathered
once, at write time: ``window_blocks`` hands the blob writer
``WINDOW_BLOCK`` windows at a time, each gathered by ``windows_to_arrays``,
so split never builds a whole partition's (n, C, S) tensor.

Train/test windows can never share a source sample: the partitions are
disjoint index sets and a window only draws from its own partition.
``check_no_leakage`` verifies that on the ``src`` rows with one mask of
the recording columns the train windows cover, and ``build_split`` runs
the check on every invocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DataError
from .labels import LabeledSamples
from .session import N_CLASSES

WINDOW_BLOCK = 32  # windows gathered at a time while a partition's blob is written


@dataclass(frozen=True)
class SplitConfig:
    n_chunks: int = 100
    train_fraction: float = 0.7
    window_len: int = 125
    overlap_fraction: float = 0.5
    oversample: bool = True
    gap_break_ns: int | None = None

    def __post_init__(self):
        if self.n_chunks < 1:
            raise ValueError("n_chunks must be >= 1")
        if not (0 < self.train_fraction < 1):
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")
        if not (0 <= self.overlap_fraction < 1):
            raise ValueError("overlap_fraction must lie in [0, 1)")
        if self.gap_break_ns is not None and self.gap_break_ns <= 0:
            raise ValueError("gap_break_ns must be positive when set")

    @property
    def hop(self) -> int:
        return max(1, math.floor(self.window_len * (1.0 - self.overlap_fraction)))


_FRAC_DENOM = 10**6  # train_fraction quantum; keeps chunk arithmetic exact


def _chunk_train_counts(sizes: np.ndarray, train_fraction: float) -> np.ndarray:
    """How many leading samples of each chunk go to train.

    Base allocation is max(1, floor(f*m)) per chunk. Because the floor loses
    up to one sample per chunk, small chunks would drift far below f overall
    (100 chunks of 4 at f=0.7 would train only half the class), so the
    shortfall against the class-level target round(f*n) is handed back one
    sample per chunk with a test sample left, largest fractional part first,
    earliest chunk on ties. It never exceeds their number, since each of
    their floors lost less than one sample, so one pass settles it.
    """
    num = round(train_fraction * _FRAC_DENOM)
    counts = np.maximum(1, sizes * num // _FRAC_DENOM)
    n = int(sizes.sum())
    target = (2 * n * num + _FRAC_DENOM) // (2 * _FRAC_DENOM)  # round half up
    deficit = target - int(counts.sum())
    if deficit > 0:
        order = np.argsort(-(sizes * num % _FRAC_DENOM), kind="stable")
        open_chunks = order[counts[order] < sizes[order]]
        counts[open_chunks[:deficit]] += 1
    return counts


def stratified_temporal_split(
    labeled: LabeledSamples, cfg: SplitConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked per-class split; returns (train, test) positions into ``labeled``.

    Each class with n samples is cut into k = min(n_chunks, n) contiguous
    chunks of sizes floor(n/k), the first n mod k chunks one larger. The
    head of every chunk goes to train and the tail to test, with per-chunk
    head lengths from ``_chunk_train_counts`` so the class-level train
    fraction matches ``cfg.train_fraction`` to within rounding. Both
    position arrays are in time order.
    """
    if len(labeled) == 0:
        raise DataError("no labelled samples to split")
    if np.any(np.diff(labeled.t_ns) <= 0):
        raise DataError("labelled samples must be strictly time-ordered")
    train = np.zeros(len(labeled), dtype=bool)
    for code in range(N_CLASSES):
        pos = np.flatnonzero(labeled.labels == code)
        n = len(pos)
        if n == 0:
            continue
        k = min(cfg.n_chunks, n)
        sizes = np.full(k, n // k)
        sizes[: n % k] += 1
        head_ends = np.cumsum(sizes) - sizes + _chunk_train_counts(sizes, cfg.train_fraction)
        train[pos] = np.arange(n) < np.repeat(head_ends, sizes)
    classed = (labeled.labels >= 0) & (labeled.labels < N_CLASSES)
    return np.flatnonzero(train), np.flatnonzero(classed & ~train)


def majority_label(codes: np.ndarray) -> np.ndarray:
    """Most frequent code along the last axis; ties resolve to the lowest code.

    A 1-D input gives one code, an (n, S) input one code per row.
    """
    codes = np.asarray(codes, dtype=np.int64)
    rows = codes.reshape(-1, codes.shape[-1])
    offsets = np.arange(len(rows))[:, None] * N_CLASSES
    counts = np.bincount((rows + offsets).ravel(), minlength=len(rows) * N_CLASSES)
    return counts.reshape(-1, N_CLASSES).argmax(axis=1).reshape(codes.shape[:-1])


@dataclass(frozen=True)
class Windows:
    """One partition's windows as arrays; row i describes window i.

    ``src[i]`` lists the recording columns window i covers: that is its
    provenance, used for the leakage check and for the gather in
    ``windows_to_arrays``, block by block as the blob is written;
    ``src[i, 0]`` is its start.
    """

    src: np.ndarray  # int64 (n, S)
    labels: np.ndarray  # int64 (n,), majority code of the covered samples

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, rows: np.ndarray | slice) -> Windows:
        return Windows(self.src[rows], self.labels[rows])


def extract_windows(
    labeled: LabeledSamples, positions: np.ndarray, cfg: SplitConfig
) -> Windows:
    """Slide a window over one partition's time-ordered sample sequence.

    Windows of ``window_len`` partition samples advance by ``cfg.hop``; each
    takes the majority label of the samples it covers. When
    ``cfg.gap_break_ns`` is set, any window spanning a timestamp gap larger
    than that is dropped instead of bridging the gap.
    """
    positions = np.asarray(positions, dtype=np.int64)
    s = cfg.window_len
    starts = np.arange(0, len(positions) - s + 1, cfg.hop)
    rows = positions[starts[:, None] + np.arange(s)]  # (n, S) into ``labeled``
    if cfg.gap_break_ns is not None:
        t = labeled.t_ns[rows]
        rows = rows[np.diff(t, axis=1).max(axis=1, initial=0) <= cfg.gap_break_ns]
    return Windows(src=labeled.indices[rows], labels=majority_label(labeled.labels[rows]))


def oversample_train(train: Windows, seed: int) -> Windows:
    """Duplicate minority-class windows until every present class matches the
    largest one. Originals are all retained; duplicates are drawn uniformly
    with replacement, deterministically for a given seed, and the result is
    stably sorted by start column, so each original precedes its duplicates."""
    if len(train) == 0:
        raise DataError("cannot oversample an empty train partition")
    rng = np.random.default_rng(seed)
    counts = np.bincount(train.labels, minlength=N_CLASSES)
    target = counts.max()
    picks = [np.arange(len(train))]
    for code in np.nonzero(counts)[0]:
        need = target - counts[code]
        if need > 0:
            pool = np.nonzero(train.labels == code)[0]
            picks.append(pool[rng.integers(0, len(pool), size=need)])
    rows = np.concatenate(picks)
    return train.take(rows[np.argsort(train.src[rows, 0], kind="stable")])


@dataclass
class SplitDataset:
    """Windowed train/test partitions, each chronological by window start."""

    train: Windows
    test: Windows
    absent_classes: tuple[int, ...]
    pre_oversample_counts: np.ndarray


def check_no_leakage(train: Windows, test: Windows) -> None:
    """Raise if any recording sample appears in both partitions."""
    covered = np.zeros(1 + max(train.src.max(initial=0), test.src.max(initial=0)), dtype=bool)
    covered[train.src] = True
    in_test = np.zeros_like(covered)
    in_test[test.src] = True
    overlap = np.flatnonzero(covered & in_test)
    if len(overlap):
        raise DataError(
            f"train/test leakage: {len(overlap)} shared source samples "
            f"(first: {overlap[:5].tolist()})"
        )


def windows_to_arrays(samples: np.ndarray, windows: Windows) -> np.ndarray:
    """Gather windows from a (C, T) recording matrix into a C-contiguous
    (n, C, S) float32 tensor. ``np.take`` copies a recording that is not
    C-contiguous whole first, so a caller gathering block by block passes a
    C-contiguous one."""
    if len(windows) == 0:
        raise DataError("no windows to stack")
    return np.ascontiguousarray(
        np.take(samples, windows.src, axis=1).transpose(1, 0, 2), dtype=np.float32
    )


def window_blocks(samples: np.ndarray, windows: Windows) -> Iterator[np.ndarray]:
    """The partition's window tensor as consecutive (m, C, S) float32 blocks of
    at most ``WINDOW_BLOCK`` windows, each gathered when it is asked for."""
    for i in range(0, len(windows), WINDOW_BLOCK):
        yield windows_to_arrays(samples, windows.take(slice(i, i + WINDOW_BLOCK)))


def build_split(labeled: LabeledSamples, cfg: SplitConfig, seed: int) -> SplitDataset:
    """Full pipeline: split, window both partitions, oversample train from
    ``seed``.

    The returned dataset notes which classes were absent from the labelled
    stream, keeps the pre-oversampling train window counts (the class-weight
    basis for training), and is verified leakage-free before returning.
    """
    train_pos, test_pos = stratified_temporal_split(labeled, cfg)
    train = extract_windows(labeled, train_pos, cfg)
    test = extract_windows(labeled, test_pos, cfg)
    pre_counts = np.bincount(train.labels, minlength=N_CLASSES)
    if cfg.oversample and len(train):
        train = oversample_train(train, seed)
    check_no_leakage(train, test)
    return SplitDataset(
        train=train,
        test=test,
        absent_classes=tuple(int(c) for c in np.flatnonzero(labeled.class_counts() == 0)),
        pre_oversample_counts=pre_counts,
    )
