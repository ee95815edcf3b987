"""Temporal-stratified train/test splitting and sliding-window extraction.

The split works per class: a class's samples are taken in chronological
order, cut into a fixed number of contiguous chunks, and the head of every
chunk goes to train with the tail going to test. Both partitions are then
re-sorted globally by time, windowed with a sliding window over the
partition's own sample sequence, and the train windows are optionally
rebalanced by random oversampling with replacement.

Each partition's windows are one ``Windows`` record of arrays. Its ``src``
rows are the provenance: row i lists the recording columns window i
covers. Windowing, majority labelling and oversampling work on those index
rows only, and ``windows_to_arrays`` gathers the sample data once, at write
time.

Train/test windows can never share a source sample: the partitions are
disjoint index sets and a window only draws from its own partition.
``check_no_leakage`` verifies that directly on the ``src`` rows, and
``build_split`` runs the check on every invocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .labels import LabeledSamples
from .session import N_CLASSES


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


def _chunk_train_counts(sizes: list[int], train_fraction: float) -> list[int]:
    """How many leading samples of each chunk go to train.

    Base allocation is max(1, floor(f*m)) per chunk. Because the floor loses
    up to one sample per chunk, small chunks would drift far below f overall
    (100 chunks of 4 at f=0.7 would train only half the class), so the
    shortfall against the class-level target round(f*n) is handed back one
    sample at a time, largest fractional part first, earliest chunk on ties.
    The head-to-train / tail-to-test shape of every chunk is preserved.
    """
    num = round(train_fraction * _FRAC_DENOM)
    counts = [max(1, (m * num) // _FRAC_DENOM) for m in sizes]
    n = sum(sizes)
    target = (2 * n * num + _FRAC_DENOM) // (2 * _FRAC_DENOM)  # round half up
    deficit = target - sum(counts)
    if deficit > 0:
        order = sorted(range(len(sizes)),
                       key=lambda i: (-((sizes[i] * num) % _FRAC_DENOM), i))
        while deficit > 0:
            progressed = False
            for i in order:
                if deficit == 0:
                    break
                if counts[i] < sizes[i]:
                    counts[i] += 1
                    deficit -= 1
                    progressed = True
            if not progressed:
                break
    return counts


def stratified_temporal_split(
    labeled: LabeledSamples, cfg: SplitConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked per-class split; returns (train, test) positions into ``labeled``.

    Each class with n samples is cut into k = min(n_chunks, n) contiguous
    chunks of sizes floor(n/k), the first n mod k chunks one larger. The
    head of every chunk goes to train and the tail to test, with per-chunk
    head lengths from ``_chunk_train_counts`` so the class-level train
    fraction matches ``cfg.train_fraction`` to within rounding. Output
    position arrays are sorted by time.
    """
    if len(labeled) == 0:
        raise DataError("no labelled samples to split")
    if np.any(np.diff(labeled.t_ns) <= 0):
        raise DataError("labelled samples must be strictly time-ordered")
    train: list[np.ndarray] = []
    test: list[np.ndarray] = []
    for code in range(N_CLASSES):
        pos = np.nonzero(labeled.labels == code)[0]
        n = len(pos)
        if n == 0:
            continue
        k = min(cfg.n_chunks, n)
        base, extra = divmod(n, k)
        sizes = [base + (1 if c < extra else 0) for c in range(k)]
        heads = _chunk_train_counts(sizes, cfg.train_fraction)
        start = 0
        for m, n_train in zip(sizes, heads):
            chunk = pos[start : start + m]
            start += m
            train.append(chunk[:n_train])
            test.append(chunk[n_train:])
    train_pos = np.sort(np.concatenate(train))
    test_pos = np.sort(np.concatenate(test)) if test else np.empty(0, dtype=np.int64)
    return train_pos, test_pos


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
    provenance, used for the leakage check and for the one gather in
    ``windows_to_arrays``.
    """

    src: np.ndarray  # int64 (n, S)
    labels: np.ndarray  # int64 (n,), majority code of the covered samples
    start_t_ns: np.ndarray  # int64 (n,)

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, rows: np.ndarray) -> Windows:
        return Windows(self.src[rows], self.labels[rows], self.start_t_ns[rows])


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
    t = labeled.t_ns[rows]
    if cfg.gap_break_ns is not None:
        keep = np.diff(t, axis=1).max(axis=1, initial=0) <= cfg.gap_break_ns
        rows, t = rows[keep], t[keep]
    return Windows(
        src=labeled.indices[rows],
        labels=majority_label(labeled.labels[rows]),
        start_t_ns=t[:, 0],
    )


def oversample_train(train: Windows, seed: int) -> Windows:
    """Duplicate minority-class windows until every present class matches the
    largest one. Originals are all retained; duplicates are drawn uniformly
    with replacement, deterministically for a given seed, and the result is
    stably sorted by start time, so each original precedes its duplicates."""
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
    return train.take(rows[np.argsort(train.start_t_ns[rows], kind="stable")])


@dataclass
class SplitDataset:
    """Windowed train/test partitions, each chronological by window start."""

    train: Windows
    test: Windows
    absent_classes: tuple[int, ...] = ()
    pre_oversample_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(N_CLASSES, dtype=np.int64)
    )


def check_no_leakage(ds: SplitDataset) -> None:
    """Raise if any recording sample appears in both partitions."""
    overlap = np.intersect1d(ds.train.src, ds.test.src)
    if len(overlap):
        raise DataError(
            f"train/test leakage: {len(overlap)} shared source samples "
            f"(first: {overlap[:5].tolist()})"
        )


def windows_to_arrays(
    samples: np.ndarray, windows: Windows
) -> tuple[np.ndarray, np.ndarray]:
    """Gather windows from a (C, T) recording matrix into a (n, C, S) float32
    tensor and an int64 label vector."""
    if len(windows) == 0:
        raise DataError("no windows to stack")
    data = samples.astype(np.float32, copy=False)[:, windows.src]  # (C, n, S)
    return np.ascontiguousarray(data.transpose(1, 0, 2)), windows.labels.copy()


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
    counts = labeled.class_counts()
    ds = SplitDataset(
        train=train,
        test=test,
        absent_classes=tuple(int(c) for c in np.nonzero(counts == 0)[0]),
        pre_oversample_counts=pre_counts,
    )
    check_no_leakage(ds)
    return ds
