"""Temporal-split invariants on randomized label streams.

``TestScalarOracle`` holds the per-window windowing and oversampling loops
the array code replaced, kept as the ground truth: the index-array gather
must reproduce their tensors byte for byte, with the same labels in the
same order. ``oracle_chunk_train_counts`` is the looped chunk-head
allocation the one-pass version replaced.
"""

import collections
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegdrive.errors import DataError
from eegdrive.labels import LabeledSamples
from eegdrive.session import CommandLabel, EegRecording, N_CLASSES, synthetic_montage
from eegdrive.splitting import (
    _FRAC_DENOM,
    SplitConfig,
    Windows,
    _chunk_train_counts,
    build_split,
    check_no_leakage,
    extract_windows,
    majority_label,
    oversample_train,
    stratified_temporal_split,
    windows_to_arrays,
)

PERIOD_NS = 8_000_000


def random_labeled(rng, n, n_classes=N_CLASSES, segment=40):
    """A segment-structured label stream like real sessions produce."""
    labels = np.empty(n, dtype=np.int8)
    i = 0
    while i < n:
        run = int(rng.integers(segment // 2, segment * 2))
        labels[i : i + run] = rng.integers(0, n_classes)
        i += run
    indices = np.arange(n, dtype=np.int64)
    return LabeledSamples(
        indices=indices,
        t_ns=indices * PERIOD_NS,
        labels=labels,
    )


def _recording_for(labeled, n_channels=2):
    n = int(labeled.indices.max()) + 1
    samples = np.tile(np.arange(n, dtype=np.float64), (n_channels, 1))
    return EegRecording(
        montage=synthetic_montage(n_channels),
        timestamps=np.arange(n, dtype=np.int64) * PERIOD_NS,
        samples=samples,
        sample_rate_hz=125.0,
    )


def oracle_chunk_train_counts(sizes: list[int], train_fraction: float) -> list[int]:
    """Hand the shortfall back one sample at a time, pass after pass over the
    chunks, until it is gone or no chunk has a test sample left."""
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


class TestChunkTrainCounts:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 500), min_size=1, max_size=120),
        st.floats(1e-6, 1 - 1e-6),
    )
    def test_one_pass_matches_the_loop(self, sizes, fraction):
        got = _chunk_train_counts(np.array(sizes, dtype=np.int64), fraction)
        assert got.tolist() == oracle_chunk_train_counts(sizes, fraction)

    def test_tiny_chunks_take_the_shortfall(self):
        # floor(0.7 * 4) = 2 per chunk; round(0.7 * 400) = 280 needs 80 more
        got = _chunk_train_counts(np.full(100, 4), 0.7)
        assert got.tolist() == [3] * 80 + [2] * 20


class TestStratifiedTemporalSplit:
    def test_partition_is_exact_and_disjoint(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            labeled = random_labeled(rng, int(rng.integers(800, 4000)))
            train, test = stratified_temporal_split(labeled, SplitConfig())
            both = np.concatenate([train, test])
            assert len(set(both.tolist())) == len(labeled)
            assert len(both) == len(labeled)
            assert set(train.tolist()).isdisjoint(test.tolist())

    def test_train_fraction_bounds_for_populated_classes(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            labeled = random_labeled(rng, 5000)
            train, _ = stratified_temporal_split(labeled, SplitConfig())
            counts = np.bincount(labeled.labels, minlength=N_CLASSES)
            train_counts = np.bincount(
                labeled.labels[train], minlength=N_CLASSES
            )
            for c in range(N_CLASSES):
                if counts[c] >= 400:
                    frac = train_counts[c] / counts[c]
                    assert 0.68 <= frac <= 0.72, f"class {c}: {frac}"

    def test_chunk_heads_go_to_train(self):
        # rebuild the chunk boundaries independently and verify the
        # head-to-train, tail-to-test shape inside every chunk
        rng = np.random.default_rng(2)
        labeled = random_labeled(rng, 3000)
        cfg = SplitConfig()
        train, test = stratified_temporal_split(labeled, cfg)
        train_set = set(train.tolist())
        for c in range(N_CLASSES):
            pos = np.nonzero(labeled.labels == c)[0]
            n = len(pos)
            if n == 0:
                continue
            k = min(cfg.n_chunks, n)
            base, extra = divmod(n, k)
            start = 0
            for j in range(k):
                size = base + (1 if j < extra else 0)
                chunk = pos[start : start + size]
                start += size
                flags = [int(p) in train_set for p in chunk]
                # once a chunk switches to test it never goes back
                assert flags == sorted(flags, reverse=True)
                assert flags[0]  # every chunk contributes to train

    def test_outputs_are_time_sorted(self):
        rng = np.random.default_rng(3)
        labeled = random_labeled(rng, 2000)
        train, test = stratified_temporal_split(labeled, SplitConfig())
        assert np.all(np.diff(labeled.t_ns[train]) > 0)
        assert np.all(np.diff(labeled.t_ns[test]) > 0)

    def test_single_class_stream(self):
        labeled = LabeledSamples(
            indices=np.arange(1000),
            t_ns=np.arange(1000, dtype=np.int64) * PERIOD_NS,
            labels=np.zeros(1000, dtype=np.int8),
        )
        train, test = stratified_temporal_split(labeled, SplitConfig())
        assert 0.68 <= len(train) / 1000 <= 0.72

    def test_tiny_chunks_still_reach_global_fraction(self):
        # 100 chunks of 4: plain flooring would put only half in train
        labeled = LabeledSamples(
            indices=np.arange(400),
            t_ns=np.arange(400, dtype=np.int64) * PERIOD_NS,
            labels=np.zeros(400, dtype=np.int8),
        )
        train, _ = stratified_temporal_split(labeled, SplitConfig())
        assert 0.68 <= len(train) / 400 <= 0.72

    def test_empty_stream_rejected(self):
        empty = LabeledSamples(np.empty(0, int), np.empty(0, int), np.empty(0, int))
        with pytest.raises(DataError):
            stratified_temporal_split(empty, SplitConfig())

    def test_unordered_stream_rejected(self):
        bad = LabeledSamples(np.array([0, 1]), np.array([10, 10]), np.array([0, 0]))
        with pytest.raises(DataError, match="time-ordered"):
            stratified_temporal_split(bad, SplitConfig())


# ------------------------------------------------ scalar per-window oracle


def oracle_majority_label(codes: np.ndarray) -> int:
    """Most frequent code; ties resolve to the lowest code."""
    counts = np.bincount(codes, minlength=N_CLASSES)
    return int(np.argmax(counts))


@dataclass(frozen=True)
class LabeledWindow:
    """One training example: a (C, window_len) slab plus its majority label.

    ``source_indices`` records exactly which recording columns the window
    was cut from; that is the provenance used for leakage checks.
    """

    data: np.ndarray  # float32 (C, S)
    label: CommandLabel
    start_t_ns: int
    partition: str  # "train" | "test"
    source_indices: np.ndarray


def oracle_extract_windows(
    rec: EegRecording,
    labeled: LabeledSamples,
    positions: np.ndarray,
    cfg: SplitConfig,
    partition: str,
) -> list[LabeledWindow]:
    positions = np.asarray(positions, dtype=np.int64)
    s = cfg.window_len
    out: list[LabeledWindow] = []
    if len(positions) < s:
        return out
    src_all = labeled.indices[positions]
    t_all = labeled.t_ns[positions]
    lab_all = labeled.labels[positions]
    for start in range(0, len(positions) - s + 1, cfg.hop):
        t = t_all[start : start + s]
        if cfg.gap_break_ns is not None and int(np.diff(t).max()) > cfg.gap_break_ns:
            continue
        src = src_all[start : start + s]
        data = rec.samples[:, src].astype(np.float32)
        out.append(
            LabeledWindow(
                data=data,
                label=CommandLabel(oracle_majority_label(lab_all[start : start + s])),
                start_t_ns=int(t[0]),
                partition=partition,
                source_indices=src.copy(),
            )
        )
    return out


def oracle_oversample_train(
    train: list[LabeledWindow], seed: int
) -> list[LabeledWindow]:
    if not train:
        raise DataError("cannot oversample an empty train partition")
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[LabeledWindow]] = {}
    for w in train:
        by_class.setdefault(int(w.label), []).append(w)
    target = max(len(v) for v in by_class.values())
    additions: list[LabeledWindow] = []
    for code in sorted(by_class):
        pool = by_class[code]
        need = target - len(pool)
        if need > 0:
            picks = rng.integers(0, len(pool), size=need)
            additions.extend(pool[int(p)] for p in picks)
    return train + additions


def oracle_split(rec, labeled, cfg, seed):
    """The per-window pipeline: split, loop-window, oversample, stack."""
    train_pos, test_pos = stratified_temporal_split(labeled, cfg)
    train_w = oracle_extract_windows(rec, labeled, train_pos, cfg, "train")
    test_w = oracle_extract_windows(rec, labeled, test_pos, cfg, "test")
    if cfg.oversample and train_w:
        train_w = oracle_oversample_train(train_w, seed)
        train_w = sorted(train_w, key=lambda w: w.start_t_ns)  # stable: originals first
    return train_w, test_w


def gappy_labeled(rng, n):
    """A segment-structured stream with unlabelled samples dropped, so the
    kept columns and their timestamps have holes."""
    full = random_labeled(rng, n)
    keep = rng.random(n) > 0.02
    return LabeledSamples(full.indices[keep], full.t_ns[keep], full.labels[keep])


class TestScalarOracle:
    @pytest.mark.parametrize("oversample", [False, True])
    @pytest.mark.parametrize("gap_break", [False, True])
    def test_gather_matches_per_window_loops(self, oversample, gap_break):
        rng = np.random.default_rng(100 + 2 * oversample + gap_break)
        for _ in range(6):
            labeled = gappy_labeled(rng, int(rng.integers(1500, 5000)))
            n_channels = int(rng.integers(2, 6))
            n = int(labeled.indices.max()) + 1
            rec = EegRecording(
                montage=synthetic_montage(n_channels),
                timestamps=np.arange(n, dtype=np.int64) * PERIOD_NS,
                samples=rng.standard_normal((n_channels, n)) * 30.0,
                sample_rate_hz=125.0,
            )
            cfg = SplitConfig(
                n_chunks=int(rng.choice([4, 10, 100])),
                window_len=int(rng.choice([16, 50, 125])),
                overlap_fraction=float(rng.choice([0.0, 0.5, 0.8])),
                oversample=oversample,
                gap_break_ns=3 * PERIOD_NS if gap_break else None,
            )
            seed = int(rng.integers(0, 2**63))
            want_train, want_test = oracle_split(rec, labeled, cfg, seed)
            ds = build_split(labeled, cfg, seed)
            for want, got in ((want_train, ds.train), (want_test, ds.test)):
                assert len(got) == len(want)
                if not want:
                    continue
                data, labels = windows_to_arrays(rec.samples, got)
                assert data.tobytes() == np.stack([w.data for w in want]).tobytes()
                assert data.shape == (len(want), n_channels, cfg.window_len)
                assert labels.tolist() == [int(w.label) for w in want]
                starts = rec.timestamps[got.src[:, 0]]
                assert starts.tolist() == [w.start_t_ns for w in want]
                assert np.array_equal(
                    got.src, np.stack([w.source_indices for w in want])
                )

    def test_oversample_draws_match(self):
        rng = np.random.default_rng(110)
        labeled = random_labeled(rng, 3000)
        rec = _recording_for(labeled)
        cfg = SplitConfig(oversample=False)
        train_pos, _ = stratified_temporal_split(labeled, cfg)
        loop = oracle_extract_windows(rec, labeled, train_pos, cfg, "train")
        rows = extract_windows(labeled, train_pos, cfg)
        for seed in range(5):
            want = sorted(oracle_oversample_train(loop, seed), key=lambda w: w.start_t_ns)
            got = oversample_train(rows, seed)
            assert got.labels.tolist() == [int(w.label) for w in want]
            assert np.array_equal(got.src, np.stack([w.source_indices for w in want]))


# ------------------------------------------------------------- array API


class TestMajorityLabel:
    def test_matches_counter_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            codes = rng.integers(0, N_CLASSES, size=int(rng.integers(1, 60)))
            counts = collections.Counter(codes.tolist())
            top = max(counts.values())
            want = min(c for c, v in counts.items() if v == top)
            assert majority_label(codes) == want

    def test_tie_takes_lowest_code(self):
        assert majority_label(np.array([4, 4, 1, 1])) == 1

    def test_rows_match_scalar_oracle(self):
        rng = np.random.default_rng(13)
        codes = rng.integers(0, N_CLASSES, size=(300, 8))
        want = [oracle_majority_label(row) for row in codes]
        assert majority_label(codes).tolist() == want


class TestExtractWindows:
    def test_window_content_and_majority(self):
        rng = np.random.default_rng(5)
        labeled = random_labeled(rng, 1500)
        rec = _recording_for(labeled)
        cfg = SplitConfig(window_len=125, overlap_fraction=0.5)
        positions = np.arange(len(labeled))
        wins = extract_windows(labeled, positions, cfg)
        assert len(wins) == (1500 - 125) // cfg.hop + 1
        data, labels = windows_to_arrays(rec.samples, wins)
        for i in range(0, len(wins), max(1, len(wins) // 7)):
            src = wins.src[i]
            assert np.array_equal(data[i], rec.samples[:, src].astype(np.float32))
            covered = labeled.labels[np.searchsorted(labeled.indices, src)]
            assert labels[i] == oracle_majority_label(covered)

    def test_hop_geometry(self):
        cfg = SplitConfig(window_len=10, overlap_fraction=0.25)
        assert cfg.hop == 7
        cfg = SplitConfig(window_len=125, overlap_fraction=0.5)
        assert cfg.hop == 62

    def test_short_partition_yields_nothing(self):
        rng = np.random.default_rng(6)
        labeled = random_labeled(rng, 200)
        cfg = SplitConfig(window_len=125)
        wins = extract_windows(labeled, np.arange(60), cfg)
        assert len(wins) == 0
        assert wins.src.shape == (0, 125)

    def test_gap_break_drops_spanning_windows(self):
        indices = np.arange(300, dtype=np.int64)
        t_ns = indices * PERIOD_NS
        t_ns = np.where(indices >= 150, t_ns + 10 * PERIOD_NS, t_ns)  # rift
        labeled = LabeledSamples(indices, t_ns, np.zeros(300, dtype=np.int8))
        pos = np.arange(300)
        free = extract_windows(labeled, pos, SplitConfig(window_len=50, gap_break_ns=None))
        broken = extract_windows(
            labeled, pos, SplitConfig(window_len=50, gap_break_ns=2 * PERIOD_NS)
        )
        dropped = set(free.src[:, 0].tolist()) - set(broken.src[:, 0].tolist())
        assert dropped  # the rift-spanning starts are gone
        for start in broken.src[:, 0]:
            t = t_ns[start + np.arange(50)]  # columns are positions here
            assert int(np.diff(t).max()) <= 2 * PERIOD_NS


def _pairs(windows):
    return list(zip(windows.labels.tolist(), windows.src[:, 0].tolist()))


class TestOversample:
    def test_exact_balance_and_originals_kept(self):
        rng = np.random.default_rng(7)
        labeled = random_labeled(rng, 3000)
        cfg = SplitConfig(oversample=False)
        ds = build_split(labeled, cfg, 0)
        balanced = oversample_train(ds.train, seed=3)
        counts = collections.Counter(balanced.labels.tolist())
        assert len(set(counts.values())) == 1
        assert max(counts.values()) == max(
            collections.Counter(ds.train.labels.tolist()).values()
        )
        # every original window instance is still present
        orig = collections.Counter(_pairs(ds.train))
        new = collections.Counter(_pairs(balanced))
        for key, cnt in orig.items():
            assert new[key] >= cnt
        # chronological, and each original precedes its duplicates
        assert np.all(np.diff(balanced.src[:, 0]) >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        labeled = random_labeled(rng, 2000)
        ds = build_split(labeled, SplitConfig(oversample=False), 0)
        a = oversample_train(ds.train, seed=5)
        b = oversample_train(ds.train, seed=5)
        assert _pairs(a) == _pairs(b)

    def test_empty_rejected(self):
        empty = Windows(np.empty((0, 4), np.int64), np.empty(0, np.int64))
        with pytest.raises(DataError):
            oversample_train(empty, seed=0)


class TestBuildSplit:
    def test_no_leakage_and_test_untouched_by_oversampling(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            labeled = random_labeled(rng, int(rng.integers(1500, 4000)))
            plain = build_split(labeled, SplitConfig(oversample=False), 0)
            balanced = build_split(labeled, SplitConfig(oversample=True), 0)
            # oversampling must not move, add, or drop a single test window
            assert _pairs(balanced.test) == _pairs(plain.test)
            assert np.array_equal(balanced.test.src, plain.test.src)
            assert not set(balanced.train.src.ravel().tolist()) & set(
                balanced.test.src.ravel().tolist()
            )
            counts = collections.Counter(balanced.train.labels.tolist())
            assert len(set(counts.values())) == 1

    def test_pre_oversample_counts_recorded(self):
        rng = np.random.default_rng(10)
        labeled = random_labeled(rng, 2500)
        plain = build_split(labeled, SplitConfig(oversample=False), 0)
        balanced = build_split(labeled, SplitConfig(oversample=True), 0)
        want = np.bincount(plain.train.labels, minlength=N_CLASSES)
        assert np.array_equal(balanced.pre_oversample_counts, want)

    def test_absent_classes_reported(self):
        labeled = LabeledSamples(
            np.arange(1200),
            np.arange(1200, dtype=np.int64) * PERIOD_NS,
            np.where(np.arange(1200) < 600, 0, 2).astype(np.int8),
        )
        ds = build_split(labeled, SplitConfig(), 0)
        assert ds.absent_classes == (1, 3, 4)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        labeled = random_labeled(rng, 2000)
        rec = _recording_for(labeled)
        a = build_split(labeled, SplitConfig(), 4)
        b = build_split(labeled, SplitConfig(), 4)
        data_a, labels_a = windows_to_arrays(rec.samples, a.train)
        data_b, labels_b = windows_to_arrays(rec.samples, b.train)
        assert np.array_equal(data_a, data_b)
        assert np.array_equal(labels_a, labels_b)

    def test_check_no_leakage_raises_on_overlap(self):
        w = Windows(np.array([[1, 2, 3, 4]]), np.array([0]))
        v = Windows(np.array([[4, 5, 6, 7]]), np.array([0]))
        with pytest.raises(DataError, match=r"leakage: 1 shared .*\[4\]"):
            check_no_leakage(w, v)
        # a shared column that is the last one either partition holds
        w = Windows(np.array([[3, 5, 7, 12]]), np.array([0]))
        v = Windows(np.array([[0, 1, 2, 12]]), np.array([0]))
        with pytest.raises(DataError, match=r"leakage: 1 shared .*\(first: \[12\]\)"):
            check_no_leakage(w, v)
        # only the minority window reaches test, and oversampling copies it:
        # the count is of distinct shared columns, however many copies
        w = Windows(np.array([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]), np.array([0, 0, 1]))
        train = oversample_train(w, seed=0)
        assert train.src[:, 0].tolist() == [0, 4, 8, 8]
        v = Windows(np.array([[10, 11, 12, 13]]), np.array([1]))
        with pytest.raises(DataError, match=r"leakage: 2 shared .*\(first: \[10, 11\]\)"):
            check_no_leakage(train, v)
        check_no_leakage(w.take(np.array([0, 1])), v)
        # an empty partition shares nothing
        check_no_leakage(w, w.take(np.array([], int)))
        check_no_leakage(w.take(np.array([], int)), w)

    def test_windows_to_arrays_shapes(self):
        rng = np.random.default_rng(12)
        labeled = random_labeled(rng, 1500)
        rec = _recording_for(labeled, n_channels=3)
        ds = build_split(labeled, SplitConfig(), 0)
        data, labels = windows_to_arrays(rec.samples, ds.train)
        assert data.dtype == np.float32
        assert labels.dtype == np.int64
        assert data.shape[1:] == (3, 125)
        assert data.flags.c_contiguous
        assert len(data) == len(labels) == len(ds.train)
        with pytest.raises(DataError):
            windows_to_arrays(rec.samples, ds.train.take(np.array([], int)))


class TestSplitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SplitConfig(n_chunks=0)
        with pytest.raises(ValueError):
            SplitConfig(train_fraction=1.0)
        with pytest.raises(ValueError):
            SplitConfig(overlap_fraction=1.0)
        with pytest.raises(ValueError):
            SplitConfig(gap_break_ns=0)
