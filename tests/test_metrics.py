"""Scoring tests against a nested-loop oracle over raw counts."""

import math

import numpy as np
import pytest

from eegdrive.metrics import (
    confusion_matrix,
    mean_and_std,
    metrics_from_confusion,
)


def oracle_scores(cm):
    """Per-class scores computed entry by entry, no vectorization."""
    k = len(cm)
    precision, recall, f1 = [0.0] * k, [0.0] * k, [0.0] * k
    for c in range(k):
        tp = cm[c][c]
        pred_c = sum(cm[r][c] for r in range(k))
        true_c = sum(cm[c])
        if pred_c > 0:
            precision[c] = tp / pred_c
        if true_c > 0:
            recall[c] = tp / true_c
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
    total = sum(sum(row) for row in cm)
    accuracy = sum(cm[c][c] for c in range(k)) / total
    present = [c for c in range(k) if sum(cm[c]) > 0]
    macro = lambda xs: sum(xs[c] for c in present) / len(present)
    return precision, recall, f1, accuracy, macro(precision), macro(recall), macro(f1)


class TestConfusionMatrix:
    def test_counts_by_true_row_pred_column(self):
        cm = confusion_matrix([0, 0, 1, 4], [0, 1, 1, 2])
        want = np.zeros((5, 5), dtype=np.int64)
        want[0, 0] = want[0, 1] = want[1, 1] = want[4, 2] = 1
        assert np.array_equal(cm, want)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])
        with pytest.raises(ValueError):
            confusion_matrix([], [])
        with pytest.raises(ValueError, match="y_pred"):
            confusion_matrix([0], [5])
        with pytest.raises(ValueError, match="y_true"):
            confusion_matrix([-1], [0])


class TestMetricsFromConfusion:
    def test_matches_oracle_on_random_confusions(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            cm = rng.integers(0, 40, size=(5, 5))
            if rng.random() < 0.4:
                cm[rng.integers(0, 5)] = 0  # absent class
            if cm.sum() == 0:
                continue
            res = metrics_from_confusion(cm)
            p, r, f1, acc, mp, mr, mf = oracle_scores(cm.tolist())
            assert np.allclose(res.precision, p, atol=1e-12, rtol=0)
            assert np.allclose(res.recall, r, atol=1e-12, rtol=0)
            assert np.allclose(res.f1, f1, atol=1e-12, rtol=0)
            assert math.isclose(res.accuracy, acc, abs_tol=1e-12)
            assert math.isclose(res.macro_precision, mp, abs_tol=1e-12)
            assert math.isclose(res.macro_recall, mr, abs_tol=1e-12)
            assert math.isclose(res.macro_f1, mf, abs_tol=1e-12)
            assert res.n_samples == cm.sum()

    def test_hand_worked_two_class_case(self):
        # [[8, 2], [4, 6]] embedded in the five-class layout
        cm = np.zeros((5, 5), dtype=np.int64)
        cm[0, 0], cm[0, 1], cm[1, 0], cm[1, 1] = 8, 2, 4, 6
        res = metrics_from_confusion(cm)
        assert math.isclose(res.precision[0], 8 / 12, abs_tol=1e-15)
        assert math.isclose(res.precision[1], 6 / 8, abs_tol=1e-15)
        assert math.isclose(res.recall[0], 0.8, abs_tol=1e-15)
        assert math.isclose(res.recall[1], 0.6, abs_tol=1e-15)
        assert math.isclose(res.f1[0], 16 / 22, abs_tol=1e-15)
        assert math.isclose(res.f1[1], 12 / 18, abs_tol=1e-15)
        assert math.isclose(res.accuracy, 0.7, abs_tol=1e-15)
        # only the two populated rows enter the macro averages
        assert math.isclose(res.macro_f1, (16 / 22 + 12 / 18) / 2, abs_tol=1e-15)

    def test_constant_predictor_macro_f1_is_exactly_one_fifteenth(self):
        y_true = np.repeat(np.arange(5), 24)
        y_pred = np.zeros_like(y_true)
        res = metrics_from_confusion(confusion_matrix(y_true, y_pred))
        assert res.macro_f1 == 1 / 15

    def test_perfect_predictor(self):
        y = np.tile(np.arange(5), 10)
        res = metrics_from_confusion(confusion_matrix(y, y))
        assert res.accuracy == 1.0
        assert res.macro_f1 == 1.0
        assert np.array_equal(res.confusion, np.eye(5, dtype=np.int64) * 10)

    def test_absent_class_does_not_dilute(self):
        # class 4 never occurs in truth and is never predicted
        y_true = [0, 0, 1, 2, 3]
        y_pred = [0, 0, 1, 2, 3]
        res = metrics_from_confusion(confusion_matrix(y_true, y_pred))
        assert res.macro_f1 == 1.0

    def test_spurious_prediction_of_absent_class(self):
        # class 4 never occurs in truth but is predicted once: recall of the
        # mispredicted true class drops, absent class stays out of the macro
        res = metrics_from_confusion(confusion_matrix([0, 0, 1], [0, 4, 1]))
        assert res.f1[4] == 0.0
        p, r, f1, acc, mp, mr, mf = oracle_scores(res.confusion.tolist())
        assert math.isclose(res.macro_f1, mf, abs_tol=1e-15)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError, match="square"):
            metrics_from_confusion(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="empty"):
            metrics_from_confusion(np.zeros((5, 5)))


class TestMeanAndStd:
    def test_matches_definition(self):
        vals = [0.2, 0.5, 0.8, 0.3]
        mean, std = mean_and_std(vals)
        m = sum(vals) / 4
        assert math.isclose(mean, m, abs_tol=1e-15)
        var = sum((v - m) ** 2 for v in vals) / 3  # sample variance
        assert math.isclose(std, math.sqrt(var), abs_tol=1e-15)

    def test_single_value_has_zero_std(self):
        assert mean_and_std([0.7]) == (0.7, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_and_std([])
