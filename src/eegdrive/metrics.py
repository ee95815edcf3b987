"""Confusion-matrix scoring.

Conventions, fixed across the toolkit: rows index the true class, columns
the predicted class. Any precision, recall, or F1 whose denominator is zero
scores 0. Macro averages run over the classes actually present in the truth
labels, so a class that never occurs in a test partition cannot dilute the
score of the classes that do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .session import N_CLASSES


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("y_true and y_pred must be 1-D arrays of equal length")
    if len(y_true) == 0:
        raise ValueError("cannot score an empty label set")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.min() < 0 or arr.max() >= N_CLASSES:
            raise ValueError(f"{name} contains codes outside [0, {N_CLASSES})")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


@dataclass(frozen=True)
class EvalResult:
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    n_samples: int


def metrics_from_confusion(cm: np.ndarray) -> EvalResult:
    cm = np.asarray(cm, dtype=np.int64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError("confusion matrix must be square")
    total = int(cm.sum())
    if total == 0:
        raise ValueError("confusion matrix is empty")
    tp = np.diag(cm).astype(np.float64)
    col = cm.sum(axis=0).astype(np.float64)
    row = cm.sum(axis=1).astype(np.float64)
    precision = _safe_div(tp, col)
    recall = _safe_div(tp, row)
    # Dice form of F1: algebraically 2pr/(p+r), but computed from the raw
    # counts so exact-ratio cases need only one float division.
    f1 = _safe_div(2.0 * tp, col + row)
    present = cm.sum(axis=1) > 0
    return EvalResult(
        confusion=cm,
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=float(tp.sum() / total),
        macro_precision=float(precision[present].mean()),
        macro_recall=float(recall[present].mean()),
        macro_f1=float(f1[present].mean()),
        n_samples=total,
    )


def mean_and_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1); std is 0 for one value."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot aggregate zero values")
    mean = float(arr.mean())
    std = 0.0 if arr.size == 1 else float(arr.std(ddof=1))
    return mean, std
