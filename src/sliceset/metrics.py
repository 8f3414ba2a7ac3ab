"""Evaluation metrics and the report structure the trainer/CLI emit.

Regression: mean absolute error and root-mean-square error.  Binary
classification: balanced accuracy, F1, and step-interpolated average
precision.  All operate on plain sequences / numpy arrays — no autograd.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def _as_float(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("metric input is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("metric input contains non-finite values")
    return arr


def _paired(a, b):
    a, b = _as_float(a), _as_float(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} predictions vs {b.size} targets")
    return a, b


def _as_labels(values, name) -> np.ndarray:
    arr = np.asarray(values).reshape(-1)
    if arr.size == 0:
        raise ValueError("metric input is empty")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must be binary 0/1 labels")
    return arr.astype(np.int64)


def mae(predictions, targets) -> float:
    p, t = _paired(predictions, targets)
    return float(np.mean(np.abs(p - t)))


def rmse(predictions, targets) -> float:
    p, t = _paired(predictions, targets)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def balanced_accuracy(pred_labels, true_labels) -> float:
    """Mean of sensitivity and specificity; needs both classes in the truth."""
    pred = _as_labels(pred_labels, "predictions")
    true = _as_labels(true_labels, "truth")
    if pred.shape != true.shape:
        raise ValueError(f"length mismatch: {pred.size} predictions vs {true.size} targets")
    pos = true == 1
    neg = ~pos
    if not pos.any() or not neg.any():
        raise ValueError("balanced accuracy undefined: truth contains a single class")
    sensitivity = np.mean(pred[pos] == 1)
    specificity = np.mean(pred[neg] == 0)
    return float((sensitivity + specificity) / 2.0)


def f1(pred_labels, true_labels) -> float:
    """Harmonic mean of precision and recall; 0 when either is undefined."""
    pred = _as_labels(pred_labels, "predictions")
    true = _as_labels(true_labels, "truth")
    if pred.shape != true.shape:
        raise ValueError(f"length mismatch: {pred.size} predictions vs {true.size} targets")
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return float(2.0 * precision * recall / (precision + recall))


def average_precision(scores, true_labels) -> float:
    """Step-interpolated AP: mean of precision@rank over the ranked positives.

    Scores are sorted descending with ties kept in input order.
    """
    s = _as_float(scores)
    true = _as_labels(true_labels, "truth")
    if s.shape != true.shape:
        raise ValueError(f"length mismatch: {s.size} scores vs {true.size} targets")
    n_pos = int(true.sum())
    if n_pos == 0:
        raise ValueError("average precision undefined: no positives in truth")
    order = np.argsort(-s, kind="stable")
    ranked = true[order]
    hits = np.cumsum(ranked)
    ranks = np.arange(1, s.size + 1)
    precisions = hits / ranks
    return float(precisions[ranked == 1].sum() / n_pos)


@dataclass(frozen=True)
class EvalReport:
    """Metrics for one model on one split."""

    task: str
    n: int
    mae: float | None = None
    rmse: float | None = None
    balanced_accuracy: float | None = None
    f1: float | None = None
    average_precision: float | None = None

    def __post_init__(self):
        if self.task == "regression":
            have = (self.mae, self.rmse)
        elif self.task == "classification":
            have = (self.balanced_accuracy, self.f1, self.average_precision)
        else:
            raise ValueError(f"unknown task {self.task!r}")
        if any(v is None for v in have):
            raise ValueError(f"missing metrics for {self.task} report")
        for v in have:
            if not np.isfinite(v):
                raise ValueError(f"non-finite metric in report: {have}")
        if self.task == "classification" and any(not 0.0 <= v <= 1.0 for v in have):
            raise ValueError(f"classification metrics must lie in [0,1], got {have}")

    def to_dict(self) -> dict:
        if self.task == "regression":
            metrics = {"mae": self.mae, "rmse": self.rmse}
        else:
            metrics = {"balanced_accuracy": self.balanced_accuracy, "f1": self.f1,
                       "average_precision": self.average_precision}
        return {"task": self.task, "n": self.n, **metrics}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary(self) -> str:
        """Human-readable line; classification metrics shown as percentages."""
        if self.task == "regression":
            return f"n={self.n}  mae={self.mae:.4f}  rmse={self.rmse:.4f}"
        return (f"n={self.n}  bal_acc={100 * self.balanced_accuracy:.2f}%  "
                f"f1={100 * self.f1:.2f}%  avg_prec={100 * self.average_precision:.2f}%")


def regression_report(predictions, targets) -> EvalReport:
    p, t = _paired(predictions, targets)
    return EvalReport(task="regression", n=int(p.size),
                      mae=mae(p, t), rmse=rmse(p, t))


def classification_report(scores, pred_labels, true_labels) -> EvalReport:
    pred = _as_labels(pred_labels, "predictions")
    return EvalReport(task="classification", n=int(pred.size),
                      balanced_accuracy=balanced_accuracy(pred_labels, true_labels),
                      f1=f1(pred_labels, true_labels),
                      average_precision=average_precision(scores, true_labels))
