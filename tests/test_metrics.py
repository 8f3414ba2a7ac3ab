"""Metric implementations vs frozen hand-worked values and invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sliceset import metrics


# ---------------------------------------------------------------------------
# frozen hand-worked values
# ---------------------------------------------------------------------------

def test_balanced_accuracy_hand_value():
    # truth [1,1,0,0], pred [1,0,0,0]: sensitivity 1/2, specificity 1 -> 0.75
    assert metrics.balanced_accuracy([1, 0, 0, 0], [1, 1, 0, 0]) == pytest.approx(0.75)


def test_f1_hand_value():
    # same case: tp=1 fp=0 fn=1 -> precision 1, recall 1/2 -> f1 = 2/3
    assert metrics.f1([1, 0, 0, 0], [1, 1, 0, 0]) == pytest.approx(2.0 / 3.0)


def test_average_precision_hand_value():
    # scores [0.9, 0.8, 0.3], truth [1, 0, 1]:
    # ranked truths are [1, 0, 1]; precision at the positive ranks = 1/1 and 2/3
    # -> AP = (1 + 2/3) / 2 = 5/6
    assert metrics.average_precision([0.9, 0.8, 0.3], [1, 0, 1]) == pytest.approx(5.0 / 6.0)


def test_mae_rmse_hand_values():
    assert metrics.mae([3.0, 5.0], [1.0, 5.0]) == pytest.approx(1.0)
    assert metrics.rmse([3.0, 5.0], [1.0, 5.0]) == pytest.approx(math.sqrt(2.0))


def test_average_precision_perfect_ranking_is_one():
    assert metrics.average_precision([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == pytest.approx(1.0)


def test_average_precision_tie_uses_stable_input_order():
    # Tied scores: the earlier element ranks first.  Positive first -> AP 1.
    assert metrics.average_precision([0.5, 0.5], [1, 0]) == pytest.approx(1.0)
    # Negative listed first at the same score pushes the positive to rank 2.
    assert metrics.average_precision([0.5, 0.5], [0, 1]) == pytest.approx(0.5)


def test_f1_zero_when_no_true_positive():
    assert metrics.f1([0, 0], [1, 0]) == 0.0
    assert metrics.f1([1, 1], [0, 1]) == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# rejection cases
# ---------------------------------------------------------------------------

def test_balanced_accuracy_rejects_single_class_truth():
    with pytest.raises(ValueError):
        metrics.balanced_accuracy([1, 0], [1, 1])
    with pytest.raises(ValueError):
        metrics.balanced_accuracy([0, 0], [0, 0])


def test_average_precision_rejects_no_positives():
    with pytest.raises(ValueError):
        metrics.average_precision([0.5, 0.2], [0, 0])


def test_metrics_reject_length_mismatch():
    with pytest.raises(ValueError):
        metrics.mae([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        metrics.f1([1], [1, 0])
    with pytest.raises(ValueError):
        metrics.average_precision([0.5], [1, 0])


def test_metrics_reject_empty_and_nonfinite():
    with pytest.raises(ValueError):
        metrics.mae([], [])
    with pytest.raises(ValueError):
        metrics.rmse([np.nan], [0.0])
    with pytest.raises(ValueError):
        metrics.average_precision([np.inf], [1])


def test_label_metrics_reject_nonbinary():
    with pytest.raises(ValueError):
        metrics.f1([2, 0], [1, 0])
    with pytest.raises(ValueError):
        metrics.balanced_accuracy([1, 0], [1, 0.5])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=50))
def test_mae_never_exceeds_rmse(pairs):
    p = [a for a, _ in pairs]
    t = [b for _, b in pairs]
    assert metrics.mae(p, t) <= metrics.rmse(p, t) + 1e-9


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=50),
       st.randoms(use_true_random=False))
def test_regression_metrics_permutation_invariant(pairs, rnd):
    p = [a for a, _ in pairs]
    t = [b for _, b in pairs]
    order = list(range(len(pairs)))
    rnd.shuffle(order)
    assert metrics.mae(p, t) == pytest.approx(metrics.mae([p[i] for i in order], [t[i] for i in order]))
    assert metrics.rmse(p, t) == pytest.approx(metrics.rmse([p[i] for i in order], [t[i] for i in order]))


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=60))
def test_classification_metrics_bounded(pairs):
    pred = [a for a, _ in pairs]
    true = [b for _, b in pairs]
    if 0 < sum(true) < len(true):
        assert 0.0 <= metrics.balanced_accuracy(pred, true) <= 1.0
    assert 0.0 <= metrics.f1(pred, true) <= 1.0


@given(st.lists(st.tuples(finite_floats, st.integers(0, 1)), min_size=1, max_size=60))
def test_average_precision_bounded(pairs):
    scores = [a for a, _ in pairs]
    true = [b for _, b in pairs]
    if sum(true) == 0:
        return
    ap = metrics.average_precision(scores, true)
    n_pos = sum(true)
    n = len(true)
    assert 0.0 < ap <= 1.0 + 1e-12
    if all(t == 1 for t in true):
        assert ap == pytest.approx(1.0)
    # worst case ranks every positive below every negative
    floor = sum(i / (n - n_pos + i) for i in range(1, n_pos + 1)) / n_pos
    assert ap >= floor - 1e-12


def test_perfect_predictor_maximizes_everything():
    true = [1, 0, 1, 0, 1]
    assert metrics.balanced_accuracy(true, true) == 1.0
    assert metrics.f1(true, true) == 1.0
    assert metrics.average_precision([float(t) for t in true], true) == 1.0


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------

def test_regression_report_round_trips_json():
    rep = metrics.regression_report([1.0, 2.0, 3.0], [1.5, 2.0, 2.0])
    data = json.loads(rep.to_json())
    assert data["task"] == "regression"
    assert data["n"] == 3
    assert data["mae"] == pytest.approx(0.5)
    assert "balanced_accuracy" not in data


def test_classification_report_selection_metric_and_summary():
    rep = metrics.classification_report([0.9, 0.2, 0.8, 0.1],
                                        [1, 0, 1, 0], [1, 0, 0, 1])
    line = rep.summary()
    assert "%" in line and "bal_acc" in line


def test_regression_report_selection_metric_is_mae():
    rep = metrics.regression_report([1.0], [3.0])
    assert rep.mae == pytest.approx(2.0)


def test_report_rejects_missing_or_out_of_range_metrics():
    with pytest.raises(ValueError):
        metrics.EvalReport(task="regression", n=1, mae=1.0)  # rmse missing
    with pytest.raises(ValueError):
        metrics.EvalReport(task="classification", n=1, balanced_accuracy=1.5,
                           f1=0.5, average_precision=0.5)
    with pytest.raises(ValueError):
        metrics.EvalReport(task="nonsense", n=1)
