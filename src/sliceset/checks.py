"""On-demand verification suites: gradients, permutation invariance, metrics.

Three independent lines of defense, runnable from the CLI:

* ``gradient_suite`` — central finite differences (step 1e-3, 1e-4 for the
  encoder stem op and the whole models) against the engine's reverse-mode
  gradients for every operation and for end-to-end slice-set models.
  Checks run on float64 graphs through the very same op implementations,
  so the difference quotient is not drowned by storage rounding; pass
  threshold is max relative error < 1e-3 with the error measured as
  |analytic − numeric| / (|analytic| + 1e-6).
* ``permutation_suite`` — re-ordering slices must not move predictions when
  the positional table is disabled, and a zero-initialized table must be
  indistinguishable from no table at all.
* ``metric_suite`` — the vectorized metrics against plain-loop definitional
  oracles on random instances, including degenerate corners.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import Volume
from .encoders import EncoderConfig
from .metrics import average_precision, balanced_accuracy, f1, mae, rmse
from .model import (
    AGGREGATOR_KINDS,
    AggregatorConfig,
    AttentionAggregator,
    MeanAggregator,
    ModelConfig,
    PositionalTable,
    SliceSetModel,
    permute_volume,
    slice_count_for,
)
from .tensor import Tensor, concat, no_grad
from .train import he_init

FD_STEP = 1e-3
MODEL_FD_STEP = 1e-4
GRADIENT_TOLERANCE = 1e-3
PERMUTATION_TOLERANCE = 1e-5
PERMUTATION_TRIALS = 100      # random (volume, slice permutation) pairs per aggregator
METRIC_TOLERANCE = 1e-9
METRIC_INSTANCES = 100        # random metric instances


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        text = f"  [{status}] {self.name}: {self.detail}" if self.detail else f"  [{status}] {self.name}"
        return text


@dataclass
class SuiteReport:
    suite: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def worst(self) -> float:
        return max((r.value for r in self.results), default=0.0)

    def summary(self) -> str:
        lines = [r.line() for r in self.results]
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"{self.suite}: {status} "
                     f"({sum(r.passed for r in self.results)}/{len(self.results)} checks, "
                     f"worst value {self.worst:.3e})")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def _f64(module: nn.Module) -> nn.Module:
    """Widen a module's parameters in place so its graph runs in float64."""
    for _, mod in module.named_modules():
        for name, p in mod._params.items():
            p.data = p.data.astype(np.float64)
    return module


def _sample_indices(shape, rng, limit=6):
    size = int(np.prod(shape)) if shape else 1
    count = min(limit, size)
    flat = rng.choice(size, size=count, replace=False)
    return [np.unravel_index(int(i), shape) if shape else () for i in flat]


def gradient_error(objective, params, rng, h=FD_STEP, samples_per_tensor=6) -> float:
    """Max relative error of reverse-mode grads vs central differences.

    ``objective`` is a zero-argument callable rebuilding the scalar loss from
    the current parameter values; ``params`` are the leaf tensors to probe.
    """
    for p in params:
        p.zero_grad()
    loss = objective()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros(p.shape) for p in params]

    worst = 0.0
    with no_grad():
        for p, grads in zip(params, analytic):
            for idx in _sample_indices(p.shape, rng, samples_per_tensor):
                original = p.data[idx]
                p.data[idx] = original + h
                f_plus = float(objective().item())
                p.data[idx] = original - h
                f_minus = float(objective().item())
                p.data[idx] = original
                numeric = (f_plus - f_minus) / (2.0 * h)
                a = float(grads[idx])
                rel = abs(a - numeric) / (abs(a) + 1e-6)
                worst = max(worst, rel)
    return worst


def _away_from_kinks(arr, margin=0.1):
    """Nudge values out of the FD window around relu's non-differentiable point."""
    small = np.abs(arr) < margin
    arr[small] = arr[small] + np.sign(arr[small] + 1e-12) * margin
    return arr


def _t(rng, *shape, kink_safe=False, scale=1.0):
    data = rng.normal(0.0, scale, shape)
    if kink_safe:
        data = _away_from_kinks(data)
    return Tensor(data, requires_grad=True, dtype=np.float64)


def _signed_sum(rng, op, *inputs):
    """Probe ``op`` through the sum of its output weighted by random ±1 signs.

    The signs are drawn after the inputs, in the shape of the op's output.
    """
    with no_grad():
        shape = op(*inputs).shape
    signs = Tensor(rng.choice([-1.0, 1.0], shape), dtype=np.float64)
    return (lambda: (op(*inputs) * signs).sum()), list(inputs)


def _batch_norm_case(training):
    def build(rng):
        x, g, b = _t(rng, 4, 3, 5, 5), _t(rng, 3, scale=0.5), _t(rng, 3)
        g.data = g.data + 1.0
        if training:
            rm, rv = np.zeros(3), np.ones(3)
        else:
            rm, rv = rng.normal(0, 0.3, 3), 1.0 + np.abs(rng.normal(0, 0.2, 3))
        return _signed_sum(
            rng, lambda x, g, b: nn.batch_norm2d(x, g, b, rm, rv, training), x, g, b)
    return build


def _pool_margin(y, pool, stride, padding):
    """The smallest gap, over the max-pool windows of ``y``, between a
    window's two largest entries, counting zero (relu's kink, and the value
    of any padding) as an entry of every window."""
    top, bottom, left, right = (padding,) * 4 if isinstance(padding, int) else padding
    yp = np.pad(y, ((0, 0), (0, 0), (top, bottom), (left, right)), constant_values=-np.inf)
    oh, ow = (yp.shape[2] - pool) // stride + 1, (yp.shape[3] - pool) // stride + 1
    taps = [yp[:, :, rows, cols] for rows, cols in nn._taps(pool, pool, stride, oh, ow)]
    ranked = np.sort(np.stack(taps + [np.zeros_like(taps[0])]), axis=0)
    return float((ranked[-1] - ranked[-2]).min())


def _stem_case(frozen, pool=2, stride=2, padding=(0, 1, 0, 1), conv_stride=1, extent=5):
    """The encoders' stem op, conv -> batch norm -> max pool -> relu, whose
    backward recomputes the conv one group at a time: per-group moments in
    training mode, or frozen running statistics.  The default pool is
    cnn5's, with the odd map padded to even.  Inputs are drawn again until
    every pool window's maximum stands 0.02 clear of its runner-up and of
    relu's kink, so no finite-difference step crosses either."""
    def build(rng):
        conv = nn.Conv2d(1, 3, 3, stride=conv_stride, padding=1)
        bn = _f64(nn.BatchNorm2d(3))
        bn.freeze_stats, bn.group_size = frozen, 2
        margin = 0.0
        while margin < 0.02:
            x, conv.weight, bn.weight = (_t(rng, 4, 1, extent, extent), _t(rng, 3, 1, 3, 3),
                                         _t(rng, 3, scale=0.5))
            bn.weight.data = bn.weight.data + 1.0
            bn.running_mean[...], bn.running_var[...] = rng.normal(0, 0.3, 3), 1.0 + rng.uniform(0, 0.5, 3)
            with no_grad():
                y = nn.batch_norm2d(conv(x), bn.weight, bn.bias, bn.running_mean.copy(),
                                    bn.running_var.copy(), not frozen, groups=bn.groups(4))
            margin = _pool_margin(y.data, pool, stride, padding)

        def op(x, *_):          # the modules read their own parameters
            return nn.conv_bn_pool_relu(x, conv, bn, pool, stride, padding)
        return _signed_sum(rng, op, x, conv.weight, bn.weight, bn.bias)
    return build


def _cross_entropy_case(rng):
    logits = _t(rng, 6, 3)
    labels = rng.integers(0, 3, 6)
    return (lambda: nn.cross_entropy(logits, labels)), [logits]


def _regression_loss_case(loss, kink_safe=False, offset=0.0):
    def build(rng):
        p = _t(rng, 10, kink_safe=kink_safe)
        t = Tensor(rng.normal(0, 1, 10) + offset, dtype=np.float64)
        return (lambda: loss(p, t)), [p]
    return build


# (name, build) with build(rng) -> (objective, params).  Case i draws from
# rng(seed * 1000 + i), so new cases go at the end to keep earlier draws.
_OP_CASES = [
    ("arithmetic", lambda rng: _signed_sum(
        rng, lambda a, b: a * b + a - b * 2.0, _t(rng, 4, 5), _t(rng, 4, 5))),
    ("matmul", lambda rng: _signed_sum(rng, operator.matmul, _t(rng, 3, 4), _t(rng, 4, 5))),
    ("linear", lambda rng: _signed_sum(rng, nn.linear, _t(rng, 4, 6), _t(rng, 3, 6), _t(rng, 3))),
    ("relu", lambda rng: _signed_sum(rng, nn.relu, _t(rng, 5, 7, kink_safe=True))),
    ("softmax.lastaxis", lambda rng: _signed_sum(
        rng, lambda x: nn.softmax(x, axis=-1), _t(rng, 4, 6))),
    ("softmax.axis0", lambda rng: _signed_sum(
        rng, lambda x: nn.softmax(x, axis=0), _t(rng, 5, 3))),
    ("layer_norm", lambda rng: _signed_sum(
        rng, nn.layer_norm, _t(rng, 5, 8), _t(rng, 8), _t(rng, 8))),
    ("conv2d.basic", lambda rng: _signed_sum(
        rng, nn.conv2d, _t(rng, 2, 2, 6, 5), _t(rng, 3, 2, 3, 3, scale=0.5))),
    ("conv2d.stride2pad1", lambda rng: _signed_sum(
        rng, lambda x, k: nn.conv2d(x, k, stride=2, padding=1),
        _t(rng, 1, 2, 5, 5), _t(rng, 3, 2, 3, 3, scale=0.5))),
    ("conv2d.kernel2x2", lambda rng: _signed_sum(
        rng, nn.conv2d, _t(rng, 2, 3, 4, 4), _t(rng, 2, 3, 2, 2, scale=0.5))),
    ("max_pool2d.2x2", lambda rng: _signed_sum(
        rng, lambda x: nn.max_pool2d(x, 2), _t(rng, 2, 3, 6, 6))),
    ("max_pool2d.3x3s2p1", lambda rng: _signed_sum(
        rng, lambda x: nn.max_pool2d(x, 3, stride=2, padding=1), _t(rng, 1, 2, 7, 7))),
    ("global_avg_pool2d", lambda rng: _signed_sum(rng, nn.global_avg_pool2d, _t(rng, 3, 4, 5, 6))),
    ("batch_norm2d.train", _batch_norm_case(training=True)),
    ("batch_norm2d.eval", _batch_norm_case(training=False)),
    ("cross_entropy", _cross_entropy_case),
    ("l1_loss", _regression_loss_case(nn.l1_loss, kink_safe=True, offset=5.0)),
    ("mse_loss", _regression_loss_case(nn.mse_loss)),
    ("reshape_transpose", lambda rng: _signed_sum(
        rng, lambda x: x.transpose(2, 0, 1).reshape(2, 12), _t(rng, 3, 4, 2))),
    ("mean_reduction", lambda rng: _signed_sum(rng, lambda x: x.mean(axis=1), _t(rng, 4, 6))),
    ("pad2d", lambda rng: _signed_sum(
        rng, lambda x: nn.pad2d(x, (1, 1, 2, 2)), _t(rng, 2, 2, 3, 3))),
    ("matmul.stacked", lambda rng: _signed_sum(
        rng, operator.matmul, _t(rng, 3, 4, 5), _t(rng, 3, 5, 2))),
    ("linear.stacked", lambda rng: _signed_sum(
        rng, nn.linear, _t(rng, 2, 3, 6), _t(rng, 4, 6), _t(rng, 4))),
    ("concat", lambda rng: _signed_sum(
        rng, lambda a, b: concat([a, b]), _t(rng, 2, 3), _t(rng, 4, 3))),
    ("pow", lambda rng: _signed_sum(rng, lambda x: x ** 3, _t(rng, 3, 4, kink_safe=True))),
    ("stem.train", _stem_case(frozen=False)),
    ("stem.frozen_stats", _stem_case(frozen=True)),
    ("stem.resnet_pool", _stem_case(frozen=False, pool=3, stride=2, padding=1, conv_stride=2,
                                    extent=7)),
]


def _small_model(task, aggregator_kind, positional=False, seed=0,
                 extents=(8, 12, 8), axis="coronal"):
    config = ModelConfig(
        task=task,
        axis=axis,
        encoder=EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=8),
        aggregator=AggregatorConfig(kind=aggregator_kind),
        positional_enabled=positional,
    )
    model = SliceSetModel(config, slice_count_for(extents, axis))
    he_init(model, seed=seed)
    return model


def _model_case(task, aggregator_kind, seed):
    """End-to-end slice-set model gradient case on an 8x12x8 volume."""

    def build(rng):
        extents = (8, 12, 8)
        model = _small_model(task, aggregator_kind, positional=True, seed=seed,
                             extents=extents)
        _f64(model)
        # Probe the gradient at a point where relu inputs sit well away from
        # zero: batch norm centers preactivations, so at the default init a
        # 1e-3 step flips the sign of several units per evaluation and the
        # difference quotient stops measuring the derivative.  Shifting each
        # norm offset (and the attention feed-forward bias) a few sigma off
        # the kink keeps every code path under test differentiable across
        # the whole step.
        for _, mod in model.named_modules():
            if isinstance(mod, nn.BatchNorm2d):
                mod.bias.data = mod.bias.data + 4.0
        if aggregator_kind == "attention":
            model.aggregator.ff1.bias.data = model.aggregator.ff1.bias.data + 2.0
        model.train()
        volume = Volume(voxels=rng.normal(0, 1, extents).astype(np.float32),
                        subject_id="grad-check")
        if task == "regression":
            target = Tensor(np.float64(3.0), dtype=np.float64)

            def raw():
                pred = model.forward_volume(volume)
                return (pred - target) * (pred - target)
        else:
            label = np.array([1], dtype=np.int64)

            def raw():
                logits = model.forward_volume(volume).reshape(1, -1)
                return nn.cross_entropy(logits, label)

        # Normalize the objective to unit magnitude at the probe point.  The
        # difference quotient's roundoff noise is proportional to the loss
        # value, and coordinates whose true gradient is ~0 (dead relu paths)
        # would otherwise report that noise against the 1e-6 denominator
        # guard.  A constant scale leaves relative gradient errors unchanged.
        with no_grad():
            scale = 1.0 / max(1.0, float(raw().item()))

        def objective():
            return raw() * scale

        return objective, model.parameters()

    return build


def gradient_suite(seed: int = 0) -> SuiteReport:
    # (name, build, rng seed, difference step, samples per tensor)
    cases = [(f"op.{name}", build, seed * 1000 + i,
              # Batch norm makes the stem's loss invariant to its kernel's
              # scale, so some kernel-gradient entries sit near zero, where the
              # truncation error of a 1e-3 central difference dominates their
              # relative error; the models' 1e-4 step leaves roundoff only.
              MODEL_FD_STEP if name.startswith("stem.") else FD_STEP, 6)
             for i, (name, build) in enumerate(_OP_CASES)]
    # The composed models chain five conv blocks, so a 1e-3 step flips relu
    # signs that a single-op probe never sees; a 1e-4 step keeps the quotient
    # inside one linear region while float64 evaluation keeps roundoff far
    # below tolerance.
    cases += [(f"model.cnn5-{aggregator}.{task}", _model_case(task, aggregator, seed),
               7000 + seed * 100 + i, MODEL_FD_STEP, 3)
              for i, (aggregator, task) in enumerate((("mean", "regression"),
                                                      ("attention", "regression"),
                                                      ("mean", "classification")))]
    report = SuiteReport(suite="gradients")
    for name, build, rng_seed, h, samples in cases:
        rng = np.random.default_rng(rng_seed)
        objective, params = build(rng)
        err = gradient_error(objective, params, rng, h=h, samples_per_tensor=samples)
        report.results.append(CheckResult(
            name=name, passed=err < GRADIENT_TOLERANCE, value=err,
            detail=f"max rel err {err:.3e}"))
    return report


# ---------------------------------------------------------------------------
# permutation invariance
# ---------------------------------------------------------------------------

def permutation_suite(seed: int = 0) -> SuiteReport:
    """Slice-order invariance for both aggregators, plus zero-table identity."""
    report = SuiteReport(suite="permutation")
    extents = (6, 10, 8)
    axis = "coronal"
    k = slice_count_for(extents, axis)
    rng = np.random.default_rng(seed)

    for agg_kind in AGGREGATOR_KINDS:
        model = _small_model("regression", agg_kind, positional=False, seed=seed,
                             extents=extents, axis=axis)
        model.eval()
        worst = 0.0
        with no_grad():
            for _ in range(PERMUTATION_TRIALS):
                volume = Volume(voxels=rng.normal(0, 1, extents).astype(np.float32))
                perm = rng.permutation(k)
                base = model.forward_volume(volume).item()
                shuffled = model.forward_volume(permute_volume(volume, axis, perm)).item()
                delta = abs(base - shuffled) / (1.0 + abs(base))
                worst = max(worst, delta)
        report.results.append(CheckResult(
            name=f"invariance.{agg_kind}", passed=worst < PERMUTATION_TOLERANCE, value=worst,
            detail=f"{PERMUTATION_TRIALS} volume/permutation pairs, worst |Δ|/(1+|pred|) {worst:.3e}"))

    # A zero-initialized positional table must change nothing at all.
    plain = _small_model("regression", "mean", positional=False, seed=seed, extents=extents,
                         axis=axis)
    with_table = _small_model("regression", "mean", positional=True, seed=seed, extents=extents,
                              axis=axis)
    plain.eval()
    with_table.eval()
    identical = True
    with no_grad():
        for _ in range(10):
            volume = Volume(voxels=rng.normal(0, 1, extents).astype(np.float32))
            a = plain.forward_volume(volume).numpy()
            b = with_table.forward_volume(volume).numpy()
            if not np.array_equal(a, b):
                identical = False
    report.results.append(CheckResult(
        name="zero_table_identity", passed=identical, value=0.0 if identical else 1.0,
        detail="enabled zero table == disabled, bit-identical" if identical
        else "zero table changed predictions"))
    return report


# ---------------------------------------------------------------------------
# metric oracles
# ---------------------------------------------------------------------------

def oracle_mae(predictions, targets) -> float:
    total = 0.0
    for p, t in zip(predictions, targets):
        total += abs(float(p) - float(t))
    return total / len(predictions)


def oracle_rmse(predictions, targets) -> float:
    total = 0.0
    for p, t in zip(predictions, targets):
        total += (float(p) - float(t)) ** 2
    return math.sqrt(total / len(predictions))


def _oracle_counts(pred_labels, true_labels):
    tp = tn = fp = fn = 0
    for p, t in zip(pred_labels, true_labels):
        if t == 1:
            tp, fn = (tp + 1, fn) if p == 1 else (tp, fn + 1)
        else:
            tn, fp = (tn + 1, fp) if p == 0 else (tn, fp + 1)
    return tp, tn, fp, fn


def oracle_balanced_accuracy(pred_labels, true_labels) -> float:
    tp, tn, fp, fn = _oracle_counts(pred_labels, true_labels)
    return (tp / (tp + fn) + tn / (tn + fp)) / 2.0


def oracle_f1(pred_labels, true_labels) -> float:
    tp, tn, fp, fn = _oracle_counts(pred_labels, true_labels)
    if tp == 0:
        return 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def oracle_average_precision(scores, true_labels) -> float:
    order = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))
    positives_seen = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if true_labels[i] == 1:
            positives_seen += 1
            total += positives_seen / rank
    return total / sum(1 for t in true_labels if t == 1)


def metric_suite(seed: int = 0) -> SuiteReport:
    report = SuiteReport(suite="metrics")
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = []
    for i in range(METRIC_INSTANCES):
        n = int(rng.integers(2, 201))
        preds = rng.normal(0, 5, n)
        targets = rng.normal(0, 5, n)
        pairs = [("mae", mae(preds, targets), oracle_mae(preds, targets)),
                 ("rmse", rmse(preds, targets), oracle_rmse(preds, targets))]

        truth = rng.integers(0, 2, n)
        truth[0], truth[1] = 1, 0  # both classes always present
        if i % 10 == 0:
            labels = truth.copy()  # perfect predictor corner
        elif i % 10 == 5:
            labels = np.zeros(n, dtype=np.int64)  # no predicted positives corner
        else:
            labels = rng.integers(0, 2, n)
        scores = rng.normal(0, 1, n)
        if i % 3 == 0:
            scores = np.round(scores, 1)  # force score ties
        pairs += [
            ("balanced_accuracy", balanced_accuracy(labels, truth),
             oracle_balanced_accuracy(labels, truth)),
            ("f1", f1(labels, truth), oracle_f1(labels, truth)),
            ("average_precision", average_precision(scores, truth),
             oracle_average_precision(scores, truth)),
        ]
        for metric_name, got, want in pairs:
            diff = abs(got - want)
            worst = max(worst, diff)
            if diff > METRIC_TOLERANCE:
                failures.append(f"{metric_name}@{i}: {got!r} vs oracle {want!r}")

    # Fixed degenerate corners on top of the random sweep.
    perfect = [1, 0, 1, 1, 0]
    corner_ok = (
        balanced_accuracy(perfect, perfect) == 1.0
        and f1(perfect, perfect) == 1.0
        and average_precision([0.9, 0.1, 0.8, 0.7, 0.2], perfect) == 1.0
        and f1([0, 0, 0, 0], [1, 1, 0, 0]) == 0.0
    )
    passed = not failures and corner_ok
    detail = f"{METRIC_INSTANCES} random instances, worst |Δ| {worst:.2e}"
    if failures:
        detail += "; first failures: " + "; ".join(failures[:3])
    if not corner_ok:
        detail += "; degenerate corner values wrong"
    report.results.append(CheckResult(
        name="oracle_equivalence", passed=passed, value=worst, detail=detail))
    return report


SUITES = {
    "gradients": gradient_suite,
    "permutation": permutation_suite,
    "metrics": metric_suite,
}


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown check suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=seed)
