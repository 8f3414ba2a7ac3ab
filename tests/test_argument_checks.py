"""Argument checks across the package: each refused call raises its type
with its exact message."""

import json

import numpy as np
import pytest

from sliceset import nn
from sliceset.checks import run_suite
from sliceset.data import SyntheticSpec
from sliceset.encoders import EncoderConfig
from sliceset.metrics import EvalReport, average_precision, balanced_accuracy, f1, mae
from sliceset.model import aggregate_mean
from sliceset.tensor import Tensor, stack
from sliceset.weights import WeightArchive, WeightArchiveError


def t(*shape, dtype=np.float32):
    return Tensor(np.zeros(shape), dtype=dtype)


def archive_of_version(version):
    raw = WeightArchive(entries={"w": np.zeros(2)}).to_bytes()
    old = b'"version":1'
    assert raw.count(old) == 1
    return raw.replace(old, f'"version":{json.dumps(version)}'.encode())


CASES = {
    # nn
    "softmax.empty-axis": (lambda: nn.softmax(t(2, 0), axis=1),
                           ValueError, "softmax over an empty axis"),
    "linear.input-ndim": (lambda: nn.linear(t(3), t(2, 3), t(2)), ValueError,
                          "linear expects (..., N, din) input and 2-D weight, got (3,) and (2, 3)"),
    "linear.features": (lambda: nn.linear(t(4, 3), t(2, 5), t(2)), ValueError,
                        "linear dimension mismatch: input has 3 features, weight expects 5"),
    "linear.bias": (lambda: nn.linear(t(4, 3), t(2, 3), t(3)), ValueError,
                    "linear bias shape (3,) does not match output dim 2"),
    "conv2d.input-ndim": (lambda: nn.conv2d(t(1, 1, 4), t(1, 1, 3, 3)), ValueError,
                          "conv2d expects 4-D input and kernel, got (1, 1, 4) and (1, 1, 3, 3)"),
    "conv2d.stride": (lambda: nn.conv2d(t(1, 1, 4, 4), t(1, 1, 3, 3), stride=0),
                      ValueError, "conv2d stride must be >= 1"),
    "max_pool2d.window": (lambda: nn.max_pool2d(t(1, 1, 2, 2), 3), ValueError,
                          "max_pool2d window 3 exceeds padded input 2x2"),
    "layer_norm.empty-axis": (lambda: nn.layer_norm(t(2, 0), t(0), t(0)),
                              ValueError, "layer_norm over an empty axis"),
    "layer_norm.gain": (lambda: nn.layer_norm(t(2, 3), t(4), t(3)),
                        ValueError, "layer_norm gain/offset must have shape (3,)"),
    "cross_entropy.logits-ndim": (lambda: nn.cross_entropy(t(3), [0]), ValueError,
                                  "cross_entropy expects (N, K) logits, got (3,)"),
    "cross_entropy.empty": (lambda: nn.cross_entropy(t(0, 2), np.zeros(0, np.int64)),
                            ValueError, "cross_entropy requires at least one sample"),
    "cross_entropy.labels-shape": (lambda: nn.cross_entropy(t(2, 2), [0]), ValueError,
                                   "cross_entropy labels must have shape (2,), got (1,)"),
    "cross_entropy.labels-dtype": (lambda: nn.cross_entropy(t(2, 2), [0.0, 1.0]),
                                   ValueError, "cross_entropy labels must be integers"),
    "cross_entropy.label-range": (lambda: nn.cross_entropy(t(2, 2), [0, 2]), ValueError,
                                  "cross_entropy label outside [0, 2): [0, 2]"),
    "l1_loss.shape": (lambda: nn.l1_loss(t(3), t(2)), ValueError,
                      "l1_loss shape mismatch: (3,) vs (2,)"),
    "mse_loss.shape": (lambda: nn.mse_loss(t(3), t(2)), ValueError,
                       "mse_loss shape mismatch: (3,) vs (2,)"),
    "load_state.shape": (lambda: nn.load_state(nn.Linear(2, 3), {"weight": np.zeros((2, 2))}),
                         ValueError, "state entry 'weight' has shape (2, 2), expected (3, 2)"),
    # tensor
    "tensor.item": (lambda: t(2).item(), ValueError,
                    "item() requires a single-element tensor, got shape (2,)"),
    "tensor.truediv": (lambda: t(2) / t(2), TypeError,
                       "division only supports scalar divisors; use mul with a reciprocal tensor"),
    "tensor.pow": (lambda: t(2) ** t(2), TypeError, "pow only supports scalar exponents"),
    "tensor.matmul-ndim": (lambda: t(3) @ t(3, 2), ValueError,
                           "matmul expects 2-D operands or equal stacks, got (3,) @ (3, 2)"),
    "tensor.matmul-inner": (lambda: t(2, 3) @ t(4, 2), ValueError,
                            "matmul inner dimensions differ: (2, 3) @ (4, 2)"),
    "tensor.stack-empty": (lambda: stack([]), ValueError, "stack requires at least one tensor"),
    "tensor.backward-no-grad": (lambda: t(1).sum().backward(), ValueError,
                                "loss does not require grad; nothing to differentiate"),
    # model
    "model.aggregate_mean": (lambda: aggregate_mean(t(2, 3)), ValueError,
                             "aggregate_mean expects a nonempty (R, K, d) stack, got (2, 3)"),
    # weights
    "weights.version": (lambda: WeightArchive.from_bytes(archive_of_version(2)),
                        WeightArchiveError, "unsupported archive version 2"),
    # data
    "data.blob_radius": (lambda: SyntheticSpec(blob_radius=0), ValueError,
                         "blob_radius must be >= 1"),
    "data.extents-count": (lambda: SyntheticSpec(extents=(8, 8)), ValueError,
                           "extents must be three positive integers, got (8, 8)"),
    "data.extents-positive": (lambda: SyntheticSpec(extents=(8, 0, 8)), ValueError,
                              "extents must be three positive integers, got (8, 0, 8)"),
    # metrics
    "metrics.empty-labels": (lambda: balanced_accuracy([], []), ValueError,
                             "metric input is empty"),
    "metrics.mae-length": (lambda: mae([1.0, 2.0], [1.0]), ValueError,
                           "length mismatch: 2 predictions vs 1 targets"),
    "metrics.balanced_accuracy-length": (lambda: balanced_accuracy([0, 1], [0, 1, 1]), ValueError,
                                         "length mismatch: 2 predictions vs 3 targets"),
    "metrics.f1-length": (lambda: f1([0, 1], [0, 1, 1]), ValueError,
                          "length mismatch: 2 predictions vs 3 targets"),
    "metrics.average_precision-length": (lambda: average_precision([0.1, 0.2], [0, 1, 1]),
                                         ValueError, "length mismatch: 2 scores vs 3 targets"),
    "metrics.non-finite-report": (lambda: EvalReport("regression", 3, mae=float("nan"), rmse=1.0),
                                  ValueError, "non-finite metric in report: (nan, 1.0)"),
    # encoders
    "encoders.input_channels": (lambda: EncoderConfig(input_channels=0), ValueError,
                                "input_channels must be >= 1"),
    # checks
    "checks.unknown-suite": (lambda: run_suite("nope"), ValueError,
                             "unknown check suite 'nope'; "
                             "choose from ['gradients', 'metrics', 'permutation']"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES)
def test_refused_call_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
