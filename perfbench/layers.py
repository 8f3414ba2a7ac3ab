"""Timing wrappers around the public functions of the ``sliceset`` package.

Two wrapper sets, both installed by rebinding module and class attributes and
both removed again by ``Patches.undo``:

* ``Probe`` is always on.  It timestamps optimizer ``zero_grad``/``step`` (the
  per-batch step time of an end-to-end run) and keeps the last ``predict``
  result so the benchmark can check ``evaluate`` against the oracles on the
  very predictions it scored.  It costs a few clock reads per batch.
* ``Tracer`` is on only in traced runs.  It records a span around each public
  call of every layer, and also wraps the backward closure of each op's
  output tensor, so backward time is attributed to the op that built it.

Span rules.  An op span (``nn.<op>`` or Tensor arithmetic) never nests: work
an op does through other ops, forward and backward, belongs to the outermost
op.  Other spans nest; a span's self time is its duration minus the spans it
contains, and a span nested directly in one of the same label is folded into
it.  Leaf spans do the work; container spans (model, encoder, loop, backward
walk) only group it, so their self time is Python glue.

Every wrapped name is looked up when installing; a name that no longer exists
raises ``TraceError`` instead of silently dropping a layer.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

perf_counter = time.perf_counter

SUBMODULES = ("tensor", "nn", "data", "nifti", "encoders", "model", "train",
              "metrics", "weights", "checks")

# nn op functions, grouped under the per-layer op names of the report.
NN_OPS = {
    "conv2d": ("conv2d",),
    "batch_norm2d": ("batch_norm2d",),
    "max_pool2d": ("max_pool2d",),
    "relu": ("relu",),
    "pad2d": ("pad2d",),
    "global_avg_pool2d": ("global_avg_pool2d",),
    "linear": ("linear",),
    "layer_norm": ("layer_norm",),
    "softmax": ("softmax",),
    "loss": ("cross_entropy", "mse_loss", "l1_loss"),
}

# Tensor arithmetic, matmul, reshape, transpose and stack.
TENSOR_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__neg__", "__truediv__", "__pow__", "abs", "reshape", "transpose",
                  "matmul", "__matmul__", "sum", "mean")

# Leaf spans: their self time is work attributed to a layer (trace.coverage).
LEAF_LABELS = {"train.optimizer_step", "train.zero_grad", "train.snapshot",
               "model.slice_volume", "weights.to_bytes", "weights.from_bytes",
               "weights.import_encoder", "weights.import_strict", "nifti.load",
               "nifti.save", "data.normalize", "data.generate", "metrics.report"}


class TraceError(RuntimeError):
    """A name the tracer wraps is missing from the package."""


def load_package():
    """Import every ``sliceset`` submodule the benchmark uses; return them by name."""
    return {name: importlib.import_module(f"sliceset.{name}") for name in SUBMODULES}


class Patches:
    """Rebinds package attributes to wrappers and restores them, newest first."""

    def __init__(self):
        self._undo = []
        self._wrappers = set()   # ids of wrappers installed here, so aliases wrap once

    def function(self, module, name, make):
        """Wrap ``module.name`` and every other package binding of the same function."""
        original = getattr(module, name, None)
        if original is None:
            raise TraceError(f"{module.__name__}.{name} no longer exists")
        wrapper = make(original)
        for mod in [m for key, m in sys.modules.items() if key.startswith("sliceset.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name, make):
        """Wrap ``cls.name`` (also a classmethod) and every alias of it in the class."""
        original = cls.__dict__.get(name)
        if original is None:
            raise TraceError(f"{cls.__module__}.{cls.__qualname__}.{name} no longer exists")
        if id(original) in self._wrappers:
            return
        if isinstance(original, classmethod):
            wrapper = classmethod(make(original.__func__))
        else:
            wrapper = make(original)
        self._wrappers.add(id(wrapper))
        for attr, value in list(cls.__dict__.items()):
            if value is original:
                self._undo.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def undo(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Probe:
    """Per-batch step times and the last ``predict`` result; always installed."""

    def __init__(self, pkg):
        self.phase = "setup"
        self.steps = defaultdict(list)    # phase -> step durations in seconds
        self.predict_calls = 0
        self.last_predict = None
        self._step_start = None
        self._patches = Patches()
        train = pkg["train"]
        for cls in (train.Adam, train.SGD):
            self._patches.method(cls, "zero_grad", self._zero_grad)
            self._patches.method(cls, "step", self._step)
        self._patches.function(train, "predict", self._predict)

    def close(self):
        self._patches.undo()

    def _zero_grad(self, fn):
        def zero_grad(optimizer):
            self._step_start = perf_counter()
            return fn(optimizer)
        return zero_grad

    def _step(self, fn):
        def step(optimizer):
            out = fn(optimizer)
            if self._step_start is not None:
                self.steps[self.phase].append(perf_counter() - self._step_start)
                self._step_start = None
            return out
        return step

    def _predict(self, fn):
        def predict(model, volumes):
            self.predict_calls += 1
            self.last_predict = fn(model, volumes)
            return self.last_predict
        return predict


class Stats:
    """What a tracer records while it is pointed at this object."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # label -> [calls, total s, self s]
        self.counters = defaultdict(float)

    def calls(self, label):
        return self.spans[label][0] if label in self.spans else 0

    def total(self, label):
        return self.spans[label][1] if label in self.spans else 0.0

    def self_time(self, label):
        return self.spans[label][2] if label in self.spans else 0.0

    def attributed(self):
        """Seconds of leaf work: op forward and backward plus leaf spans."""
        return sum(s[2] for label, s in self.spans.items()
                   if label in LEAF_LABELS or label.endswith((".fwd", ".bwd")))


class Tracer:
    """Per-layer spans over the package's public calls; see the module docstring."""

    def __init__(self, pkg, stats: Stats | None = None):
        self.pkg = pkg
        self.stats = stats if stats is not None else Stats()
        self._stack = []           # open spans: [label, seconds of nested spans]
        self._op = None            # backward label of the op being run, if any
        self._in_train = 0         # depth of train.train calls
        self._forward_start = None
        self._patches = Patches()
        try:
            self._install()
        except TraceError:
            self._patches.undo()
            raise

    def close(self):
        self._patches.undo()

    @contextlib.contextmanager
    def paused(self):
        """Record into a throwaway ``Stats``: the benchmark's own checks are not traced work."""
        saved, self.stats = self.stats, Stats()
        try:
            yield
        finally:
            self.stats = saved

    # -- recording -----------------------------------------------------------

    def _record(self, label, elapsed, nested=0.0):
        span = self.stats.spans[label]
        span[0] += 1
        span[1] += elapsed
        span[2] += elapsed - nested
        if self._stack:
            self._stack[-1][1] += elapsed

    def _span(self, label, fn, validate_label=None):
        """Wrap ``fn`` in a nesting span; inside ``train.train`` use ``validate_label``."""
        stack = self._stack

        def wrapped(*args, **kwargs):
            name = validate_label if validate_label and self._in_train else label
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            stack.append([name, 0.0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _, nested = stack.pop()
                self._record(name, elapsed, nested)
        return wrapped

    def _wrap_backward(self, out, label, inputs):
        backward = getattr(out, "_backward", None)
        if backward is None or getattr(backward, "traced", False):
            return
        if any(out is x for x in inputs):
            return   # an op that returned its input unchanged built no closure

        def traced(node):
            start = perf_counter()
            backward(node)
            self._record(label, perf_counter() - start)
        traced.traced = True
        out._backward = traced

    def _op_span(self, name, fn, on_call=None):
        fwd, bwd = name + ".fwd", name + ".bwd"

        def wrapped(*args, **kwargs):
            if self._op is not None:
                out = fn(*args, **kwargs)
                self._wrap_backward(out, self._op, args)
                return out
            self._op = bwd
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._op = None
            self._record(fwd, perf_counter() - start)
            if on_call is not None:
                on_call(out, *args, **kwargs)
            self._wrap_backward(out, bwd, args)
            return out
        return wrapped

    # -- per-layer hooks -------------------------------------------------------

    def _conv_counts(self, out, x, kernel, bias=None, stride=1, padding=0):
        n, c, h, w = x.shape
        f, _, kh, kw = kernel.shape
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (w + 2 * padding - kw) // stride + 1
        flop = 2.0 * n * f * c * kh * kw * oh * ow
        counters = self.stats.counters
        counters["conv.fwd_flop"] += flop
        counters["conv.im2col_bytes"] += 4.0 * n * c * kh * kw * oh * ow
        if out._backward is not None:
            counters["conv.bwd_flop"] += flop * (int(x.requires_grad) + int(kernel.requires_grad))

    def _encoder(self, fn):
        span = self._span("encoders.fwd", fn)

        def encoder(module, x):
            self.stats.counters["encoders.slices"] += x.shape[0]
            return span(module, x)
        return encoder

    def _train(self, fn):
        span = self._span("train.train", fn)

        def train(*args, **kwargs):
            self._in_train += 1
            try:
                return span(*args, **kwargs)
            finally:
                self._in_train -= 1
        return train

    def _zero_grad(self, fn):
        span = self._span("train.zero_grad", fn)

        def zero_grad(optimizer):
            out = span(optimizer)
            self._forward_start = perf_counter()
            return out
        return zero_grad

    def _backward(self, fn):
        span = self._span("tensor.backward", fn)

        def backward(loss):
            if self._forward_start is not None:
                self.stats.counters["train.forward"] += perf_counter() - self._forward_start
                self._forward_start = None
            return span(loss)
        return backward

    def _to_bytes(self, fn):
        span = self._span("weights.to_bytes", fn)

        def to_bytes(archive):
            raw = span(archive)
            self.stats.counters["weights.archive_bytes"] += len(raw)
            return raw
        return to_bytes

    def _load_nifti(self, fn):
        span = self._span("nifti.load", fn)

        def load_nifti(path):
            volume = span(path)
            self.stats.counters["nifti.file_bytes"] += Path(path).stat().st_size
            return volume
        return load_nifti

    def _install(self):
        pkg, p = self.pkg, self._patches
        nn, tensor, train = pkg["nn"], pkg["tensor"], pkg["train"]
        for op, functions in NN_OPS.items():
            on_call = self._conv_counts if op == "conv2d" else None
            for fname in functions:
                p.function(nn, fname, lambda fn, op=op, cb=on_call: self._op_span(f"nn.{op}", fn, cb))
        for name in TENSOR_METHODS:
            p.method(tensor.Tensor, name, lambda fn: self._op_span("tensor.elementwise", fn))
        p.function(tensor, "stack", lambda fn: self._op_span("tensor.elementwise", fn))
        p.function(tensor, "backward", self._backward)

        enc = pkg["encoders"]
        for cls in (enc.CNN5Encoder, enc.ResNetEncoder):
            p.method(cls, "__call__", self._encoder)
        model = pkg["model"]
        p.function(model, "slice_volume", lambda fn: self._span("model.slice_volume", fn))
        for cls in (model.MeanAggregator, model.AttentionAggregator):
            p.method(cls, "__call__", lambda fn: self._span("model.aggregator", fn))
        p.method(model.SliceSetModel, "forward_volume",
                 lambda fn: self._span("model.forward_volume", fn))

        p.function(train, "train", self._train)
        p.function(train, "predict", lambda fn: self._span("train.predict", fn, "train.validate"))
        p.function(train, "evaluate", lambda fn: self._span("train.evaluate", fn, "train.validate"))
        p.function(train, "snapshot_state", lambda fn: self._span("train.snapshot", fn))
        for cls in (train.Adam, train.SGD):
            p.method(cls, "zero_grad", self._zero_grad)
            p.method(cls, "step", lambda fn: self._span("train.optimizer_step", fn))

        weights = pkg["weights"]
        p.method(weights.WeightArchive, "to_bytes", self._to_bytes)
        p.method(weights.WeightArchive, "from_bytes", lambda fn: self._span("weights.from_bytes", fn))
        p.function(weights, "import_encoder", lambda fn: self._span("weights.import_encoder", fn))
        p.function(weights, "import_strict", lambda fn: self._span("weights.import_strict", fn))

        nifti, data, metrics = pkg["nifti"], pkg["data"], pkg["metrics"]
        p.function(nifti, "load_nifti", self._load_nifti)
        p.function(nifti, "save_nifti", lambda fn: self._span("nifti.save", fn))
        p.function(data, "normalize", lambda fn: self._span("data.normalize", fn))
        for name in ("generate_synthetic", "generate_synthetic_images"):
            p.function(data, name, lambda fn: self._span("data.generate", fn))
        for name in ("regression_report", "classification_report", "mae", "rmse",
                     "balanced_accuracy", "f1", "average_precision"):
            p.function(metrics, name, lambda fn: self._span("metrics.report", fn))
