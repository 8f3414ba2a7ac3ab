"""Initialization, optimizers, the epoch loop with best-model selection, and 2D
pretraining on that loop; archives and imports live in :mod:`sliceset.weights`.

Each training batch goes through :meth:`SliceSetModel.forward_volumes`,
which returns the batch's (R,) or (R, 2) output from one encoder call per
run of same-shape volumes and one tail call; the encoder's batch norms,
whose group size is the model's slice count, normalize each volume's slices
by that volume's own moments and update their running statistics once per
volume, in batch order, so a batch trains as per-volume forward passes
would.  The loop
validates after every epoch and keeps the checkpoint that optimizes the
task's selection metric (lowest mean absolute error for regression,
highest balanced accuracy for classification), breaking ties toward the
earliest epoch.  Runs are fully deterministic given (seed, data, config);
the per-epoch wall-clock entry is the only field allowed to differ between
identical runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import nn
from .data import Volume
from .encoders import EncoderConfig, build_encoder
from .metrics import EvalReport, classification_report, mae, regression_report
from .model import SliceSetModel
from .tensor import Tensor, no_grad
from .weights import WeightArchive

OPTIMIZER_KINDS = ("adam", "sgd")
# The optimizers run their float64 arithmetic in runs of at most this many
# elements of a parameter, so their work arrays stay small however large the
# parameter.
OPTIMIZER_CHUNK = 2 ** 15
LOSS_KINDS = ("l1", "mse", "cross_entropy")


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss goes non-finite, naming the epoch and batch,
    a validation prediction does, naming the epoch, or a gradient or a
    parameter's new value does, naming the parameter."""


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    momentum: float = 0.0

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.kind!r}; choose from {OPTIMIZER_KINDS}")
        for name in ("learning_rate", "beta1", "beta2", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.kind == "adam" and self.momentum != 0.0:
            raise ValueError(f"momentum {self.momentum} is for optimizer 'sgd'; "
                             "optimizer 'adam' takes beta1 instead")


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters; the loss defaults from the task when None."""

    epochs: int = 100
    batch_size: int = 8
    loss: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.loss is not None and self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}; choose from {LOSS_KINDS}")

    def resolved(self, task: str) -> "TrainConfig":
        loss = self.loss or ("cross_entropy" if task == "classification" else "mse")
        if task == "classification" and loss != "cross_entropy":
            raise ValueError(f"loss {loss!r} does not fit classification")
        if task == "regression" and loss == "cross_entropy":
            raise ValueError("cross_entropy does not fit regression")
        return replace(self, loss=loss)


@dataclass
class Checkpoint:
    """Snapshot of every parameter and buffer at one epoch."""

    epoch: int
    val_metric: float
    state: dict[str, np.ndarray]

    def restore(self, module: nn.Module):
        nn.load_state(module, self.state)


def snapshot_state(module: nn.Module) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr, _ in module.named_state()}


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def he_init(model: nn.Module, seed: int = 0) -> nn.Module:
    """Draw conv/linear weights from Normal(0, sqrt(2/fan_in)), biases zero.

    Uses one generator over a deterministic module traversal, so a given
    (model shape, seed) pair always produces bit-identical parameters.
    Normalization gains/offsets and the positional table keep their
    construction values (ones/zeros).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    for _, module in model.named_modules():
        if isinstance(module, (nn.Conv2d, nn.Linear)):
            std = math.sqrt(2.0 / module.fan_in)
            module.weight.data = rng.normal(0.0, std, module.weight.shape).astype(np.float32)
            if isinstance(module, nn.Linear):      # convs have no bias
                module.bias.data = np.zeros(module.bias.shape, dtype=np.float32)
    return model


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _buffers(params, count: int) -> tuple[list[np.ndarray], np.ndarray]:
    """``count`` float64 work arrays of one chunk each, and a byte buffer as
    large as the largest parameter, which stages a parameter's new values."""
    size = min(max((p.size for p in params), default=0), OPTIMIZER_CHUNK)
    staging = np.empty(max((p.data.nbytes for p in params), default=0), dtype=np.uint8)
    return [np.empty(size, dtype=np.float64) for _ in range(count)], staging


def _named(parameters) -> tuple[list[str], list[Tensor]]:
    """Names and tensors of ``parameters``: (name, Tensor) pairs, as from
    ``named_parameters()``, or bare Tensors, which are named by position."""
    pairs = [p if isinstance(p, tuple) else (f"#{i}", p) for i, p in enumerate(parameters)]
    return [name for name, _ in pairs], [p for _, p in pairs]


def _check_gradients(names: list[str], params: list[Tensor]):
    """Raise :class:`TrainingDivergedError` naming the first parameter whose
    gradient holds a NaN or an infinity; an optimizer calls this before it
    writes any parameter."""
    for name, p in zip(names, params):
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise TrainingDivergedError(f"non-finite gradient in parameter {name}")


def _update(name: str, p: Tensor, state: list[np.ndarray], staging: np.ndarray, new_value):
    """Write ``p``'s new value, made ``OPTIMIZER_CHUNK`` elements at a time.
    ``new_value(x, g, *state)`` takes runs of ``p``'s data, its gradient and
    its ``state`` arrays (updated in place) and returns the run's float64
    value, which is rounded to ``p``'s dtype in ``staging``.  Raise
    :class:`TrainingDivergedError` naming the parameter, without writing it,
    when a rounded value is a NaN or an infinity."""
    staged = staging[:p.data.nbytes].view(p.dtype)
    flat = [a.reshape(-1) for a in (p.data, p.grad, *state)]
    with np.errstate(over="ignore"):
        for s in range(0, p.size, OPTIMIZER_CHUNK):
            run = slice(s, s + OPTIMIZER_CHUNK)
            staged[run] = new_value(*(a[run] for a in flat))
    if not np.isfinite(staged).all():
        raise TrainingDivergedError(f"non-finite value for parameter {name}")
    p.data[...] = staged.reshape(p.shape)


class SGD:
    """Momentum SGD; update math in float64, parameters stored float32.

    The update runs through float64 work arrays ``OPTIMIZER_CHUNK`` elements
    at a time and is written back into each parameter array in place,
    rounded to its dtype.  ``parameters`` are tensors or (name, tensor)
    pairs; a non-finite gradient stops the step before any parameter is
    written, and a new value that is non-finite in the parameter's dtype
    stops it before that parameter is written, each with an error that names
    the parameter.
    """

    def __init__(self, parameters, config: OptimizerConfig):
        self.names, self.params = _named(parameters)
        self.lr = float(config.learning_rate)
        self.momentum = float(config.momentum)
        self.velocity = [np.zeros(p.shape, dtype=np.float64) for p in self.params]
        (self._work,), self._staging = _buffers(self.params, 1)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        _check_gradients(self.names, self.params)

        def new_value(x, g, v):
            update = self._work[:x.size]
            v *= self.momentum
            v += g
            np.multiply(v, self.lr, out=update)
            return np.subtract(x, update, out=update)

        for name, p, v in zip(self.names, self.params, self.velocity):
            if p.grad is not None:
                _update(name, p, [v], self._staging, new_value)


class Adam:
    """Adam with bias-corrected first/second moments kept in float64.

    Like :class:`SGD`, it takes tensors or (name, tensor) pairs, checks every
    gradient first, updates through float64 work arrays a chunk at a time
    and writes each parameter in place once its new value is known to be
    finite.
    """

    def __init__(self, parameters, config: OptimizerConfig):
        self.names, self.params = _named(parameters)
        self.lr = float(config.learning_rate)
        self.beta1 = float(config.beta1)
        self.beta2 = float(config.beta2)
        self.epsilon = float(config.epsilon)
        self.t = 0
        self.m = [np.zeros(p.shape, dtype=np.float64) for p in self.params]
        self.v = [np.zeros(p.shape, dtype=np.float64) for p in self.params]
        (self._step, self._denom), self._staging = _buffers(self.params, 2)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        _check_gradients(self.names, self.params)
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t

        def new_value(x, g, m, v):
            step, denom = self._step[:x.size], self._denom[:x.size]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=step, dtype=np.float64)
            m += step
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=step, dtype=np.float64)
            step *= g
            v += step
            np.divide(m, bc1, out=step)            # m_hat
            np.divide(v, bc2, out=denom)           # v_hat
            np.sqrt(denom, out=denom)
            denom += self.epsilon
            step *= self.lr
            step /= denom
            return np.subtract(x, step, out=step)

        for name, p, m, v in zip(self.names, self.params, self.m, self.v):
            if p.grad is not None:
                _update(name, p, [m, v], self._staging, new_value)


def build_optimizer(parameters, config: OptimizerConfig):
    return Adam(parameters, config) if config.kind == "adam" else SGD(parameters, config)


# ---------------------------------------------------------------------------
# losses on batch outputs
# ---------------------------------------------------------------------------

def batch_loss(model: SliceSetModel, batch: list[Volume], loss_kind: str) -> Tensor:
    """Forward the batch (:meth:`SliceSetModel.forward_volumes`) and reduce
    to one scalar loss."""
    outputs = model.forward_volumes(batch)
    if model.config.task == "classification":
        labels = np.array([int(v.target) for v in batch], dtype=np.int64)
        return nn.cross_entropy(outputs, labels)
    targets = Tensor(np.array([float(v.target) for v in batch], dtype=np.float32))
    if loss_kind == "l1":
        return nn.l1_loss(outputs, targets)
    return nn.mse_loss(outputs, targets)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

PREDICT_MAX_SLICES = 128   # slices per predict chunk (one volume at least)


def predict(model: SliceSetModel, volumes: list[Volume]):
    """Eval-mode forward over a dataset.

    Regression → (predictions, targets) float arrays.  Classification →
    (class-1 probabilities, predicted labels, true labels).

    The volumes go to :meth:`SliceSetModel.forward_volumes` in consecutive
    chunks of ``max(1, PREDICT_MAX_SLICES // model.slice_count)``: one encoder
    call per run of same-shape volumes and one tail call per chunk, whose
    logits give class-1 probabilities by a float64 softmax.  In eval mode
    batch norm normalizes by its running statistics, a fixed per-channel map,
    and every other encoder op acts on each slice alone, so a slice's
    embedding does not depend on the other slices of its call; only the GEMM
    roundoff may move with the batch width (see :mod:`sliceset.nn`).
    """
    regression = model.config.task == "regression"
    outputs = [np.zeros((0,) if regression else (0, model.config.output_dim), np.float32)]
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            chunk = max(1, PREDICT_MAX_SLICES // model.slice_count)
            outputs += [model.forward_volumes(volumes[start:start + chunk]).numpy()
                        for start in range(0, len(volumes), chunk)]
    finally:
        if was_training:
            model.train()
    outputs = np.concatenate(outputs).astype(np.float64)
    if regression:
        return outputs, np.array([float(v.target) for v in volumes])
    shifted = np.exp(outputs - outputs.max(axis=1, keepdims=True))
    scores = shifted[:, 1] / shifted.sum(axis=1)
    return scores, np.argmax(outputs, axis=1), np.array([int(v.target) for v in volumes])


def evaluate(model: SliceSetModel, volumes: list[Volume]) -> EvalReport:
    if not volumes:
        raise ValueError("cannot evaluate on an empty dataset")
    if model.config.task == "regression":
        preds, targets = predict(model, volumes)
        return regression_report(preds, targets)
    scores, labels, truths = predict(model, volumes)
    return classification_report(scores, labels, truths)


def _validation_metric(model: SliceSetModel, volumes: list[Volume], metric: str,
                       epoch: int) -> float:
    """The selection metric on the validation split, or
    :class:`TrainingDivergedError` naming the epoch when a prediction (a
    regression output or a class-1 probability) is a NaN or an infinity."""
    predictions = predict(model, volumes)
    if not np.isfinite(predictions[0]).all():
        raise TrainingDivergedError(f"non-finite validation prediction at epoch {epoch}")
    if metric == "mae":
        return mae(*predictions)
    return classification_report(*predictions).balanced_accuracy


# ---------------------------------------------------------------------------
# the epoch loop
# ---------------------------------------------------------------------------

def _run_epoch(model: nn.Module, optimizer, rng: np.random.Generator, n: int,
              batch_size: int, epoch: int, loss_of) -> float:
    """One training-mode pass over a fresh permutation of ``n`` samples; returns
    the mean loss.  ``loss_of(indices)`` builds the scalar loss of one batch."""
    model.train()
    order = rng.permutation(n)
    loss_sum = 0.0
    for batch_idx, start in enumerate(range(0, n, batch_size)):
        idx = order[start:start + batch_size]
        optimizer.zero_grad()
        loss = loss_of(idx)
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingDivergedError(
                f"non-finite training loss {value} at epoch {epoch}, batch {batch_idx}")
        loss.backward()
        optimizer.step()
        loss_sum += value * len(idx)
    return loss_sum / n


@dataclass
class TrainResult:
    best: Checkpoint
    log: list[dict] = field(default_factory=list)

    @property
    def best_epoch(self) -> int:
        return self.best.epoch


def train(model: SliceSetModel, train_volumes: list[Volume], val_volumes: list[Volume],
          train_config: TrainConfig, optimizer_config: OptimizerConfig,
          log_path=None, progress=None) -> TrainResult:
    """Run the epoch loop and return the best checkpoint plus the epoch log;
    ``model.config.task`` fixes the selection metric.

    Each log record is {epoch, train_loss, val_metric, wall_ms}; when
    ``log_path`` is given the records are also appended there as JSON lines.
    ``progress`` is an optional callable receiving each record.
    """
    if not train_volumes:
        raise ValueError("training split is empty")
    if not val_volumes:
        raise ValueError("validation split is empty")
    cfg = train_config.resolved(model.config.task)
    rng = np.random.default_rng(cfg.seed)
    optimizer = build_optimizer(model.named_parameters(), optimizer_config)
    metric = "mae" if model.config.task == "regression" else "balanced_accuracy"

    log_file = open(log_path, "w") if log_path is not None else None
    best: Checkpoint | None = None
    log: list[dict] = []
    try:
        for epoch in range(1, cfg.epochs + 1):
            started = time.perf_counter()
            train_loss = _run_epoch(
                model, optimizer, rng, len(train_volumes), cfg.batch_size, epoch,
                lambda idx: batch_loss(model, [train_volumes[i] for i in idx], cfg.loss))
            val_metric = _validation_metric(model, val_volumes, metric, epoch)
            record = {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_metric": val_metric,
                "wall_ms": int(round((time.perf_counter() - started) * 1000.0)),
            }
            log.append(record)
            if log_file is not None:
                log_file.write(json.dumps(record) + "\n")
                log_file.flush()
            if progress is not None:
                progress(record)

            improved = best is None or (
                val_metric < best.val_metric if metric == "mae" else val_metric > best.val_metric)
            if improved:
                best = Checkpoint(epoch=epoch, val_metric=val_metric,
                                  state=snapshot_state(model))
    finally:
        if log_file is not None:
            log_file.close()

    return TrainResult(best=best, log=log)


def read_epoch_log(path) -> list[dict]:
    """The records of an epoch log.  An unterminated last line, which a kill
    mid-append leaves, is skipped; any other line that is not a JSON object
    raises ``ValueError`` naming the file and the line number."""
    records = []
    lines = Path(path).read_text().split("\n")[:-1]   # what follows the last newline is unterminated
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {number} is not a JSON record: {exc.msg}") from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}: line {number} is not a JSON object")
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# synthetic 2D pretraining
# ---------------------------------------------------------------------------

class Classifier2D(nn.Module):
    """2D encoder plus a linear class head, for pretraining on images."""

    def __init__(self, encoder_config: EncoderConfig, n_classes: int = 2):
        super().__init__()
        self.config = encoder_config
        self.encoder = build_encoder(encoder_config)
        self.head = nn.Linear(self.encoder.embedding_dim, n_classes)

    def __call__(self, images: Tensor) -> Tensor:
        return self.head(self.encoder(images))


@dataclass
class Pretrain2DResult:
    archive: WeightArchive
    train_accuracy: float
    losses: list[float]


def pretrain_2d(encoder_config: EncoderConfig, images: np.ndarray, labels: np.ndarray,
                epochs: int = 30, batch_size: int = 32, learning_rate: float = 1e-3,
                seed: int = 0) -> Pretrain2DResult:
    """Train encoder+head on a 2D image classification set; archive the encoder.

    The returned archive holds only ``encoder.*`` tensors (weights and
    running statistics), so its names line up one-to-one with a slice-set
    model's encoder. Deterministic for a fixed (config, data, seed).
    """
    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if images.ndim != 4:
        raise ValueError(f"images must be (N, C, H, W), got shape {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ValueError("labels must be one integer per image")
    if not labels.size:
        raise ValueError("pretrain_2d needs at least one image")
    n_classes = int(labels.max()) + 1

    model = Classifier2D(encoder_config, n_classes=max(2, n_classes))
    he_init(model, seed=seed)
    optimizer = Adam(model.named_parameters(),
                     OptimizerConfig(kind="adam", learning_rate=learning_rate))
    rng = np.random.default_rng(seed)

    n = images.shape[0]
    losses = [_run_epoch(model, optimizer, rng, n, batch_size, epoch,
                         lambda idx: nn.cross_entropy(model(Tensor(images[idx])), labels[idx]))
              for epoch in range(1, epochs + 1)]

    model.eval()
    correct = 0
    with no_grad():
        for start in range(0, n, batch_size):
            logits = model(Tensor(images[start:start + batch_size]))
            correct += int(np.sum(np.argmax(logits.numpy(), axis=1) == labels[start:start + batch_size]))
    accuracy = correct / n

    entries = {name: arr.copy() for name, arr, _ in model.named_state()
               if name.startswith("encoder.")}
    metadata = {
        "contents": "2d-encoder",
        "encoder_kind": encoder_config.kind,
        "input_channels": str(encoder_config.input_channels),
        "width_multiplier": repr(encoder_config.width_multiplier),
        "min_input": str(encoder_config.min_input),
        "embedding_dim": str(model.encoder.embedding_dim),
        "train_accuracy": f"{accuracy:.6f}",
        "seed": str(seed),
    }
    return Pretrain2DResult(archive=WeightArchive(entries=entries, metadata=metadata),
                            train_accuracy=accuracy, losses=losses)
