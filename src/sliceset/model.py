"""Slice-set model: slice a volume, embed slices, add positional encodings,
aggregate permutation-invariantly, predict.

The model computes, for a volume cut into K slices ``x_k`` along a chosen
anatomical axis, the per-slice embeddings ``r(x_k)`` with one shared 2D
encoder, optionally adds a trainable per-position vector ``p_k``, fuses the
K rows with a mean or attention aggregator, and applies a linear head.
Every forward, in training and in eval, for a batch or for one volume, goes
through :meth:`SliceSetModel.forward_volumes`: one encoder call per run of
consecutive volumes whose slices share a shape, then one tail call on the
(R, K, d) stack of their embeddings, with one GEMM per volume in each product.

With the positional table disabled (or all-zero) both aggregators are
permutation-invariant in the slice order; the mean aggregator additionally
fixes its summation order by row content, making its output bit-identical
under slice permutations.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import groupby
from typing import get_args, get_type_hints

import numpy as np

from .data import TASKS, Volume, axis_index
from .encoders import EncoderConfig, build_encoder
from .nn import BatchNorm2d, LayerNorm, Linear, Module, relu, softmax
from .tensor import Tensor, concat

AGGREGATOR_KINDS = ("mean", "attention")


def slice_volume(volume: Volume, axis: str, input_channels: int = 1) -> np.ndarray:
    """Cut a volume into its (K, C, H, W) array of planes orthogonal to ``axis``.

    K equals the volume extent along the axis; each slice keeps the two
    remaining extents in canonical order.  The single voxel channel is
    replicated to ``input_channels``.
    """
    planes = np.moveaxis(volume.voxels, axis_index(axis), 0).astype(np.float32)
    return np.ascontiguousarray(np.repeat(planes[:, None, :, :], input_channels, axis=1))


def restack_volume(slices: np.ndarray, axis: str) -> np.ndarray:
    """Inverse of :func:`slice_volume` (first channel), bit-exact."""
    return np.ascontiguousarray(np.moveaxis(slices[:, 0], 0, axis_index(axis)))


def permute_volume(volume: Volume, axis: str, permutation: np.ndarray) -> Volume:
    """Reorder the slices of a volume along ``axis``."""
    i = axis_index(axis)
    vox = np.take(volume.voxels, permutation, axis=i)
    return Volume(voxels=vox, subject_id=volume.subject_id, target=volume.target)


class PositionalTable(Module):
    """Trainable K x d table of per-position vectors added to each volume's slice embeddings.

    Zero initialization makes an enabled table exactly equivalent to a
    disabled one until training moves it.
    """

    def __init__(self, slice_count: int, dim: int, enabled: bool = True):
        super().__init__()
        self.enabled = enabled
        self.table = Tensor(np.zeros((slice_count, dim)), requires_grad=True)

    def __call__(self, embeddings: Tensor) -> Tensor:
        if not self.enabled:
            return embeddings
        if embeddings.shape[-2:] != self.table.shape:
            raise ValueError(
                f"positional table shape {self.table.shape} does not match embeddings {embeddings.shape}"
            )
        return embeddings + self.table


def aggregate_mean(embeddings: Tensor) -> Tensor:
    """Arithmetic means (R, d) over the K rows of each volume in an (R, K, d) stack.

    Each volume's rows are summed in row-content lexicographic order with 64-bit
    accumulation, so any permutation of its rows produces a bit-identical result.
    """
    if embeddings.ndim != 3 or embeddings.shape[1] < 1:
        raise ValueError(f"aggregate_mean expects a nonempty (R, K, d) stack, got {embeddings.shape}")
    k = embeddings.shape[1]
    order = np.lexsort(embeddings.data.transpose(2, 0, 1)[::-1])       # (R, K), per volume
    rows = np.take_along_axis(embeddings.data, order[..., None], axis=1)
    data = (rows.sum(axis=1, dtype=np.float64) / k).astype(embeddings.dtype)
    node = embeddings.node

    def backward_fn(out):
        node.accumulate_grad(np.broadcast_to(out.grad[:, None] / k, node.shape))

    return embeddings._make(data, (embeddings,), backward_fn)


class MeanAggregator(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.output_dim = dim

    def __call__(self, embeddings: Tensor) -> Tensor:
        return aggregate_mean(embeddings)


class AttentionAggregator(Module):
    """Self-attention over slice embeddings, then mean pool, feed-forward, layer norm.

    Single-head scaled dot-product attention where queries, keys and values
    are the rows after one learned projection to ``model_dim``.  Maps (R, K, d)
    to (R, model_dim) with one GEMM per volume in each product.
    """

    def __init__(self, dim: int, model_dim: int | None = None, ff_hidden_dim: int | None = None):
        super().__init__()
        m = model_dim or dim
        ff = ff_hidden_dim or 4 * m
        self.proj = Linear(dim, m)
        self.ff1 = Linear(m, ff)
        self.ff2 = Linear(ff, m)
        self.norm = LayerNorm(m)
        self.output_dim = m
        self.scale = 1.0 / float(np.sqrt(m))

    def _attend(self, embeddings: Tensor) -> tuple[Tensor, Tensor]:
        z = self.proj(embeddings)                          # (R, K, m)
        scores = (z @ z.transpose(0, 2, 1)) * self.scale   # (R, K, K)
        return softmax(scores, axis=-1), z

    def attention_weights(self, embeddings: Tensor) -> np.ndarray:
        """The (R, K, K) row-stochastic attention matrices (diagnostic path)."""
        return self._attend(embeddings)[0].data

    def __call__(self, embeddings: Tensor) -> Tensor:
        attn, z = self._attend(embeddings)
        pooled = (attn @ z).mean(axis=1, keepdims=True)    # (R, 1, m)
        h = self.ff2(relu(self.ff1(pooled)))
        return self.norm(h).reshape(embeddings.shape[0], -1)


@dataclass(frozen=True)
class AggregatorConfig:
    kind: str = "mean"
    model_dim: int | None = None
    ff_hidden_dim: int | None = None

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator kind {self.kind!r}; choose from {AGGREGATOR_KINDS}")
        for name in ("model_dim", "ff_hidden_dim"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (null for the default), got {value}")


@dataclass(frozen=True)
class ModelConfig:
    task: str = "regression"
    axis: str = "sagittal"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    positional_enabled: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; choose from {TASKS}")
        axis_index(self.axis)

    @property
    def output_dim(self) -> int:
        return 1 if self.task == "regression" else 2


class SliceSetModel(Module):
    """Shared 2D encoder + positional table + aggregator + linear head.

    One encoder parameter set is shared by all K slices; only the K x d
    positional table depends on the slice count.  The encoder's batch norms
    normalize K slices, one volume, together in training mode.
    """

    def __init__(self, config: ModelConfig, slice_count: int):
        super().__init__()
        if slice_count < 1:
            raise ValueError(f"slice_count must be at least 1, got {slice_count}")
        self.config = config
        self.slice_count = slice_count
        self.encoder = build_encoder(config.encoder)
        for mod in self.encoder.modules():
            if isinstance(mod, BatchNorm2d):
                mod.group_size = slice_count      # one volume's slices
        d = self.encoder.embedding_dim
        self.positional = PositionalTable(slice_count, d, enabled=config.positional_enabled)
        if config.aggregator.kind == "mean":
            self.aggregator = MeanAggregator(d)
        else:
            self.aggregator = AttentionAggregator(
                d, config.aggregator.model_dim, config.aggregator.ff_hidden_dim
            )
        self.head = Linear(self.aggregator.output_dim, config.output_dim)

    # -- forward ---------------------------------------------------------

    def forward_embeddings(self, embeddings: Tensor) -> Tensor:
        """The positional table, aggregator and head over the (R·K, d) slice
        embeddings of R volumes, K rows each, in volume order."""
        r = embeddings.shape[0] // self.slice_count
        emb = self.positional(embeddings.reshape(r, self.slice_count, -1))
        agg = self.aggregator(emb)
        out = self.head(agg.reshape(r, 1, -1))      # (R, 1, out): one GEMM per volume
        return out.reshape(r) if self.config.task == "regression" else out.reshape(r, -1)

    def forward_volumes(self, volumes: list[Volume]) -> Tensor:
        """The outputs of a nonempty list of volumes, (R,) for regression and
        (R, 2) for classification, with one encoder call per run of
        consecutive volumes whose slices share a shape; every slice count is
        checked before any encoder call.

        In training mode batch norm normalizes each volume's slices by their
        own moments and updates its running statistics once per volume, in
        order (the encoder's batch norms have a ``group_size`` of K), so each
        output is what the volume gives alone, up to GEMM roundoff.  The
        runs' embeddings are joined in volume order
        (:func:`~sliceset.tensor.concat`) and go through
        :meth:`forward_embeddings` once.
        """
        for v in volumes:
            count = slice_count_for(v.extents, self.config.axis)
            if count != self.slice_count:
                raise ValueError(
                    f"model was built for {self.slice_count} slices, volume yields {count}")
        stacks = [slice_volume(v, self.config.axis, self.config.encoder.input_channels)
                  for v in volumes]
        embeddings = []
        for _, run in groupby(stacks, key=lambda s: s.shape):
            embeddings.append(self.encoder(Tensor(np.concatenate(list(run)))))
        return self.forward_embeddings(concat(embeddings))

    def forward_volume(self, volume: Volume) -> Tensor:
        """One volume's output: a scalar (regression) or two logits."""
        out = self.forward_volumes([volume])
        return out.reshape(out.shape[1:])

    __call__ = forward_volume


def build_model(config: ModelConfig, slice_count: int) -> SliceSetModel:
    return SliceSetModel(config, slice_count)


def slice_count_for(extents: tuple[int, int, int], axis: str) -> int:
    return extents[axis_index(axis)]


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------

_JSON_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
                    type(None): "null"}


def _fits(value, declared) -> bool:
    """Whether a parsed JSON value has a declared field type.  Types match
    exactly, so a bool is no int; an int within float range counts as a float."""
    if declared is float and type(value) is int:
        return abs(value) <= sys.float_info.max
    return type(value) is declared


def build_dataclass(cls, mapping, context: str):
    """Construct a config dataclass from a JSON mapping, checking keys and types.

    Unknown keys are rejected by name.  A field whose type is a dataclass is
    built recursively from its own object, with the field name as context;
    every other value must have the field's declared JSON type.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"{context} must be a JSON object, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown key(s) in {context}: {unknown}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in mapping.items():
        declared = hints[key]
        options = get_args(declared) or (declared,)   # X | None -> (X, NoneType)
        if is_dataclass(declared):
            value = build_dataclass(declared, value, key)
        elif not any(_fits(value, t) for t in options):
            want = " or ".join(_JSON_TYPE_NAMES[t] for t in options)
            raise ValueError(f"{key} in {context} must be {want}, got {json.dumps(value)}")
        kwargs[key] = value
    return cls(**kwargs)
