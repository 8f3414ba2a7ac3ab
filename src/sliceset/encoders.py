"""2D slice encoders: a 5-block CNN and native residual networks.

Every encoder maps an (N, C, H, W) batch of slices to an (N, d) embedding
matrix via global average pooling over its final feature map, and records d
as ``embedding_dim``: 32 (cnn5), 512 (resnet18) and 2048 (resnet50) at
default width, scaled with every channel count by ``width_multiplier``.  One
:class:`ResidualBlock`, basic or bottleneck, serves both residual networks.

Inputs smaller than ``min_input`` on either spatial axis are zero-padded up
to it (centered) when ``pad_to_min`` is set, otherwise rejected.  Odd
intermediate extents are zero-padded to even before each pooling stage, so
any padded input size is safe.

Residual-network parameter names mirror the usual torchvision layout
(``conv1.weight``, ``layer1.0.bn2.running_mean``, ``layer2.0.downsample.0.weight``)
so externally converted pretrained weights can target them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor
from .nn import (
    BatchNorm2d,
    Conv2d,
    Module,
    ModuleList,
    _conv2d,
    global_avg_pool2d,
    max_pool2d,
    pad2d,
    relu,
)

ENCODER_KINDS = ("cnn5", "resnet18", "resnet50")
CNN5_CHANNELS = (32, 64, 128, 256, 32)   # full width; no encoder has a wider base


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "cnn5"
    input_channels: int = 1
    width_multiplier: float = 1.0
    min_input: int = 32
    pad_to_min: bool = True

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}; choose from {ENCODER_KINDS}")
        if self.input_channels < 1:
            raise ValueError("input_channels must be >= 1")
        if self.min_input < 1:
            raise ValueError(f"min_input must be >= 1, got {self.min_input}")
        widest = max(CNN5_CHANNELS) * self.width_multiplier
        if not (self.width_multiplier > 0 and math.isfinite(widest)):
            raise ValueError("width_multiplier must be positive with finite channel counts, "
                             f"got {self.width_multiplier}")

    def scaled(self, base: int) -> int:
        return max(1, int(round(base * self.width_multiplier)))


def _pad_to_even(x: Tensor) -> Tensor:
    h, w = x.shape[2], x.shape[3]
    if h % 2 or w % 2:
        return pad2d(x, (0, h % 2, 0, w % 2))
    return x


def prepare_slices(x: Tensor, min_input: int, pad_to_min: bool) -> Tensor:
    """Bring slices up to the encoder's minimum spatial extent, or reject."""
    h, w = x.shape[2], x.shape[3]
    if h >= min_input and w >= min_input:
        return x
    if not pad_to_min:
        raise ValueError(
            f"slice extent {h}x{w} is below the encoder minimum {min_input}x{min_input} "
            "and pad_to_min is disabled"
        )
    ph, pw = max(min_input - h, 0), max(min_input - w, 0)
    return pad2d(x, (ph // 2, ph - ph // 2, pw // 2, pw - pw // 2))


def stem(conv: Conv2d, bn: BatchNorm2d, x: Tensor) -> Tensor:
    """An encoder's first, bias-free conv and its batch norm, the pair whose
    input is the slices themselves.  Batch norm writes its output over the
    conv output, and its backward rule runs the conv again on the same input
    and kernel arrays (``recompute`` in :func:`~sliceset.nn.batch_norm2d`),
    in training mode and with frozen statistics alike.  So the graph keeps
    ``x``, which the conv's own backward reads anyway, and not the conv
    output (32x the 1-channel slices at ``cnn5`` width 1).

    With several groups in training mode (``bn.groups(n)`` > 1: one per
    volume in a slice-set model) the conv's forward runs one volume at a
    time (``runs`` of ``nn._conv2d``), and batch norm's backward recomputes
    one volume at a time with the same call and writes that volume's input
    gradient over the output gradient: it holds one volume's conv output at
    a time instead of the whole batch's.  Frozen statistics and one-group
    batches (pretraining, predict) run the module's conv and recompute the
    whole batch.  Either way the recomputed output has the forward's bits,
    and so do the gradients; the conv's own backward, and with it the
    kernel gradient, stays one whole-batch pass."""
    xd, kd = x.data, conv.weight.data
    stride, padding = conv.stride, conv.padding

    def recompute(samples):
        return _conv2d(Tensor(xd[samples], dtype=xd.dtype), Tensor(kd, dtype=kd.dtype),
                       None, stride, padding).data

    groups = bn.groups(x.shape[0])
    out = conv(x) if groups == 1 else _conv2d(x, conv.weight, None, stride, padding, groups)
    return bn(out, recompute=recompute)


class _ConvBlock(Module):
    """conv 3x3 -> batch norm, which centres the conv output in place (relu
    applied by the caller); ``block1`` runs as the :func:`stem`."""

    def __init__(self, in_ch: int, out_ch: int):
        super().__init__()
        self.conv = Conv2d(in_ch, out_ch, 3, padding=1)
        self.bn = BatchNorm2d(out_ch)

    def __call__(self, x: Tensor) -> Tensor:
        return self.bn(self.conv(x))


class CNN5Encoder(Module):
    """Five blocks of [3x3 conv, batch norm, relu, 2x2 max pool], then GAP.

    Channel progression 32-64-128-256-32 at full width; the final channel
    count is the embedding dimension.  ``block1``, whose input is the
    slices, is the :func:`stem`.
    """

    def __init__(self, config: EncoderConfig):
        super().__init__()
        self.config = config
        chans = [config.scaled(c) for c in CNN5_CHANNELS]
        prev = config.input_channels
        for i, c in enumerate(chans, start=1):
            setattr(self, f"block{i}", _ConvBlock(prev, c))
            prev = c
        self.embedding_dim = chans[-1]

    def __call__(self, x: Tensor) -> Tensor:
        x = prepare_slices(x, self.config.min_input, self.config.pad_to_min)
        for i in range(1, 6):
            block = self._children[f"block{i}"]
            x = stem(block.conv, block.bn, x) if i == 1 else block(x)
            # relu after the pool: relu and max commute, and the zero padding
            # is relu's fixed point, so values match relu-then-pool exactly
            # while relu works on a quarter of the map.
            x = relu(max_pool2d(_pad_to_even(x), 2, 2))
        return global_avg_pool2d(x)


class ResidualBlock(Module):
    """Basic (3x3 with the stride, then 3x3) or bottleneck (1x1, 3x3 with the
    stride, then 1x1 to 4x the width) residual block.  Each conv feeds a batch
    norm that centres its output in place; relu runs between the pairs and
    after the shortcut add.  A 1x1 ``downsample`` conv and batch norm carry
    the shortcut when the stride or the width changes."""

    def __init__(self, in_ch: int, width: int, stride: int, bottleneck: bool):
        super().__init__()
        convs = ([(width, 1, 1), (width, 3, stride), (4 * width, 1, 1)] if bottleneck
                 else [(width, 3, stride), (width, 3, 1)])
        self.pairs = []
        prev = in_ch
        for j, (out_ch, k, s) in enumerate(convs, start=1):
            conv = Conv2d(prev, out_ch, k, stride=s, padding=k // 2)
            bn = BatchNorm2d(out_ch)
            setattr(self, f"conv{j}", conv)
            setattr(self, f"bn{j}", bn)
            self.pairs.append((conv, bn))
            prev = out_ch
        self.out_channels = prev
        self.downsample = None if stride == 1 and in_ch == prev else ModuleList(
            [Conv2d(in_ch, prev, 1, stride=stride), BatchNorm2d(prev)])

    def __call__(self, x: Tensor) -> Tensor:
        *inner, (conv, bn) = self.pairs
        out = x
        for c, b in inner:
            out = relu(b(c(out)))
        out = bn(conv(out))
        if self.downsample is not None:
            x = self.downsample[1](self.downsample[0](x))
        return relu(out + x)


class ResNetEncoder(Module):
    """Residual network trunk without a classification head.

    resnet18 uses basic blocks [2, 2, 2, 2]; resnet50 bottlenecks
    [3, 4, 6, 3].  ``conv1`` and ``bn1`` are the :func:`stem`, whose output
    is max-pooled before its relu, so relu keeps a quarter-size map.  The
    embedding is the global average pool of the final stage.
    """

    def __init__(self, config: EncoderConfig):
        super().__init__()
        self.config = config
        bottleneck = config.kind == "resnet50"
        counts = (3, 4, 6, 3) if bottleneck else (2, 2, 2, 2)
        base = config.scaled(64)

        self.conv1 = Conv2d(config.input_channels, base, 7, stride=2, padding=3)
        self.bn1 = BatchNorm2d(base)

        in_ch = base
        for stage, (count, mult) in enumerate(zip(counts, (1, 2, 4, 8)), start=1):
            blocks = ModuleList()
            for b in range(count):
                stride = 2 if stage > 1 and b == 0 else 1
                blocks.append(ResidualBlock(in_ch, base * mult, stride, bottleneck))
                in_ch = blocks[-1].out_channels
            setattr(self, f"layer{stage}", blocks)
        self.embedding_dim = in_ch

    def __call__(self, x: Tensor) -> Tensor:
        x = prepare_slices(x, self.config.min_input, self.config.pad_to_min)
        # relu after the pool, as in CNN5Encoder: the pool's zero padding is
        # relu's fixed point too.
        x = relu(max_pool2d(stem(self.conv1, self.bn1, x), 3, 2, padding=1))
        for stage in range(1, 5):
            for blk in self._children[f"layer{stage}"]:
                x = blk(x)
        return global_avg_pool2d(x)


def build_encoder(config: EncoderConfig) -> Module:
    if config.kind == "cnn5":
        return CNN5Encoder(config)
    return ResNetEncoder(config)
