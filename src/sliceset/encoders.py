"""2D slice encoders: a 5-block CNN and native residual networks.

Every encoder maps an (N, C, H, W) batch of slices to an (N, d) embedding
matrix via global average pooling over its final feature map.  At default
width the embedding dimensions are 32 (cnn5), 512 (resnet18) and 2048
(resnet50); ``width_multiplier`` scales all channel counts, and with it
``d``, for desk-scale runs.

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
    global_avg_pool2d,
    max_pool2d,
    pad2d,
    relu,
)

ENCODER_KINDS = ("cnn5", "resnet18", "resnet50")
CNN5_CHANNELS = (32, 64, 128, 256, 32)   # full width; no encoder has a wider base

# full-width embedding sizes, also used to validate default configurations
DEFAULT_EMBEDDING_DIM = {"cnn5": 32, "resnet18": 512, "resnet50": 2048}


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
        widest = max(CNN5_CHANNELS) * self.width_multiplier
        if not (self.width_multiplier > 0 and math.isfinite(widest)):
            raise ValueError("width_multiplier must be positive with finite channel counts, "
                             f"got {self.width_multiplier}")

    def scaled(self, base: int) -> int:
        return max(1, int(round(base * self.width_multiplier)))

    @property
    def embedding_dim(self) -> int:
        if self.kind == "cnn5":
            return self.scaled(32)
        if self.kind == "resnet18":
            return self.scaled(64) * 8
        return self.scaled(64) * 8 * 4  # resnet50 bottleneck expansion


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


class _ConvBlock(Module):
    """conv 3x3 -> batch norm, which centres the conv output in place (relu
    applied by the caller)."""

    def __init__(self, in_ch: int, out_ch: int):
        super().__init__()
        self.conv = Conv2d(in_ch, out_ch, 3, padding=1, bias=False)
        self.bn = BatchNorm2d(out_ch)

    def __call__(self, x: Tensor) -> Tensor:
        return self.bn(self.conv(x), overwrite_input=True)


class CNN5Encoder(Module):
    """Five blocks of [3x3 conv, batch norm, relu, 2x2 max pool], then GAP.

    Channel progression 32-64-128-256-32 at full width; the final channel
    count is the embedding dimension.
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
            # relu after the pool: relu and max commute, and the zero padding
            # is relu's fixed point, so values match relu-then-pool exactly
            # while relu works on a quarter of the map.
            x = relu(max_pool2d(_pad_to_even(block(x)), 2, 2))
        return global_avg_pool2d(x)


class BasicBlock(Module):
    expansion = 1

    def __init__(self, in_ch: int, out_ch: int, stride: int = 1):
        super().__init__()
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride=stride, padding=1, bias=False)
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, padding=1, bias=False)
        self.bn2 = BatchNorm2d(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.downsample = ModuleList([
                Conv2d(in_ch, out_ch, 1, stride=stride, bias=False),
                BatchNorm2d(out_ch),
            ])
        else:
            self.downsample = None

    def __call__(self, x: Tensor) -> Tensor:
        out = relu(self.bn1(self.conv1(x), overwrite_input=True))
        out = self.bn2(self.conv2(out), overwrite_input=True)
        if self.downsample is not None:
            x = self.downsample[1](self.downsample[0](x), overwrite_input=True)
        return relu(out + x)


class Bottleneck(Module):
    expansion = 4

    def __init__(self, in_ch: int, mid_ch: int, stride: int = 1):
        super().__init__()
        out_ch = mid_ch * self.expansion
        self.conv1 = Conv2d(in_ch, mid_ch, 1, bias=False)
        self.bn1 = BatchNorm2d(mid_ch)
        self.conv2 = Conv2d(mid_ch, mid_ch, 3, stride=stride, padding=1, bias=False)
        self.bn2 = BatchNorm2d(mid_ch)
        self.conv3 = Conv2d(mid_ch, out_ch, 1, bias=False)
        self.bn3 = BatchNorm2d(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.downsample = ModuleList([
                Conv2d(in_ch, out_ch, 1, stride=stride, bias=False),
                BatchNorm2d(out_ch),
            ])
        else:
            self.downsample = None

    def __call__(self, x: Tensor) -> Tensor:
        out = relu(self.bn1(self.conv1(x), overwrite_input=True))
        out = relu(self.bn2(self.conv2(out), overwrite_input=True))
        out = self.bn3(self.conv3(out), overwrite_input=True)
        if self.downsample is not None:
            x = self.downsample[1](self.downsample[0](x), overwrite_input=True)
        return relu(out + x)


class ResNetEncoder(Module):
    """Residual network trunk without a classification head.

    resnet18 uses basic blocks [2, 2, 2, 2]; resnet50 bottlenecks
    [3, 4, 6, 3].  The embedding is the global average pool of the final
    stage.
    """

    def __init__(self, config: EncoderConfig):
        super().__init__()
        self.config = config
        bottleneck = config.kind == "resnet50"
        counts = (3, 4, 6, 3) if bottleneck else (2, 2, 2, 2)
        block = Bottleneck if bottleneck else BasicBlock
        base = config.scaled(64)

        self.conv1 = Conv2d(config.input_channels, base, 7, stride=2, padding=3, bias=False)
        self.bn1 = BatchNorm2d(base)

        in_ch = base
        for stage, (count, mult) in enumerate(zip(counts, (1, 2, 4, 8)), start=1):
            width = base * mult
            stride = 1 if stage == 1 else 2
            blocks = ModuleList()
            for b in range(count):
                blocks.append(block(in_ch, width, stride if b == 0 else 1))
                in_ch = width * block.expansion
            setattr(self, f"layer{stage}", blocks)
        self.embedding_dim = in_ch

    def __call__(self, x: Tensor) -> Tensor:
        x = prepare_slices(x, self.config.min_input, self.config.pad_to_min)
        x = relu(self.bn1(self.conv1(x), overwrite_input=True))
        x = max_pool2d(x, 3, 2, padding=1)
        for stage in range(1, 5):
            for blk in self._children[f"layer{stage}"]:
                x = blk(x)
        return global_avg_pool2d(x)


def build_encoder(config: EncoderConfig) -> Module:
    if config.kind == "cnn5":
        return CNN5Encoder(config)
    return ResNetEncoder(config)
