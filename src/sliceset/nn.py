"""Neural-network operations and a small layer/module system.

Functional ops take and return :class:`~sliceset.tensor.Tensor` and register
their own backward rules.  Layers own parameters (and, for batch norm,
running-statistic buffers) and expose them through hierarchical dotted names
such as ``conv1.weight`` or ``layer2.0.bn1.running_mean``; those names are
the unit of checkpointing and cross-model weight transfer.

Convolution is explicit cross-correlation that stays within 1e-5 of a
direct six-loop reference.  The kernel windows of the zero-padded,
batch-innermost (C, Hp, Wp, N) input give a (C·kh·kw, oh·ow·N) column
matrix.  Both passes walk that matrix in tiles of whole output rows, each
at most ``CONV_TILE_BYTES`` (one row when a row alone is larger).  Forward
copies the input once into a zero-padded buffer, which it drops on return,
and each tile's GEMM writes its own columns of the (F, oh·ow·N) output;
when one tile covers every row, one plain GEMM makes the output.  Backward
pads again, each tile's input rows (the whole buffer for a single tile),
rebuilds the tile's columns and multiplies them by the tile's output
gradient, and the products are summed into dW; each tile's column gradient,
``W.T @ dout``, is scattered back into the padded input gradient with one
add per kernel tap, over rows of ow·N contiguous floats.  A tile that fits
in the L2 cache is still there when its GEMM reads it, and the transient
columns, and backward's padded rows and column gradients, stay bounded
however many slices one call carries; when the whole matrix fits in one
tile each pass makes a single GEMM per product.  The output is handed back
as an (N, F, oh, ow) view of the (F, oh, ow, N) result, so the batch stays
innermost from layer to layer and the next convolution's copy reads
contiguous memory.  The backward pass keeps only the input, which its
parent tensor holds anyway: no padded copy and no column matrix (kh·kw
times larger).  The slices of one call share the
GEMMs: ``train.batch_loss`` and ``train.predict`` send the slices of several
volumes through one encoder call.  Each output column is its own dot
product, but OpenBLAS picks its kernels by matrix width, so a slice's output
can differ by float32 roundoff with the batch it came in and with the tile
widths.

Max pooling takes the elementwise maximum over the kernel² strided window
views.  When the input needs a gradient it also records, per tap, a boolean
mask of the windows whose first maximum in row-major order sits at that tap;
the backward pass adds the output gradient through those masks into a
zeroed input-sized buffer.  Its output and padding keep the input's memory
layout, as numpy's element-wise ops do.

Batch norm in training mode works on the (C, H·W, N) view of the conv
output's batch-innermost memory.  It takes the mean with one float64 sum
and the variance with one float64 sum of squared deviations of the centred
input, which the backward pass reuses; each sum runs over the spatial axis
first and then over the samples of a group.  The encoders let it centre the
conv output in that output's own buffer (``overwrite_input``), since no
backward rule reads a conv output, so a training step holds one array per
conv, where it held the output and its centred copy.  By default the whole
batch is one group.  Inside :func:`batch_norm_groups` the batch is split
into equal runs of consecutive samples, one volume's slices each, and every
run is normalized by its own moments and updates the running statistics
once, in order, exactly as if it had been a call of its own.  1/std is
folded into per-group factors.  The backward pass computes Σdy and Σdy·xhat
once each and shares them between the γ, β and x gradients.  Eval mode
folds the running statistics into one per-channel scale and shift.
Reductions inside the norm layers and losses accumulate in 64-bit and store
results in 32-bit.

What a training step holds until backward reaches it, per conv-output
element of a ``cnn5`` block: the conv output, centred in place (4 bytes),
the batch-norm output that the max pool reads (4), the pool's tap masks (1
in all), and the pooled map and its relu (1 each, ``cnn5`` pooling before
its relu).  Each conv input is the previous block's relu map, which the
graph holds anyway.  ``perfbench`` peak RSS (30 s runs, 2-core Xeon, one
OpenBLAS thread), medians against the design that also kept a centred
copy, a padded conv input and a full-size relu map: ``transfer-cnn5`` 232
→ 191 MB (seed 0; 185 MB on seed 1), ``train-resnet18`` 110 → 93 MB.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, grad_enabled, no_grad

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LN_EPS = 1e-5

# conv2d builds its column matrix, forward and backward, in tiles of whole
# output rows of at most this many bytes, at least one row each; see the
# module docstring.
CONV_TILE_BYTES = 2 * 1024 * 1024

_bn_groups = 1   # set by batch_norm_groups


# ---------------------------------------------------------------------------
# functional ops
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def backward_fn(out):
        if x.requires_grad:
            g = out.grad                       # released once this rule has run
            g *= x.data > 0
            x.accumulate_grad(g, owned=True)

    return x._make(data, (x,), backward_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``; rows sum to 1 and all entries lie in (0, 1)."""
    if x.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=axis, keepdims=True, dtype=np.float64)
    s = (e / denom).astype(x.dtype)

    def backward_fn(out):
        if x.requires_grad:
            inner = (out.grad * s).sum(axis=axis, keepdims=True, dtype=np.float64)
            x.accumulate_grad(s * (out.grad - inner.astype(x.dtype)))

    return x._make(s, (x,), backward_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for ``x`` of shape (N, din)."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError(f"linear expects 2-D input and weight, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"linear dimension mismatch: input has {x.shape[1]} features, weight expects {weight.shape[1]}"
        )
    data = x.data @ weight.data.T
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise ValueError(f"linear bias shape {bias.shape} does not match output dim {weight.shape[0]}")
        data = data + bias.data

    def backward_fn(out):
        if x.requires_grad:
            x.accumulate_grad(out.grad @ weight.data)
        if weight.requires_grad:
            weight.accumulate_grad(out.grad.T @ x.data)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(out.grad.sum(axis=0, dtype=np.float64).astype(bias.dtype))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return x._make(data, parents, backward_fn)


def pad2d(x: Tensor, pad: int | tuple[int, int, int, int]) -> Tensor:
    """Zero-pad the two trailing spatial axes of an (N, C, H, W) tensor.

    ``pad`` is either a single symmetric amount or (top, bottom, left, right).
    """
    if isinstance(pad, int):
        top = bottom = left = right = pad
    else:
        top, bottom, left, right = pad
    if min(top, bottom, left, right) < 0:
        raise ValueError("pad amounts must be non-negative")
    if top == bottom == left == right == 0:
        return x
    data = np.pad(x.data, ((0, 0), (0, 0), (top, bottom), (left, right)))
    H, W = x.shape[2], x.shape[3]

    def backward_fn(out):
        if x.requires_grad:
            x.accumulate_grad(out.grad[:, :, top:top + H, left:left + W])

    return x._make(data, (x,), backward_fn)


def _taps(kh: int, kw: int, stride: int, oh: int, ow: int, first_row: int = 0):
    """Row and column slices of the inputs each kernel tap reads for output rows
    ``first_row`` to ``first_row + oh``, taps in row-major order."""
    top = stride * first_row
    return [(slice(top + i, top + i + stride * (oh - 1) + 1, stride),
             slice(j, j + stride * (ow - 1) + 1, stride))
            for i in range(kh) for j in range(kw)]


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of (N, C, H, W) input with an (F, C, kh, kw) kernel.

    Output spatial extent is ``floor((H + 2*padding - kh)/stride) + 1`` (same
    for W).  Internally GEMMs over row tiles of a batch-innermost column
    matrix; see the module docstring.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input and kernel, got {x.shape} and {kernel.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if c != ck:
        raise ValueError(f"conv2d channel mismatch: input has {c} channels, kernel expects {ck}")
    if stride < 1:
        raise ValueError("conv2d stride must be >= 1")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ValueError(f"conv2d kernel {kh}x{kw} exceeds padded input {hp}x{wp}")
    if bias is not None and bias.shape != (f,):
        raise ValueError(f"conv2d bias shape {bias.shape} does not match {f} filters")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1

    xt = x.data.transpose(1, 2, 3, 0)                    # (C, H, W, N)

    def padded(top, bottom):
        """Rows ``top:bottom`` of the zero-padded (C, Hp, Wp, N) input; a view
        of the input when nothing is padded."""
        if not padding:
            return xt[:, top:bottom]
        xp = np.zeros((c, bottom - top, wp, n), dtype=x.dtype)
        lo, hi = max(top, padding), min(bottom, padding + h)
        if lo < hi:
            xp[:, lo - top:hi - top, padding:padding + w] = xt[:, lo - padding:hi - padding]
        return xp

    def im2col(xp, t):
        """Columns of ``t`` output rows from ``xp``, the padded input from the
        first row they read; copies unless 1x1, stride 1 and unpadded."""
        sc, sh, sw, sn = xp.strides
        windows = as_strided(xp, shape=(c, kh, kw, t, ow, n),
                             strides=(sc, sh, sw, sh * stride, sw * stride, sn), writeable=False)
        return windows.reshape(c * kh * kw, t * row_len)

    wmat = kernel.data.reshape(f, c * kh * kw)
    row_len = ow * n                                     # output columns per output row
    tile_rows = max(1, CONV_TILE_BYTES // (c * kh * kw * row_len * xt.itemsize))
    xp = padded(0, hp)                                   # not kept for backward
    if tile_rows >= oh:
        out = np.matmul(wmat, im2col(xp, oh))            # (F, oh*ow*N)
    else:
        out = np.empty((f, oh * row_len), dtype=np.result_type(wmat, xt))
        for r in range(0, oh, tile_rows):
            t = min(tile_rows, oh - r)
            np.matmul(wmat, im2col(xp[:, stride * r:], t),
                      out=out[:, r * row_len:(r + t) * row_len])
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(f, oh, ow, n).transpose(3, 0, 1, 2)

    def backward_fn(o):
        dout = o.grad.transpose(1, 2, 3, 0).reshape(f, oh * row_len)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(dout.sum(axis=1, dtype=np.float64).astype(bias.dtype))
        dw_t = None                                      # dW.T, (C*kh*kw, F)
        dxp = np.zeros((c, hp, wp, n), dtype=dout.dtype) if x.requires_grad else None
        for r in range(0, oh, tile_rows):
            t = min(tile_rows, oh - r)
            dout_t = dout[:, r * row_len:(r + t) * row_len]
            if kernel.requires_grad:
                # cols @ dout.T, transposed once at the end, measured 14-23 %
                # faster than dout @ cols.T over the cnn5 layers.
                xp = padded(stride * r, stride * (r + t - 1) + kh)   # this tile's rows
                part = np.matmul(im2col(xp, t), dout_t.T)
                if dw_t is None:
                    dw_t = part
                else:
                    dw_t += part
            if dxp is not None:
                per_tap = np.matmul(wmat.T, dout_t).reshape(c, kh * kw, t, ow, n)
                for m, (rows, columns) in enumerate(_taps(kh, kw, stride, t, ow, r)):
                    dxp[:, rows, columns] += per_tap[:, m]
        if dw_t is not None:
            kernel.accumulate_grad(dw_t.T.reshape(kernel.shape))
        if dxp is not None:
            x.accumulate_grad(dxp[:, padding:padding + h, padding:padding + w].transpose(3, 0, 1, 2),
                              owned=True)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return x._make(out, parents, backward_fn)


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max over kernel x kernel windows; zero padding (intended for post-relu maps).

    Ties within a window route the gradient to the first maximal element in
    row-major window order.  A NaN in a window gives a NaN output.
    """
    if stride is None:
        stride = kernel
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if kernel > hp or kernel > wp:
        raise ValueError(f"max_pool2d window {kernel} exceeds padded input {hp}x{wp}")
    if padding:
        xp = np.zeros_like(x.data, shape=(n, c, hp, wp))    # same memory layout as the input
        xp[:, :, padding:padding + h, padding:padding + w] = x.data
    else:
        xp = x.data
    oh = (hp - kernel) // stride + 1
    ow = (wp - kernel) // stride + 1
    taps = _taps(kernel, kernel, stride, oh, ow)
    views = [xp[:, :, rows, cols] for rows, cols in taps]
    out = views[0].copy(order="K")                          # keeps the input's memory layout
    for view in views[1:]:
        np.maximum(out, view, out=out)

    if not (grad_enabled() and x.requires_grad):
        return x._make(out, (x,), None)

    # First maximum in row-major window order: a tap takes the windows whose
    # maximum no earlier tap has taken.
    taken = np.zeros_like(out, dtype=bool)
    masks = []
    for view in views:
        hit = view == out
        hit &= ~taken
        taken |= hit
        masks.append(hit)

    def backward_fn(o):
        dxp = np.zeros_like(x.data, shape=(n, c, hp, wp))    # keeps no padded copy alive
        for (rows, cols), hit in zip(taps, masks):
            dxp[:, :, rows, cols] += o.grad * hit
        x.accumulate_grad(dxp[:, :, padding:padding + h, padding:padding + w], owned=True)

    return x._make(out, (x,), backward_fn)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial mean of an (N, C, H, W) tensor, giving (N, C)."""
    n, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3), dtype=np.float64).astype(x.dtype)

    def backward_fn(out):
        if x.requires_grad:
            g = out.grad[:, :, None, None] / (h * w)
            x.accumulate_grad(np.broadcast_to(g, x.shape).astype(x.dtype))

    return x._make(data, (x,), backward_fn)


@contextlib.contextmanager
def batch_norm_groups(groups: int):
    """Inside the context, training-mode batch norm splits its batch into
    ``groups`` equal runs of consecutive samples and treats each run as a batch
    of its own: see :func:`batch_norm2d`."""
    global _bn_groups
    prev, _bn_groups = _bn_groups, groups
    try:
        yield
    finally:
        _bn_groups = prev


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = BN_MOMENTUM, eps: float = BN_EPS,
                 overwrite_input: bool = False) -> Tensor:
    """Per-channel batch normalization with running statistics.

    In training mode normalizes by batch moments and updates the running
    buffers in place (running variance uses the unbiased estimate); in eval
    mode normalizes by the running buffers.  Inside :func:`batch_norm_groups`
    training mode normalizes each group of consecutive samples by that
    group's own moments and updates the running buffers once per group, in
    order, as one call per group would.

    ``overwrite_input`` is for the encoders' conv outputs, which nothing but
    this op reads: training mode then centres ``x`` in its own buffer instead
    of a copy.  Without it ``x`` is never written.
    """
    n, c, h, w = x.shape
    if not training:
        return _batch_norm_eval(x, gamma, beta, running_mean, running_var, eps)
    groups = _bn_groups
    if n % groups:
        raise ValueError(f"batch norm cannot split {n} samples into {groups} equal groups")
    k = n // groups
    count = k * h * w

    def per_group(a):
        """(C, N) per-sample sums -> (C, G) per-group sums."""
        return a.reshape(c, groups, k).sum(axis=2)

    def per_sample(a):
        """(C, G) per-group values -> (C, 1, N), to scale the (C, H*W, N) maps."""
        return np.repeat(a.astype(x.dtype), k, axis=1)[:, None, :]

    # Every map is read and written as (C, H*W, N), a view of the conv
    # output's batch-innermost memory.  Each reduction runs over the spatial
    # axis first, then folds the K samples of each group; reducing the
    # (C, H*W, G, K) view in one call measured 2.5x slower (C=32, 32x32, N=128).
    xt = x.data.transpose(1, 2, 3, 0).reshape(c, h * w, n)
    mean = per_group(xt.sum(axis=1, dtype=np.float64)) / count
    centred = np.subtract(xt, per_sample(mean), out=xt if overwrite_input else None)
    var = per_group(np.einsum("cpn,cpn->cn", centred, centred, dtype=np.float64)) / count
    with np.errstate(invalid="ignore"):
        unbiased = var * count / max(count - 1, 1)
    for g in range(groups):
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean[:, g].astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased[:, g].astype(running_var.dtype)

    # xhat = centred * inv_std is never stored: inv_std is folded into the
    # per-group factors.
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma.data.astype(np.float64)[:, None] * inv_std
    out = centred * per_sample(scale)
    out += beta.data[:, None, None]

    def backward_fn(o):
        dy = o.grad.transpose(1, 2, 3, 0).reshape(c, h * w, n)
        sum_dy = per_group(dy.sum(axis=1, dtype=np.float64))
        sum_dy_xhat = per_group(np.einsum("cpn,cpn->cn", dy, centred, dtype=np.float64)) * inv_std
        if gamma.requires_grad:
            gamma.accumulate_grad(sum_dy_xhat.sum(axis=1).astype(gamma.dtype))
        if beta.requires_grad:
            beta.accumulate_grad(sum_dy.sum(axis=1).astype(beta.dtype))
        if x.requires_grad:
            # dx = scale * (dy - mean(dy) - xhat * mean(dy * xhat)), per group
            dx = centred * per_sample(inv_std * sum_dy_xhat / count)
            np.subtract(dy, dx, out=dx)
            dx -= per_sample(sum_dy / count)
            dx *= per_sample(scale)
            x.accumulate_grad(dx.reshape(c, h, w, n).transpose(3, 0, 1, 2), owned=True)

    return x._make(out.reshape(c, h, w, n).transpose(3, 0, 1, 2), (x, gamma, beta), backward_fn)


def _batch_norm_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                     running_mean: np.ndarray, running_var: np.ndarray, eps: float) -> Tensor:
    """Eval-mode batch norm: the running statistics and the affine map folded
    into one per-channel scale and shift, applied in the input's layout."""
    def per_channel(a):
        return a.astype(x.dtype)[None, :, None, None]

    mean = running_mean.astype(np.float64)
    inv_std = 1.0 / np.sqrt(running_var.astype(np.float64) + eps)
    scale = gamma.data.astype(np.float64) * inv_std
    out = x.data * per_channel(scale)
    out += per_channel(beta.data - mean * scale)

    def backward_fn(o):
        dy = o.grad
        if gamma.requires_grad:
            xc = x.data - per_channel(mean)
            sum_dy_xhat = np.einsum("nchw,nchw->c", dy, xc, dtype=np.float64) * inv_std
            gamma.accumulate_grad(sum_dy_xhat.astype(gamma.dtype))
        if beta.requires_grad:
            beta.accumulate_grad(dy.sum(axis=(0, 2, 3), dtype=np.float64).astype(beta.dtype))
        if x.requires_grad:
            x.accumulate_grad(dy * per_channel(scale), owned=True)

    return x._make(out, (x, gamma, beta), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, offset: Tensor, eps: float = LN_EPS) -> Tensor:
    """Normalize over the last axis to zero mean/unit variance, then scale and shift."""
    d = x.shape[-1]
    if d == 0:
        raise ValueError("layer_norm over an empty axis")
    if gain.shape != (d,) or offset.shape != (d,):
        raise ValueError(f"layer_norm gain/offset must have shape ({d},)")
    mean = x.data.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = x.data.var(axis=-1, keepdims=True, dtype=np.float64)
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = ((x.data - mean).astype(x.dtype)) * inv_std
    out = gain.data * xhat + offset.data

    def backward_fn(o):
        dy = o.grad
        reduce_axes = tuple(range(x.ndim - 1))
        if gain.requires_grad:
            gain.accumulate_grad((dy * xhat).sum(axis=reduce_axes, dtype=np.float64).astype(gain.dtype))
        if offset.requires_grad:
            offset.accumulate_grad(dy.sum(axis=reduce_axes, dtype=np.float64).astype(offset.dtype))
        if x.requires_grad:
            h = dy * gain.data
            m = h.mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
            mx = (h * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
            x.accumulate_grad((h - m - xhat * mx) * inv_std)

    return x._make(out, (x, gain, offset), backward_fn)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true-class logit.

    ``logits`` is (N, K); ``labels`` an integer sequence of length N with
    values in [0, K).
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects (N, K) logits, got {logits.shape}")
    n, k = logits.shape
    if n == 0:
        raise ValueError("cross_entropy requires at least one sample")
    if labels.shape != (n,):
        raise ValueError(f"cross_entropy labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("cross_entropy labels must be integers")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"cross_entropy label outside [0, {k}): {labels.tolist()}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=1, keepdims=True, dtype=np.float64)
    logp = shifted - np.log(denom).astype(logits.dtype)
    loss = np.asarray(-logp[np.arange(n), labels].mean(dtype=np.float64), dtype=logits.dtype)

    def backward_fn(out):
        if logits.requires_grad:
            p = (e / denom).astype(logits.dtype)
            p[np.arange(n), labels] -= 1.0
            logits.accumulate_grad(p * (out.grad / n))

    return logits._make(loss, (logits,), backward_fn)


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error."""
    if pred.shape != target.shape:
        raise ValueError(f"l1_loss shape mismatch: {pred.shape} vs {target.shape}")
    return (pred - target).abs().mean()


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return (diff * diff).mean()


# ---------------------------------------------------------------------------
# module system
# ---------------------------------------------------------------------------

class Module:
    """Base class for anything with parameters.

    Assigning a ``Tensor`` attribute registers it as a parameter, a
    ``Module`` as a child; numpy buffers (running statistics) go through
    :meth:`register_buffer`.  Registration order is deterministic and defines
    the parameter naming and initialization order.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        else:
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        for group in ("_params", "_buffers", "_children"):
            d = object.__getattribute__(self, group)
            if name in d:
                return d[name]
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    def register_buffer(self, name: str, value: np.ndarray):
        self._buffers[name] = value

    def named_modules(self, prefix: str = ""):
        yield prefix, self
        for name, child in self._children.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = ""):
        for mod_name, mod in self.named_modules(prefix):
            for name, p in mod._params.items():
                yield (f"{mod_name}.{name}" if mod_name else name), p

    def named_buffers(self, prefix: str = ""):
        for mod_name, mod in self.named_modules(prefix):
            for name, b in mod._buffers.items():
                yield (f"{mod_name}.{name}" if mod_name else name), b

    def named_state(self, prefix: str = ""):
        """Parameters then buffers, as (name, numpy array, is_param) triples."""
        for name, p in self.named_parameters(prefix):
            yield name, p.data, True
        for name, b in self.named_buffers(prefix):
            yield name, b, False

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True):
        for _, mod in self.named_modules():
            object.__setattr__(mod, "training", mode)
        return self

    def eval(self):
        return self.train(False)


class ModuleList(Module):
    """Sequence of child modules addressed by integer index (``layer.0`` etc.)."""

    def __init__(self, modules=()):
        super().__init__()
        self._order = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        self._children[str(len(self._order))] = module
        self._order.append(module)

    def __iter__(self):
        return iter(self._order)

    def __len__(self):
        return len(self._order)

    def __getitem__(self, i):
        return self._order[i]


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(np.zeros((out_features, in_features)), requires_grad=True)
        if bias:
            self.bias = Tensor(np.zeros(out_features), requires_grad=True)
        else:
            self.bias = None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    @property
    def fan_in(self) -> int:
        return self.in_features


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(
            np.zeros((out_channels, in_channels, kernel_size, kernel_size)), requires_grad=True
        )
        if bias:
            self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        else:
            self.bias = None

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    @property
    def fan_in(self) -> int:
        _, c, kh, kw = self.weight.shape
        return c * kh * kw


class BatchNorm2d(Module):
    """Per-channel batch normalization with running statistics.

    When ``freeze_stats`` is set (e.g. after importing pretrained weights)
    the stored statistics are used even in training mode and never updated;
    the affine scale/shift stays trainable either way.
    """

    def __init__(self, num_features: int, eps: float = BN_EPS, momentum: float = BN_MOMENTUM):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.freeze_stats = False
        self.weight = Tensor(np.ones(num_features), requires_grad=True)
        self.bias = Tensor(np.zeros(num_features), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def __call__(self, x: Tensor, overwrite_input: bool = False) -> Tensor:
        """``overwrite_input``: see :func:`batch_norm2d`."""
        return batch_norm2d(
            x, self.weight, self.bias,
            self._buffers["running_mean"], self._buffers["running_var"],
            training=self.training and not self.freeze_stats,
            momentum=self.momentum, eps=self.eps, overwrite_input=overwrite_input,
        )


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = LN_EPS):
        super().__init__()
        self.eps = eps
        self.weight = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.weight, self.bias, eps=self.eps)


def load_state(module: Module, state: dict[str, np.ndarray]):
    """Copy arrays from ``state`` into matching parameters/buffers by name."""
    for name, array, is_param in module.named_state():
        if name not in state:
            continue
        src = np.asarray(state[name])
        if src.shape != array.shape:
            raise ValueError(f"state entry {name!r} has shape {src.shape}, expected {array.shape}")
        array[...] = src
