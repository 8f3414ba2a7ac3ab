"""Neural-network operations and a small layer/module system.

Functional ops take and return :class:`~sliceset.tensor.Tensor` and register
their own backward rules; each op's docstring states what it computes, what
its rule keeps for backward and how it rounds.  Layers own parameters (and,
for batch norm, running-statistic buffers) and expose them through
hierarchical dotted names such as ``conv1.weight`` or
``layer2.0.bn1.running_mean``; those names are the unit of checkpointing and
cross-model weight transfer.

Layout: maps are (N, C, H, W) tensors whose memory is batch-innermost.
:func:`conv2d` and :func:`conv_bn_pool_relu` return (N, F, oh, ow) views of
(F, oh, ow, N) arrays; batch norm, pooling and padding keep that layout, and
the gradients they build for a map take it too.  So every op reads the batch
as contiguous runs, and each convolution's input copy reads contiguous
memory.  Reductions inside the norm layers and losses accumulate in 64-bit
and store 32-bit.

The ops:

* :func:`relu`, :func:`softmax`, :func:`linear`, :func:`layer_norm`: row and
  elementwise maps;
* :func:`pad2d`: zero padding;
* :func:`conv2d`: bias-free cross-correlation, GEMMs over row tiles of at
  most ``CONV_TILE_BYTES``;
* :func:`max_pool2d`: windowed maximum keeping one tap index per output;
* :func:`global_avg_pool2d`: spatial mean;
* :func:`batch_norm2d`: batch norm in groups of consecutive samples;
* :func:`conv_bn_pool_relu`: an encoder's stem as one op that recomputes its
  conv in backward;
* :func:`cross_entropy`, :func:`l1_loss`, :func:`mse_loss`: losses.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, grad_enabled

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LN_EPS = 1e-5

# conv2d builds its column matrix, forward and backward, in tiles of whole
# output rows of at most this many bytes, at least one row each.
CONV_TILE_BYTES = 2 * 1024 * 1024


# ---------------------------------------------------------------------------
# functional ops
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    """max(x, 0).  Backward masks by the sign of the output, not the input:
    ``out > 0`` holds exactly where ``x > 0`` (NaN, ±inf and -0.0 included),
    and the output is the array the next op reads anyway."""
    data = np.maximum(x.data, 0)
    a = x.node

    def backward_fn(out):
        g = out.grad                           # released once this rule has run
        g *= data > 0
        a.accumulate_grad(g, owned=True)

    return x._make(data, (x,), backward_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``; rows sum to 1 and all entries lie in (0, 1)."""
    if x.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=axis, keepdims=True, dtype=np.float64)
    s = (e / denom).astype(x.dtype)
    a = x.node

    def backward_fn(out):
        inner = (out.grad * s).sum(axis=axis, keepdims=True, dtype=np.float64)
        a.accumulate_grad(s * (out.grad - inner.astype(s.dtype)))

    return x._make(s, (x,), backward_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for ``x`` of shape (..., N, din): one
    GEMM per (N, din) matrix forward, one over all rows for the weight gradient."""
    if x.ndim < 2 or weight.ndim != 2:
        raise ValueError(f"linear expects (..., N, din) input and 2-D weight, got {x.shape} and {weight.shape}")
    if x.shape[-1] != weight.shape[1]:
        raise ValueError(
            f"linear dimension mismatch: input has {x.shape[-1]} features, weight expects {weight.shape[1]}"
        )
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"linear bias shape {bias.shape} does not match output dim {weight.shape[0]}")
    data = x.data @ weight.data.T + bias.data
    xn, wn, bn = x.node, weight.node, bias.node
    xd = x.data if wn is not None else None          # each side reads the other's data
    wd = weight.data if xn is not None else None

    def backward_fn(out):
        g = out.grad.reshape(-1, out.grad.shape[-1])
        if xn is not None:
            xn.accumulate_grad(out.grad @ wd)
        if wn is not None:
            wn.accumulate_grad(g.T @ xd.reshape(-1, xd.shape[-1]))
        if bn is not None:
            bn.accumulate_grad(g.sum(axis=0, dtype=np.float64).astype(bn.dtype))

    return x._make(data, (x, weight, bias), backward_fn)


def _pads(pad: int | tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """(top, bottom, left, right) of ``pad``: one amount for every side, or
    the four."""
    pads = (pad,) * 4 if isinstance(pad, int) else tuple(pad)
    if min(pads) < 0:
        raise ValueError("pad amounts must be non-negative")
    return pads


def _pad(a: np.ndarray, pads: tuple[int, int, int, int]) -> np.ndarray:
    """The (N, C, H, W) maps ``a`` zero-padded by (top, bottom, left, right)
    in a new buffer laid out as ``a`` is; ``a`` itself when nothing is padded."""
    if not any(pads):
        return a
    top, bottom, left, right = pads
    n, c, h, w = a.shape
    ap = np.zeros_like(a, shape=(n, c, top + h + bottom, left + w + right))
    ap[:, :, top:top + h, left:left + w] = a
    return ap


def pad2d(x: Tensor, pad: int | tuple[int, int, int, int]) -> Tensor:
    """Zero-pad the two trailing spatial axes of an (N, C, H, W) tensor.

    ``pad`` is either a single symmetric amount or (top, bottom, left, right).
    """
    top, _, left, _ = pads = _pads(pad)
    if not any(pads):
        return x
    h, w = x.shape[2], x.shape[3]
    a = x.node

    def backward_fn(out):
        a.accumulate_grad(out.grad[:, :, top:top + h, left:left + w])

    return x._make(_pad(x.data, pads), (x,), backward_fn)


def _taps(kh: int, kw: int, stride: int, oh: int, ow: int, first_row: int = 0):
    """Row and column slices of the inputs each kernel tap reads for output rows
    ``first_row`` to ``first_row + oh``, taps in row-major order."""
    top = stride * first_row
    return [(slice(top + i, top + i + stride * (oh - 1) + 1, stride),
             slice(j, j + stride * (ow - 1) + 1, stride))
            for i in range(kh) for j in range(kw)]


def _padded_rows(xt: np.ndarray, top: int, bottom: int, padding: int) -> np.ndarray:
    """Rows ``top:bottom`` of the zero-padded (C, Hp, Wp, N) copy of the
    batch-innermost input ``xt``; a view of it when nothing is padded."""
    if not padding:
        return xt[:, top:bottom]
    c, h, w, n = xt.shape
    xp = np.zeros((c, bottom - top, w + 2 * padding, n), dtype=xt.dtype)
    lo, hi = max(top, padding), min(bottom, padding + h)
    if lo < hi:
        xp[:, lo - top:hi - top, padding:padding + w] = xt[:, lo - padding:hi - padding]
    return xp


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, rows: int, ow: int) -> np.ndarray:
    """Columns of ``rows`` output rows from ``xp``, the padded input from the
    first row they read; copies unless 1x1, stride 1 and unpadded."""
    c, n = xp.shape[0], xp.shape[3]
    sc, sh, sw, sn = xp.strides
    windows = as_strided(xp, shape=(c, kh, kw, rows, ow, n),
                         strides=(sc, sh, sw, sh * stride, sw * stride, sn), writeable=False)
    return windows.reshape(c * kh * kw, -1)


def _conv_backward(xt: np.ndarray, wmat: np.ndarray, dout: np.ndarray, kh: int, kw: int,
                   stride: int, padding: int, kernel_grad: bool, input_grad: bool):
    """dW.T, (C*kh*kw, F), and the zero-padded (C, Hp, Wp, N) input gradient
    of the (F, oh*ow*N) output gradient ``dout``, each None unless asked;
    both are built row tile by row tile, as :func:`conv2d` states."""
    c, h, w, n = xt.shape
    ow = (w + 2 * padding - kw) // stride + 1
    row_len = ow * n
    oh = dout.shape[1] // row_len
    tile_rows = max(1, CONV_TILE_BYTES // (wmat.shape[1] * row_len * xt.itemsize))
    dw_t = None
    dxp = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=dout.dtype) if input_grad else None
    for r in range(0, oh, tile_rows):
        t = min(tile_rows, oh - r)
        dout_t = dout[:, r * row_len:(r + t) * row_len]
        if kernel_grad:
            # cols @ dout.T, transposed once at the end, measured 14-23 %
            # faster than dout @ cols.T over the cnn5 layers.
            xp = _padded_rows(xt, stride * r, stride * (r + t - 1) + kh, padding)   # this tile's rows
            part = np.matmul(_im2col(xp, kh, kw, stride, t, ow), dout_t.T)
            if dw_t is None:
                dw_t = part
            else:
                dw_t += part
            del xp, part            # before the input-gradient GEMM
        if input_grad:
            per_tap = np.matmul(wmat.T, dout_t).reshape(c, kh * kw, t, ow, n)
            for m, (rows, columns) in enumerate(_taps(kh, kw, stride, t, ow, r)):
                dxp[:, rows, columns] += per_tap[:, m]
            del per_tap             # before the next tile's columns
    return dw_t, dxp


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of (N, C, H, W) input with an (F, C, kh, kw)
    kernel, within 1e-5 of a direct six-loop reference.

    Output spatial extent is ``floor((H + 2*padding - kh)/stride) + 1`` (same
    for W), returned as an (N, F, oh, ow) view of (F, oh, ow, N) memory.  The
    kernel windows of the zero-padded (C, Hp, Wp, N) input form a
    (C·kh·kw, oh·ow·N) column matrix, which both passes walk in tiles of
    whole output rows of at most ``CONV_TILE_BYTES`` (one row when a row
    alone is larger), so the columns stay bounded, and in cache, however
    many slices one call carries.  Forward pads the input once, in a buffer
    it drops on return, and each tile's GEMM writes its own columns of the
    output.  The rule keeps only the input: no padded copy and no column
    matrix.  Backward pads each tile's input rows again, multiplies the
    tile's columns by its output gradient into its share of dW, and
    scatters the tile's column gradient ``W.T @ dout`` into the padded input
    gradient with one add per kernel tap; one tile's temporaries are dropped
    before the next tile's are built.

    Each output column is its own dot product, but OpenBLAS picks its kernels
    by matrix width, so a slice's output can differ by float32 roundoff with
    the batch it came in and with the tile widths.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input and kernel, got {x.shape} and {kernel.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if c != ck:
        raise ValueError(f"conv2d channel mismatch: input has {c} channels, kernel expects {ck}")
    if stride < 1:
        raise ValueError("conv2d stride must be >= 1")
    if padding < 0:
        raise ValueError("conv2d padding must be >= 0")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ValueError(f"conv2d kernel {kh}x{kw} exceeds padded input {hp}x{wp}")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1

    xt = x.data.transpose(1, 2, 3, 0)                    # (C, H, W, N)
    wmat = kernel.data.reshape(f, c * kh * kw)
    row_len = ow * n                                     # output columns per output row
    tile_rows = max(1, CONV_TILE_BYTES // (c * kh * kw * row_len * xt.itemsize))
    xp = _padded_rows(xt, 0, hp, padding)                # not kept for backward
    out = np.empty((f, oh * row_len), dtype=np.result_type(wmat, xt))
    for r in range(0, oh, tile_rows):
        t = min(tile_rows, oh - r)
        np.matmul(wmat, _im2col(xp[:, stride * r:], kh, kw, stride, t, ow),
                  out=out[:, r * row_len:(r + t) * row_len])
    out = out.reshape(f, oh, ow, n).transpose(3, 0, 1, 2)
    xn, kn = x.node, kernel.node

    def backward_fn(o):
        dout = o.grad.transpose(1, 2, 3, 0).reshape(f, oh * ow * n)
        dw_t, dxp = _conv_backward(xt, wmat, dout, kh, kw, stride, padding,
                                   kn is not None, xn is not None)
        if dw_t is not None:
            kn.accumulate_grad(dw_t.T.reshape(kn.shape))
        if dxp is not None:
            xn.accumulate_grad(dxp[:, padding:padding + h, padding:padding + w].transpose(3, 0, 1, 2),
                               owned=True)

    return x._make(out, (x, kernel), backward_fn)


def _max_pool(xp: np.ndarray, kernel: int, stride: int, out: np.ndarray,
              first: np.ndarray | None = None):
    """Max over the kernel x kernel windows of the padded (N, C, Hp, Wp) map
    ``xp``, written to ``out``, and, when ``first`` is given, the index of
    each window's first maximal tap in row-major order written to it: walking
    the taps backwards, each tap equal to the maximum takes its windows over,
    by an arithmetic select (first -= (first - m) * hit).  A window no tap
    equals (a NaN maximum) keeps the tap count, which matches no tap."""
    taps = _taps(kernel, kernel, stride, out.shape[2], out.shape[3])
    views = [xp[:, :, rows, cols] for rows, cols in taps]
    np.copyto(out, views[0])
    for view in views[1:]:
        np.maximum(out, view, out=out)
    if first is not None:
        first[...] = len(taps)
        for m in range(len(taps) - 1, -1, -1):
            d = first - m
            d *= views[m] == out
            first -= d


def _max_pool_backward(g: np.ndarray, first: np.ndarray, kernel: int, stride: int,
                       hp: int, wp: int) -> np.ndarray:
    """The gradient of the padded (N, C, hp, wp) input, laid out
    batch-innermost: the output gradient ``g`` added at each window's first
    maximal tap, one tap at a time."""
    n, c = g.shape[:2]
    dxp = np.zeros((c, hp, wp, n), dtype=g.dtype).transpose(3, 0, 1, 2)
    for m, (rows, cols) in enumerate(_taps(kernel, kernel, stride, g.shape[2], g.shape[3])):
        dxp[:, :, rows, cols] += g * (first == m)
    return dxp


def _pool_extents(h: int, w: int, kernel: int, stride: int,
                  pads: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The padded and the pooled extents, (hp, wp, oh, ow), of a max pool
    over h x w maps padded by (top, bottom, left, right)."""
    if kernel < 1 or stride < 1:
        raise ValueError(f"max_pool2d kernel and stride must be >= 1, got {kernel} and {stride}")
    hp, wp = h + pads[0] + pads[1], w + pads[2] + pads[3]
    if kernel > hp or kernel > wp:
        raise ValueError(f"max_pool2d window {kernel} exceeds padded input {hp}x{wp}")
    return hp, wp, (hp - kernel) // stride + 1, (wp - kernel) // stride + 1


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None,
               padding: int | tuple[int, int, int, int] = 0) -> Tensor:
    """Max over kernel x kernel windows; zero padding (post-relu maps, or maps
    whose relu follows the pool, since zero is relu's fixed point), one
    amount for every side or (top, bottom, left, right), as :func:`pad2d`
    takes it.

    Ties within a window route the gradient to the first maximal element in
    row-major window order.  A NaN in a window gives a NaN output and routes
    no gradient.  For backward the op keeps one index per output, that
    first maximal tap (``uint8`` up to 255 taps), not the input.
    """
    if stride is None:
        stride = kernel
    pads = _pads(padding)
    n, c, h, w = x.shape
    hp, wp, oh, ow = _pool_extents(h, w, kernel, stride, pads)
    xp = _pad(x.data, pads)
    out = np.empty_like(xp[:, :, :oh, :ow])                 # keeps the input's memory layout
    a = x.node
    if not (grad_enabled() and a is not None):
        _max_pool(xp, kernel, stride, out)
        return x._make(out, (x,), None)

    first = np.empty_like(out, dtype=np.min_scalar_type(kernel * kernel))
    _max_pool(xp, kernel, stride, out, first)
    top, _, left, _ = pads

    def backward_fn(o):
        dxp = _max_pool_backward(o.grad, first, kernel, stride, hp, wp)
        a.accumulate_grad(dxp[:, :, top:top + h, left:left + w], owned=True)

    return x._make(out, (x,), backward_fn)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial mean of an (N, C, H, W) tensor, giving (N, C)."""
    n, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3), dtype=np.float64).astype(x.dtype)
    a = x.node

    def backward_fn(out):
        g = out.grad[:, :, None, None] / (h * w)
        a.accumulate_grad(np.broadcast_to(g, a.shape).astype(a.dtype))

    return x._make(data, (x,), backward_fn)


def _per_group(a: np.ndarray, k: int) -> np.ndarray:
    """(C, N) per-sample values -> (C, N/k) sums over each group of k samples."""
    return a.reshape(a.shape[0], -1, k).sum(axis=2)


def _per_sample(a: np.ndarray, k: int, dtype) -> np.ndarray:
    """(C, G) per-group values -> (C, 1, G*k), to scale the (C, H*W, N) maps;
    (C, 1, 1) for one group, which numpy broadcasts over whole channels."""
    a = a.astype(dtype)
    return a[:, :, None] if a.shape[1] == 1 else np.repeat(a, k, axis=1)[:, None, :]


def _spatial_sums(a: np.ndarray) -> np.ndarray:
    """(C, N) float64 sums of the (C, H*W, N) maps ``a`` over the spatial
    axis, each a sequential sum.  einsum adds in ``sum(axis=1)``'s order
    and measured 2x faster on one volume's 16 slices; for one sample
    ``sum`` adds pairwise instead, and that is kept."""
    if a.shape[2] == 1:
        return a.sum(axis=1, dtype=np.float64)
    return np.einsum("cpn->cn", a, dtype=np.float64)


def _bn_train(xt: np.ndarray, k: int, gamma: np.ndarray, beta: np.ndarray,
              running_mean: np.ndarray, running_var: np.ndarray,
              centred: np.ndarray | None = None, out: np.ndarray | None = None):
    """Training-mode batch norm of the (C, H*W, N) maps ``xt`` in groups of
    ``k`` consecutive samples.  Each group's mean and (biased) variance are
    float64 sums over the spatial axis first, then over the group's samples
    (reducing the (C, H*W, G, K) view in one call measured 2.5x slower, C=32,
    32x32, N=128); the variance sums the squares of the maps centred by their
    group's mean.  The running statistics take one update per group, in
    order, with the unbiased variance.  The centred maps go to ``centred``
    and the normalized ones, centred * γ/std + β, to ``out``, each a new
    array unless given (either may be ``xt``).  Returns both and the
    per-group (C, N/k) float64 mean, 1/std and scale γ/std."""
    count = k * xt.shape[1]
    mean = _per_group(_spatial_sums(xt), k) / count
    centred = np.subtract(xt, _per_sample(mean, k, xt.dtype), out=centred)
    var = _per_group(np.einsum("cpn,cpn->cn", centred, centred, dtype=np.float64), k) / count
    with np.errstate(invalid="ignore"):
        unbiased = var * count / max(count - 1, 1)
    for g in range(mean.shape[1]):
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean[:, g].astype(running_mean.dtype)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased[:, g].astype(running_var.dtype)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma.astype(np.float64)[:, None] * inv_std
    out = np.multiply(centred, _per_sample(scale, k, xt.dtype), out=out)
    out += beta[:, None, None]
    return centred, out, mean, inv_std, scale


def _bn_backward(dy: np.ndarray, centred: np.ndarray, k: int, inv_std: np.ndarray,
                 scale: np.ndarray, input_grad: bool):
    """Per-group Σdy and Σdy·xhat, (C, N/k) each, of training-mode batch norm
    from the (C, H*W, N) output gradient ``dy`` and centred input; with
    ``input_grad`` the input gradient is written over ``centred``.  xhat =
    centred * inv_std is never stored: inv_std is folded into the per-group
    factors."""
    count = k * dy.shape[1]
    sum_dy = _per_group(_spatial_sums(dy), k)
    sum_dy_xhat = _per_group(np.einsum("cpn,cpn->cn", dy, centred, dtype=np.float64), k) * inv_std
    if input_grad:
        # dx = scale * (dy - mean(dy) - xhat * mean(dy * xhat)), per group
        np.multiply(centred, _per_sample(inv_std * sum_dy_xhat / count, k, dy.dtype), out=centred)
        np.subtract(dy, centred, out=centred)
        centred -= _per_sample(sum_dy / count, k, dy.dtype)
        centred *= _per_sample(scale, k, dy.dtype)
    return sum_dy, sum_dy_xhat


def _per_channel(a: np.ndarray, dtype) -> np.ndarray:
    """(C,) values -> (1, C, 1, 1), to scale (N, C, H, W) maps."""
    return a.astype(dtype)[None, :, None, None]


def _bn_eval(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray,
             running_var: np.ndarray, out: np.ndarray | None = None):
    """Eval-mode batch norm of the (N, C, H, W) maps ``x``: the running
    statistics and the affine map folded into one per-channel float64 scale
    and shift, applied in ``x``'s layout and written to ``out`` when given.
    Returns the output and the per-channel mean, 1/std and scale that
    :func:`_bn_eval_backward` reads."""
    mean = running_mean.astype(np.float64)
    inv_std = 1.0 / np.sqrt(running_var.astype(np.float64) + BN_EPS)
    scale = gamma.astype(np.float64) * inv_std
    out = np.multiply(x, _per_channel(scale, x.dtype), out=out)
    out += _per_channel(beta - mean * scale, x.dtype)
    return out, (mean, inv_std, scale)


def _bn_eval_backward(dy: np.ndarray, x: np.ndarray | None, mean: np.ndarray,
                      inv_std: np.ndarray, scale: np.ndarray, gn, bn, overwrite: bool):
    """Eval-mode batch norm's backward from the (N, C, H, W) output gradient
    ``dy``: γ's gradient from ``x`` centred by the running mean (in ``x``'s
    own buffer with ``overwrite``), β's, and the input gradient, dy * scale,
    written over ``dy`` and returned."""
    if gn is not None:
        xc = np.subtract(x, _per_channel(mean, x.dtype), out=x if overwrite else None)
        sum_dy_xhat = np.einsum("nchw,nchw->c", dy, xc, dtype=np.float64) * inv_std
        gn.accumulate_grad(sum_dy_xhat.astype(gn.dtype))
    if bn is not None:
        bn.accumulate_grad(dy.sum(axis=(0, 2, 3), dtype=np.float64).astype(bn.dtype))
    return np.multiply(dy, _per_channel(scale, dy.dtype), out=dy)


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, groups: int = 1, overwrite_input: bool = False) -> Tensor:
    """Per-channel batch normalization with running statistics.

    In training mode normalizes by batch moments and updates the running
    buffers in place (running variance uses the unbiased estimate); in eval
    mode normalizes by the running buffers.  With ``groups`` > 1 training
    mode splits the batch into that many equal runs of consecutive samples,
    normalizes each by its own moments and updates the running buffers once
    per run, in order, as one call per run would; eval mode ignores it.

    ``overwrite_input`` is for a conv output that nothing but this op reads
    (:class:`BatchNorm2d` always passes it): training mode then centres ``x``
    in its own buffer instead of a copy, and backward writes the input
    gradient there; eval mode's backward centres ``x`` there for γ's
    gradient.  Without it ``x`` is never written.
    """
    n, c, h, w = x.shape
    xn, gn, bn = x.node, gamma.node, beta.node
    if not training:
        out, stats = _bn_eval(x.data, gamma.data, beta.data, running_mean, running_var)
        xd = x.data if gn is not None else None          # read by the gamma gradient only

        def eval_backward_fn(o):
            dx = _bn_eval_backward(o.grad, xd, *stats, gn, bn, overwrite_input)
            if xn is not None:
                xn.accumulate_grad(dx, owned=True)

        return x._make(out, (x, gamma, beta), eval_backward_fn)
    if n % groups:
        raise ValueError(f"batch norm cannot split {n} samples into {groups} equal groups")
    k = n // groups
    # Every map is read and written as (C, H*W, N), a view of the conv
    # output's batch-innermost memory.
    xt = x.data.transpose(1, 2, 3, 0).reshape(c, h * w, n)
    centred, out, _, inv_std, scale = _bn_train(xt, k, gamma.data, beta.data, running_mean,
                                                running_var, xt if overwrite_input else None)

    def backward_fn(o):
        dy = o.grad.transpose(1, 2, 3, 0).reshape(c, h * w, n)
        # dx over the centred buffer, which nothing reads after this
        sum_dy, sum_dy_xhat = _bn_backward(dy, centred, k, inv_std, scale, xn is not None)
        if gn is not None:
            gn.accumulate_grad(sum_dy_xhat.sum(axis=1).astype(gn.dtype))
        if bn is not None:
            bn.accumulate_grad(sum_dy.sum(axis=1).astype(bn.dtype))
        if xn is not None:
            xn.accumulate_grad(centred.reshape(c, h, w, n).transpose(3, 0, 1, 2), owned=True)

    return x._make(out.reshape(c, h, w, n).transpose(3, 0, 1, 2), (x, gamma, beta), backward_fn)


def conv_bn_pool_relu(x: Tensor, conv: "Conv2d", bn: "BatchNorm2d", pool: int, stride: int,
                      padding: int | tuple[int, int, int, int] = 0) -> Tensor:
    """relu(max_pool2d(bn(conv(x)), pool, stride, padding)) as one op: an
    encoder's stem, whose input is the slices themselves.  The modules'
    parameters, running statistics and modes are read as their own calls
    would read them.

    Both passes run one batch-norm group at a time (``bn.groups(n)``: one
    volume's slices in slice-set training, the whole batch otherwise), so
    no array of the conv output's size outlives one group.  Forward runs
    the group's conv through :func:`conv2d`, normalizes it in the conv
    output's buffer (training mode updates the running statistics once per
    group, in order), pools it and applies relu to the pooled map.  The rule
    keeps the slices, each group's batch-norm statistics, and the pool's
    one-byte tap index, with relu's mask folded in: a window whose maximum
    is not positive routes to no tap.  Backward routes each group's output
    gradient through relu and the pool, runs the group's conv again with
    :func:`conv2d` (the forward's bits), applies batch norm's backward in
    that buffer and adds the group's kernel gradient with conv's own tile
    loop.  Values, running statistics, γ's and β's gradients and the input
    gradient equal the separate ops' on each group bit for bit; with several
    groups the kernel gradient is the float32 sum of the groups'.
    """
    kernel, gamma, beta = conv.weight, bn.weight, bn.bias
    running_mean, running_var = bn._buffers["running_mean"], bn._buffers["running_var"]
    training = bn.training and not bn.freeze_stats
    top, _, left, _ = pads = _pads(padding)
    xd, kd, conv_stride, conv_padding = x.data, kernel.data, conv.stride, conv.padding
    n = x.shape[0]
    k = n // bn.groups(n)
    groups = [slice(s, s + k) for s in range(0, n, k)]

    def conv_out(samples):
        """The conv output of ``samples``, a (K, F, oh, ow) view of (F, oh, ow, K) memory."""
        return conv2d(Tensor(xd[samples], dtype=xd.dtype), Tensor(kd, dtype=kd.dtype),
                      stride=conv_stride, padding=conv_padding).data

    def centred_maps(y):
        """The (F, oh*ow, K) view of a conv output's memory."""
        return y.transpose(1, 2, 3, 0).reshape(y.shape[1], -1, y.shape[0])

    record = grad_enabled() and any(t.node is not None for t in (x, kernel, gamma, beta))
    stats, out, first = [], None, None              # stats: per group, batch norm's for backward
    for samples in groups:
        y = conv_out(samples)
        _, f, oh, ow = y.shape
        if out is None:
            hp, wp, ph, pw = _pool_extents(oh, ow, pool, stride, pads)
            out = np.empty((f, ph, pw, n), dtype=y.dtype).transpose(3, 0, 1, 2)
            if record:
                first = np.empty_like(out, dtype=np.min_scalar_type(pool * pool))
        if training:
            yt = centred_maps(y)
            stats.append(_bn_train(yt, k, gamma.data, beta.data, running_mean, running_var,
                                   yt, yt)[2:])
        else:
            stats.append(_bn_eval(y, gamma.data, beta.data, running_mean, running_var, y)[1])
        yp = _pad(y, pads)
        del y
        # Pooled into a group-sized buffer first: numpy's ops on the batch's
        # strided columns measured 1.6x slower than on it, plus the copy.
        pooled = np.empty((f, ph, pw, k), dtype=yp.dtype).transpose(3, 0, 1, 2)
        taps = None if first is None else np.empty_like(pooled, dtype=first.dtype)
        _max_pool(yp, pool, stride, pooled, taps)
        del yp
        if taps is not None:     # relu's backward mask, folded in: no tap where out <= 0
            np.copyto(taps, pool * pool, where=pooled <= 0)
            first[samples] = taps
        out[samples] = np.maximum(pooled, 0, out=pooled)
    if not record:
        return x._make(out, (x, kernel, gamma, beta), None)

    xn, kn, gn, bn_node = x.node, kernel.node, gamma.node, beta.node
    c, h, w = x.shape[1:]
    wmat = kd.reshape(kd.shape[0], -1)

    sums = np.empty((2, f, len(groups)))            # training mode: per group Σdy, Σdy·xhat

    def conv_output_grad(dyp, i, samples):
        """Group ``i``'s (F, oh*ow*K) conv-output gradient from ``dyp``, its
        padded batch-norm output's gradient, in its recomputed conv output's
        buffer in training mode; γ's and β's gradients go to ``sums`` or, in
        eval mode, to their nodes."""
        dy = dyp[:, :, top:top + oh, left:left + ow]
        y = conv_out(samples)
        if not training:
            dy = _bn_eval_backward(dy, y, *stats[i], gn, bn_node, True)
            return dy.transpose(1, 2, 3, 0).reshape(f, -1)
        group_mean, group_inv_std, group_scale = stats[i]
        yt = centred_maps(y)
        yt -= _per_sample(group_mean, k, y.dtype)
        sums[0, :, i:i + 1], sums[1, :, i:i + 1] = _bn_backward(
            centred_maps(dy), yt, k, group_inv_std, group_scale, True)
        return yt.reshape(f, -1)                         # dx, written over yt

    def backward_fn(o):
        nonlocal first
        dx = np.empty((c, h, w, n), dtype=xd.dtype) if xn is not None else None
        for i, samples in enumerate(groups):
            dyp = _max_pool_backward(o.grad[samples], first[samples], pool, stride, hp, wp)
            if i == len(groups) - 1:
                # Nothing reads them again: freed before the last (or only)
                # group's recompute instead of once the rule has run.
                o.grad = first = None
            dout = conv_output_grad(dyp, i, samples)
            del dyp
            dw_t, dxp = _conv_backward(xd[samples].transpose(1, 2, 3, 0), wmat, dout,
                                       *kd.shape[2:], conv_stride, conv_padding,
                                       kn is not None, xn is not None)
            del dout
            if dw_t is not None:
                kn.accumulate_grad(dw_t.T.reshape(kn.shape))
            if dxp is not None:
                p = conv_padding
                dx[..., samples] = dxp[:, p:p + h, p:p + w]
        if training:
            if gn is not None:
                gn.accumulate_grad(sums[1].sum(axis=1).astype(gn.dtype))
            if bn_node is not None:
                bn_node.accumulate_grad(sums[0].sum(axis=1).astype(bn_node.dtype))
        if dx is not None:
            xn.accumulate_grad(dx.transpose(3, 0, 1, 2), owned=True)

    return x._make(out, (x, kernel, gamma, beta), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, offset: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean/unit variance, then scale and shift."""
    d = x.shape[-1]
    if d == 0:
        raise ValueError("layer_norm over an empty axis")
    if gain.shape != (d,) or offset.shape != (d,):
        raise ValueError(f"layer_norm gain/offset must have shape ({d},)")
    mean = x.data.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = x.data.var(axis=-1, keepdims=True, dtype=np.float64)
    inv_std = (1.0 / np.sqrt(var + LN_EPS)).astype(x.dtype)
    xhat = ((x.data - mean).astype(x.dtype)) * inv_std
    out = gain.data * xhat + offset.data
    xn, gn, on = x.node, gain.node, offset.node
    gd = gain.data if xn is not None else None       # read by the input gradient only

    def backward_fn(o):
        dy = o.grad
        reduce_axes = tuple(range(dy.ndim - 1))
        if gn is not None:
            gn.accumulate_grad((dy * xhat).sum(axis=reduce_axes, dtype=np.float64).astype(gn.dtype))
        if on is not None:
            on.accumulate_grad(dy.sum(axis=reduce_axes, dtype=np.float64).astype(on.dtype))
        if xn is not None:
            h = dy * gd
            m = h.mean(axis=-1, keepdims=True, dtype=np.float64).astype(xn.dtype)
            mx = (h * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(xn.dtype)
            xn.accumulate_grad((h - m - xhat * mx) * inv_std)

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
    a = logits.node

    def backward_fn(out):
        p = (e / denom).astype(a.dtype)
        p[np.arange(n), labels] -= 1.0
        a.accumulate_grad(p * (out.grad / n))

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

    def modules(self) -> list["Module"]:
        """Every module of the tree in :meth:`named_modules` order, walked with
        one explicit stack instead of a generator per level."""
        order, stack = [], [self]
        while stack:
            mod = stack.pop()
            order.append(mod)
            stack.extend(reversed(mod._children.values()))
        return order

    def train(self, mode: bool = True):
        for mod in self.modules():
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
    def __init__(self, in_features: int, out_features: int):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(np.zeros((out_features, in_features)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    @property
    def fan_in(self) -> int:
        return self.in_features


class Conv2d(Module):
    """Bias-free convolution: every conv of the package feeds a batch norm,
    whose shift would cancel a bias."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(
            np.zeros((out_channels, in_channels, kernel_size, kernel_size)), requires_grad=True
        )

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride, padding=self.padding)

    @property
    def fan_in(self) -> int:
        _, c, kh, kw = self.weight.shape
        return c * kh * kw


class BatchNorm2d(Module):
    """Per-channel batch normalization with running statistics, over the
    output of the conv before it, which nothing else reads: every call
    centres its input in that input's own buffer (``overwrite_input`` of
    :func:`batch_norm2d`).

    ``group_size`` is the number of consecutive samples that training mode
    normalizes together: one volume's slices in a slice-set model's encoder,
    or ``None`` for the whole batch.  When ``freeze_stats`` is set (e.g. with
    pretrained weights) the stored statistics are used even in training
    mode and never updated; the affine scale/shift stays trainable either
    way.
    """

    def __init__(self, num_features: int):
        super().__init__()
        self.freeze_stats = False
        self.group_size = None
        self.weight = Tensor(np.ones(num_features), requires_grad=True)
        self.bias = Tensor(np.zeros(num_features), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def groups(self, n: int) -> int:
        """The groups a call on ``n`` samples splits its batch into: runs of
        ``group_size`` in training mode, else 1."""
        if not self.training or self.freeze_stats or self.group_size is None:
            return 1
        if n % self.group_size:
            raise ValueError(f"batch norm cannot split {n} samples into groups of {self.group_size}")
        return n // self.group_size

    def __call__(self, x: Tensor) -> Tensor:
        return batch_norm2d(
            x, self.weight, self.bias,
            self._buffers["running_mean"], self._buffers["running_var"],
            training=self.training and not self.freeze_stats, groups=self.groups(x.shape[0]),
            overwrite_input=True,
        )


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.weight = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.weight, self.bias)


def load_state(module: Module, state: dict[str, np.ndarray]):
    """Copy arrays from ``state`` into matching parameters/buffers by name."""
    for name, array, is_param in module.named_state():
        if name not in state:
            continue
        src = np.asarray(state[name])
        if src.shape != array.shape:
            raise ValueError(f"state entry {name!r} has shape {src.shape}, expected {array.shape}")
        array[...] = src
