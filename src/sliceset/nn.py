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
add per kernel tap, over rows of ow·N contiguous floats.  Each tile's
padded rows, columns and partial dW are dropped before its column-gradient
GEMM, and that product once it is scattered, so no two tiles' temporaries
are alive at once.  A tile that fits in the L2 cache is still there when
its GEMM reads it, and the transient columns, and backward's padded rows
and column gradients, stay bounded however many slices one call carries;
when the whole matrix fits in one tile each pass makes a single GEMM per
product.  The output is handed back as an (N, F, oh, ow) view of the (F,
oh, ow, N) result, so the batch stays innermost from layer to layer and the
next convolution's copy reads contiguous memory.  The backward pass keeps
only the input, which in the encoders is a relu map that relu's own
backward reads anyway: no padded copy and no column matrix (kh·kw times
larger).  The slices of one call share the GEMMs: ``train.batch_loss`` and
``train.predict`` send the slices of several volumes through one encoder
call.  Each output column is its own dot
product, but OpenBLAS picks its kernels by matrix width, so a slice's output
can differ by float32 roundoff with the batch it came in and with the tile
widths.

Max pooling takes the elementwise maximum over the kernel² strided window
views.  When the input needs a gradient it also keeps, per output, the
index of the window's first maximal tap in row-major order: one byte while
a window has at most 255 taps (a wider unsigned integer beyond).  The
backward pass compares that index with each tap in turn and adds the
output gradient where they agree into a zeroed input-sized buffer.  Its
output, padding and input gradient keep the input's memory layout, as
numpy's element-wise ops do; backward lays out the gradient from the
input's recorded axis order, not from the input, which it does not keep.

Batch norm in training mode works on the (C, H·W, N) view of the conv
output's batch-innermost memory.  It takes the mean with one float64 sum
and the variance with one float64 sum of squared deviations of the centred
input, which the backward pass reuses; each sum runs over the spatial axis
first and then over the samples of a group.  A :class:`BatchNorm2d` module
centres its input, a conv output, in that output's own buffer
(``overwrite_input``), since nothing else reads a conv output; that spares
allocating a fresh conv-output-sized array per batch norm.  Backward
computes the input gradient in the centred buffer, which nothing reads
after the rule has run.  The functional op copies unless asked, for
callers that pass an array something else reads.  By default the whole
batch is one group.  A module with a ``group_size`` (a slice-set model's
encoder sets it to the slices per volume) splits its training batch into
``groups`` equal runs of consecutive samples, one volume's slices each, and
every run is normalized by its own moments and updates the running
statistics once, in order, exactly as if it had been a call of its own.
1/std is folded into per-group factors.  The backward pass computes Σdy and
Σdy·xhat once each and shares them between the γ, β and x gradients.  Eval
mode folds the running statistics into one per-channel scale and shift;
with ``overwrite_input`` its backward centres the conv output in place for
γ's gradient, and it writes dx over the output gradient.  Reductions inside
the norm layers and losses accumulate in 64-bit and store results in
32-bit.

An encoder's stem (``recompute``) goes further: batch norm writes its
output over the centred buffer and keeps nothing of the conv output's size;
backward runs the conv again on the same input and kernel arrays and
centres the result with the saved means, so it sees the forward's bits.
With several groups in training mode the stem's conv makes its forward one
group at a time (``runs`` of the private ``_conv2d``, which keeps
:func:`conv2d`'s signature for callers that wrap it), and batch norm's
backward recomputes one group at a time with the same call.  It computes
that group's input gradient in the recomputed buffer and copies it over the
group's columns of the output gradient, so beside the output gradient it
holds one volume's conv output, not the batch's.  The conv's own backward,
which makes the kernel gradient, stays one whole-batch pass.

What a training step holds until backward reaches it, per conv-output
element of a ``cnn5`` block: the conv output, centred in place, which batch
norm's backward reads (4 bytes), the pool's tap index (one byte per pooled
output, 0.25) and the quarter-size relu map (1: ``cnn5`` pools before its
relu, as the resnets' stems do), which relu's backward and the next conv
read: 5.25 bytes.  The stem holds its input (the slices) instead of its conv
output: 1.25 bytes per element, and 3.22 bytes over all five ``cnn5``
blocks at 32x32.  Its batch-norm backward peaks at the output gradient
plus one volume's recomputed conv output (1.17x the stem output at the
``transfer-cnn5`` step, 2.16x with a whole-batch recompute).  The
batch-norm output and the pooled map are freed once the next op has run,
since no backward rule reads them (see :mod:`sliceset.tensor`); in the
resnets so are the batch-norm outputs and the residual sums.  ``CHANGES.md`` and README
"Memory" have the ``perfbench`` peak RSS.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, grad_enabled, memory_order, no_grad, zeros_in

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LN_EPS = 1e-5

# conv2d builds its column matrix, forward and backward, in tiles of whole
# output rows of at most this many bytes, at least one row each; see the
# module docstring.
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


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for ``x`` of shape (..., N, din): one
    GEMM per (N, din) matrix forward, one over all rows for the weight gradient."""
    if x.ndim < 2 or weight.ndim != 2:
        raise ValueError(f"linear expects (..., N, din) input and 2-D weight, got {x.shape} and {weight.shape}")
    if x.shape[-1] != weight.shape[1]:
        raise ValueError(
            f"linear dimension mismatch: input has {x.shape[-1]} features, weight expects {weight.shape[1]}"
        )
    data = x.data @ weight.data.T
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise ValueError(f"linear bias shape {bias.shape} does not match output dim {weight.shape[0]}")
        data = data + bias.data
    xn, wn, bn = x.node, weight.node, bias.node if bias is not None else None
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
    a = x.node

    def backward_fn(out):
        a.accumulate_grad(out.grad[:, :, top:top + H, left:left + W])

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
    return _conv2d(x, kernel, bias, stride, padding)


def _conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None, stride: int, padding: int,
            runs: int = 1) -> Tensor:
    """:func:`conv2d`, whose forward pass, not its backward, ``runs`` splits
    into that many equal runs of consecutive samples, each computed exactly
    as a call of its own would compute it (the encoders' stem, see
    :func:`batch_norm2d`)."""
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

    def padded(xt, top, bottom):
        """Rows ``top:bottom`` of the zero-padded (C, Hp, Wp, N') copy of the
        batch-innermost input ``xt``; a view of it when nothing is padded."""
        if not padding:
            return xt[:, top:bottom]
        xp = np.zeros((c, bottom - top, wp, xt.shape[3]), dtype=xt.dtype)
        lo, hi = max(top, padding), min(bottom, padding + h)
        if lo < hi:
            xp[:, lo - top:hi - top, padding:padding + w] = xt[:, lo - padding:hi - padding]
        return xp

    def im2col(xp, t):
        """Columns of ``t`` output rows from ``xp``, the padded input from the
        first row they read; copies unless 1x1, stride 1 and unpadded."""
        sc, sh, sw, sn = xp.strides
        windows = as_strided(xp, shape=(c, kh, kw, t, ow, xp.shape[3]),
                             strides=(sc, sh, sw, sh * stride, sw * stride, sn), writeable=False)
        return windows.reshape(c * kh * kw, -1)

    def forward(xt):
        """The (F, oh*ow*N') output of the batch-innermost (C, H, W, N') input."""
        row_len = ow * xt.shape[3]                       # output columns per output row
        tile_rows = max(1, CONV_TILE_BYTES // (c * kh * kw * row_len * xt.itemsize))
        xp = padded(xt, 0, hp)                           # not kept for backward
        if tile_rows >= oh:
            return np.matmul(wmat, im2col(xp, oh))
        out = np.empty((f, oh * row_len), dtype=np.result_type(wmat, xt))
        for r in range(0, oh, tile_rows):
            t = min(tile_rows, oh - r)
            np.matmul(wmat, im2col(xp[:, stride * r:], t),
                      out=out[:, r * row_len:(r + t) * row_len])
        return out

    wmat = kernel.data.reshape(f, c * kh * kw)
    if runs == 1:
        out = forward(xt)                                # (F, oh*ow*N)
    else:
        k = n // runs
        out = np.empty((f, oh, ow, n), dtype=np.result_type(wmat, xt))
        for s in range(0, n, k):
            out[..., s:s + k] = forward(xt[..., s:s + k]).reshape(f, oh, ow, k)
        out = out.reshape(f, oh * ow * n)
    row_len = ow * n
    tile_rows = max(1, CONV_TILE_BYTES // (c * kh * kw * row_len * xt.itemsize))
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(f, oh, ow, n).transpose(3, 0, 1, 2)
    xn, kn, bn = x.node, kernel.node, bias.node if bias is not None else None

    def backward_fn(o):
        dout = o.grad.transpose(1, 2, 3, 0).reshape(f, oh * row_len)
        if bn is not None:
            bn.accumulate_grad(dout.sum(axis=1, dtype=np.float64).astype(bn.dtype))
        dw_t = None                                      # dW.T, (C*kh*kw, F)
        dxp = np.zeros((c, hp, wp, n), dtype=dout.dtype) if xn is not None else None
        for r in range(0, oh, tile_rows):
            t = min(tile_rows, oh - r)
            dout_t = dout[:, r * row_len:(r + t) * row_len]
            if kn is not None:
                # cols @ dout.T, transposed once at the end, measured 14-23 %
                # faster than dout @ cols.T over the cnn5 layers.
                xp = padded(xt, stride * r, stride * (r + t - 1) + kh)   # this tile's rows
                part = np.matmul(im2col(xp, t), dout_t.T)
                if dw_t is None:
                    dw_t = part
                else:
                    dw_t += part
                del xp, part            # before the input-gradient GEMM
            if dxp is not None:
                per_tap = np.matmul(wmat.T, dout_t).reshape(c, kh * kw, t, ow, n)
                for m, (rows, columns) in enumerate(_taps(kh, kw, stride, t, ow, r)):
                    dxp[:, rows, columns] += per_tap[:, m]
                del per_tap             # before the next tile's columns
        if dw_t is not None:
            kn.accumulate_grad(dw_t.T.reshape(kn.shape))
        if dxp is not None:
            xn.accumulate_grad(dxp[:, padding:padding + h, padding:padding + w].transpose(3, 0, 1, 2),
                               owned=True)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return x._make(out, parents, backward_fn)


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max over kernel x kernel windows; zero padding (post-relu maps, or maps
    whose relu follows the pool, since zero is relu's fixed point).

    Ties within a window route the gradient to the first maximal element in
    row-major window order.  A NaN in a window gives a NaN output and routes
    no gradient.  For backward the op keeps one index per output, that
    first maximal tap (``uint8`` up to 255 taps), and its input's axis
    order, not the input.
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

    a = x.node
    if not (grad_enabled() and a is not None):
        return x._make(out, (x,), None)

    # The first maximal tap in row-major window order: walking the taps
    # backwards, each tap equal to the maximum takes its windows over, by an
    # arithmetic select (first -= (first - m) * hit).  A window no tap equals
    # (a NaN maximum) keeps len(taps), which backward matches with no tap.
    first = np.full_like(out, len(taps), dtype=np.min_scalar_type(len(taps)))
    for m in range(len(taps) - 1, -1, -1):
        d = first - m
        d *= views[m] == out
        first -= d

    order = memory_order(x.data)     # the gradient's layout; the input itself is not kept

    def backward_fn(o):
        dxp = zeros_in(order, (n, c, hp, wp), a.dtype)        # keeps no padded copy alive
        for m, (rows, cols) in enumerate(taps):
            dxp[:, :, rows, cols] += o.grad * (first == m)
        a.accumulate_grad(dxp[:, :, padding:padding + h, padding:padding + w], owned=True)

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


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = BN_MOMENTUM, eps: float = BN_EPS,
                 groups: int = 1, overwrite_input: bool = False, recompute=None) -> Tensor:
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

    ``recompute(samples)``, a callable that returns a fresh array of
    ``x[samples]``'s values, bit for bit, in ``x``'s layout, is for the
    encoders' stems: the backward rule then keeps no array of ``x``'s size.
    Training mode writes the output into the centred buffer; backward takes
    one group at a time, centres that group's ``recompute`` with the saved
    mean and writes the group's input gradient over its columns of the output
    gradient, so it holds one group's recompute beside the output gradient.
    Eval mode reads ``recompute(slice(None))`` for γ's gradient instead of
    keeping ``x``.
    """
    n, c, h, w = x.shape
    if not training:
        return _batch_norm_eval(x, gamma, beta, running_mean, running_var, eps,
                                overwrite_input, recompute)
    if n % groups:
        raise ValueError(f"batch norm cannot split {n} samples into {groups} equal groups")
    k = n // groups
    count = k * h * w
    dtype = x.dtype

    def per_group(a):
        """(C, N') per-sample sums -> (C, N'/K) per-group sums."""
        return a.reshape(c, -1, k).sum(axis=2)

    def per_sample(a):
        """(C, G) per-group values -> (C, 1, N), to scale the (C, H*W, N) maps."""
        return np.repeat(a.astype(dtype), k, axis=1)[:, None, :]

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
    out = np.multiply(centred, per_sample(scale), out=None if recompute is None else centred)
    out += beta.data[:, None, None]
    xn, gn, bn = x.node, gamma.node, beta.node
    saved = centred if recompute is None else None

    def backward_fn(o):
        dy = o.grad.transpose(1, 2, 3, 0).reshape(c, h * w, n)
        sum_dy = per_group(dy.sum(axis=1, dtype=np.float64))
        sum_dy_xhat = np.empty((c, groups))

        def block(gs, dy, centred, factor, dx):
            """Σdy·xhat of the groups ``gs`` and, written to ``dx``, their
            input gradient; ``factor`` spreads (C, G) per-group values over
            the maps, and ``centred`` is overwritten."""
            sum_dy_xhat[:, gs] = per_group(np.einsum("cpn,cpn->cn", dy, centred,
                                                     dtype=np.float64)) * inv_std[:, gs]
            if xn is not None:
                # dx = scale * (dy - mean(dy) - xhat * mean(dy * xhat)), per group
                np.multiply(centred, factor(inv_std[:, gs] * sum_dy_xhat[:, gs] / count), out=centred)
                np.subtract(dy, centred, out=dx)
                dx -= factor(sum_dy[:, gs] / count)
                dx *= factor(scale[:, gs])

        if saved is not None:   # dx over the centred buffer, which nothing reads after this
            block(slice(None), dy, saved, per_sample, saved)
        else:   # a group at a time, with the forward's bits: dx in the recompute, then over dy
            def channel(a):
                """(C, 1) values of one group -> (C, 1, 1)."""
                return a.astype(dtype)[:, :, None]

            for g in range(groups):
                samples = slice(g * k, (g + 1) * k)
                centred = recompute(samples).transpose(1, 2, 3, 0).reshape(c, h * w, k)
                centred -= channel(mean[:, g:g + 1])
                block(slice(g, g + 1), dy[:, :, samples], centred, channel, centred)
                dy[:, :, samples] = centred
                del centred     # before the next group's recompute
        if gn is not None:
            gn.accumulate_grad(sum_dy_xhat.sum(axis=1).astype(gn.dtype))
        if bn is not None:
            bn.accumulate_grad(sum_dy.sum(axis=1).astype(bn.dtype))
        if xn is not None:
            dx = dy if saved is None else saved
            xn.accumulate_grad(dx.reshape(c, h, w, n).transpose(3, 0, 1, 2), owned=True)

    return x._make(out.reshape(c, h, w, n).transpose(3, 0, 1, 2), (x, gamma, beta), backward_fn)


def _batch_norm_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                     running_mean: np.ndarray, running_var: np.ndarray, eps: float,
                     overwrite_input: bool = False, recompute=None) -> Tensor:
    """Eval-mode batch norm: the running statistics and the affine map folded
    into one per-channel scale and shift, applied in the input's layout.
    ``overwrite_input`` and ``recompute``: see :func:`batch_norm2d`; backward
    centres the input in its own buffer and writes dx over the output
    gradient."""
    dtype = x.dtype

    def per_channel(a):
        return a.astype(dtype)[None, :, None, None]

    mean = running_mean.astype(np.float64)
    inv_std = 1.0 / np.sqrt(running_var.astype(np.float64) + eps)
    scale = gamma.data.astype(np.float64) * inv_std
    out = x.data * per_channel(scale)
    out += per_channel(beta.data - mean * scale)
    xn, gn, bn = x.node, gamma.node, beta.node
    xd = x.data if gn is not None and recompute is None else None   # read by the gamma gradient only

    def backward_fn(o):
        dy = o.grad
        if gn is not None:
            xc = xd if recompute is None else recompute(slice(None))
            xc = np.subtract(xc, per_channel(mean), out=xc if overwrite_input or recompute else None)
            sum_dy_xhat = np.einsum("nchw,nchw->c", dy, xc, dtype=np.float64) * inv_std
            gn.accumulate_grad(sum_dy_xhat.astype(gn.dtype))
        if bn is not None:
            bn.accumulate_grad(dy.sum(axis=(0, 2, 3), dtype=np.float64).astype(bn.dtype))
        if xn is not None:
            xn.accumulate_grad(np.multiply(dy, per_channel(scale), out=dy), owned=True)

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

    def __call__(self, x: Tensor, recompute=None) -> Tensor:
        """``recompute``: see :func:`batch_norm2d`."""
        return batch_norm2d(
            x, self.weight, self.bias,
            self._buffers["running_mean"], self._buffers["running_var"],
            training=self.training and not self.freeze_stats, groups=self.groups(x.shape[0]),
            overwrite_input=True, recompute=recompute,
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
