"""Neural-net ops against independent loop oracles and frozen hand values."""

import math
import tracemalloc

import numpy as np
import pytest

from sliceset import nn
from sliceset.encoders import CNN5_CHANNELS
from sliceset.tensor import Tensor, concat, no_grad


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad, dtype=np.float64)


# ---------------------------------------------------------------------------
# independent oracles (deliberately written as plain nested loops)
# ---------------------------------------------------------------------------

def conv2d_loop_oracle(x, w, b, stride, padding):
    """Direct six-loop cross-correlation; the reference the fast path must match."""
    n, c, h, ww = x.shape
    f, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * padding, ww + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + ww] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for fi in range(f):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (xp[ni, ci, oi * stride + ki, oj * stride + kj]
                                        * w[fi, ci, ki, kj])
                    out[ni, fi, oi, oj] = acc + (b[fi] if b is not None else 0.0)
    return out


def conv2d_grad_loop_oracle(x, w, g, stride, padding):
    """dX, dW and db of sum(conv2d(x, w, b) * g), by scattering each output term."""
    n, c, h, ww = x.shape
    f, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * padding, ww + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + ww] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    db = np.zeros(f, dtype=x.dtype)
    for ni in range(n):
        for fi in range(f):
            for oi in range(g.shape[2]):
                for oj in range(g.shape[3]):
                    go = g[ni, fi, oi, oj]
                    db[fi] += go
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                r, s = oi * stride + ki, oj * stride + kj
                                dw[fi, ci, ki, kj] += go * xp[ni, ci, r, s]
                                dxp[ni, ci, r, s] += go * w[fi, ci, ki, kj]
    return dxp[:, :, padding:padding + h, padding:padding + ww], dw, db


def linear_loop_oracle(x, w, b):
    n, d = x.shape
    m = w.shape[0]
    out = np.zeros((n, m), dtype=x.dtype)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(d):
                acc += x[i, k] * w[j, k]
            out[i, j] = acc + (b[j] if b is not None else 0.0)
    return out


def max_pool_loop_oracle(x, kernel, stride, padding):
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    xp = np.zeros((n, c, hp, wp), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    oh = (hp - kernel) // stride + 1
    ow = (wp - kernel) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oi in range(oh):
                for oj in range(ow):
                    window = xp[ni, ci,
                                oi * stride:oi * stride + kernel,
                                oj * stride:oj * stride + kernel]
                    out[ni, ci, oi, oj] = window.max()
    return out


def max_pool_grad_loop_oracle(x, g, kernel, stride, padding):
    """Route each output gradient to its window's first maximum in row-major
    order.  A window holding a NaN has a NaN maximum, which no element
    equals: it routes nothing."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    dxp = np.zeros_like(xp)
    for ni in range(n):
        for ci in range(c):
            for oi in range(g.shape[2]):
                for oj in range(g.shape[3]):
                    window = xp[ni, ci, oi * stride:oi * stride + kernel,
                                oj * stride:oj * stride + kernel]
                    if np.isnan(window).any():
                        continue
                    best, at = None, None
                    for ki in range(kernel):
                        for kj in range(kernel):
                            v = xp[ni, ci, oi * stride + ki, oj * stride + kj]
                            if best is None or v > best:
                                best, at = v, (oi * stride + ki, oj * stride + kj)
                    dxp[ni, ci, at[0], at[1]] += g[ni, ci, oi, oj]
    return dxp[:, :, padding:padding + h, padding:padding + w]


def conv_then_bias(x, kernel, b, stride, padding):
    """conv2d, which takes no bias, then a per-filter bias ``b`` (when not
    None) added by broadcasting, as the loop oracles add it."""
    y = nn.conv2d(x, kernel, stride=stride, padding=padding)
    return y if b is None else y + b.reshape(-1, 1, 1)


@pytest.mark.parametrize("stride,padding,bias", [(1, 0, True), (2, 1, True), (1, 1, False), (3, 2, True)])
def test_conv2d_matches_loop_oracle(stride, padding, bias):
    rng = np.random.default_rng(42 + stride * 10 + padding)
    x = rng.standard_normal((2, 3, 7, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4) if bias else None
    got = conv_then_bias(t64(x), t64(w), None if b is None else t64(b), stride, padding)
    want = conv2d_loop_oracle(x, w, b, stride, padding)
    np.testing.assert_allclose(got.numpy(), want, rtol=1e-10, atol=1e-12)


def test_conv2d_1x1_kernel_matches_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 1, 1))
    got = nn.conv2d(t64(x), t64(w))
    np.testing.assert_allclose(got.numpy(), conv2d_loop_oracle(x, w, None, 1, 0),
                               rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n,c,h,w,f,k,stride,padding,bias", [
    (2, 3, 7, 8, 4, 3, 1, 0, True),
    (2, 3, 7, 8, 4, 3, 1, 1, False),
    (2, 3, 7, 8, 4, 3, 2, 1, True),
    (2, 2, 8, 7, 3, 3, 3, 2, True),
    (2, 2, 6, 5, 3, 3, 1, 3, True),
    (2, 2, 7, 7, 3, 2, 2, 0, False),
    (2, 2, 7, 9, 3, 3, 3, 3, True),
    (2, 2, 9, 8, 3, 7, 2, 3, False),     # resnet stem: 7x7, stride 2, padding 3
    (2, 4, 6, 5, 3, 1, 2, 0, False),     # resnet downsample: 1x1, stride 2
    (3, 4, 2, 2, 5, 3, 1, 1, True),      # 2x2 map
    (3, 4, 1, 1, 5, 3, 1, 1, True),      # 1x1 map
    (1, 3, 5, 9, 2, 3, 1, 1, True),      # N=1, non-square
    (1, 2, 4, 6, 3, 1, 1, 0, True),      # 1x1 kernel, stride 1
])
def test_conv2d_gradients_match_loop_oracle(n, c, h, w, f, k, stride, padding, bias):
    rng = np.random.default_rng(n * 1000 + h * 100 + k * 10 + stride + padding)
    x = t64(rng.standard_normal((n, c, h, w)), requires_grad=True)
    kernel = t64(rng.standard_normal((f, c, k, k)), requires_grad=True)
    b = t64(rng.standard_normal(f), requires_grad=True) if bias else None
    y = conv_then_bias(x, kernel, b, stride, padding)
    g = rng.standard_normal(y.shape)
    (y * t64(g)).sum().backward()
    dx, dw, db = conv2d_grad_loop_oracle(x.numpy(), kernel.numpy(), g, stride, padding)
    np.testing.assert_allclose(x.grad, dx, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(kernel.grad, dw, rtol=1e-10, atol=1e-12)
    if bias:
        np.testing.assert_allclose(b.grad, db, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# conv2d's forward builds and multiplies its columns in row tiles
# ---------------------------------------------------------------------------

def conv_gemms(monkeypatch, x, kernel, stride=1, padding=0, tile_bytes=None):
    """conv2d's forward output and the column count of each GEMM it makes,
    under a column budget of ``tile_bytes`` (the default when None)."""
    widths = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        widths.append(args[1].shape[1])
        return matmul(*args, **kwargs)

    with monkeypatch.context() as m:
        if tile_bytes is not None:
            m.setattr(nn, "CONV_TILE_BYTES", tile_bytes)
        m.setattr(nn.np, "matmul", counted)
        out = nn.conv2d(x, kernel, stride=stride, padding=padding)
    return out.numpy(), widths


TILE_CASES = [   # n, c, h, w, f, k, stride, padding
    (16, 3, 7, 8, 4, 3, 1, 0),
    (16, 3, 7, 8, 4, 3, 1, 1),
    (16, 3, 9, 8, 4, 3, 2, 1),
    (16, 2, 8, 7, 3, 3, 3, 2),
    (16, 2, 6, 5, 3, 3, 1, 3),
    (16, 2, 7, 9, 3, 3, 3, 3),
    (16, 2, 9, 8, 3, 7, 2, 3),     # resnet stem: 7x7, stride 2, padding 3
    (16, 4, 9, 5, 3, 1, 2, 0),     # resnet downsample: 1x1, stride 2
    (1, 3, 5, 9, 2, 3, 1, 1),      # N=1
    (1, 2, 11, 8, 3, 7, 2, 3),     # N=1 stem
]


@pytest.mark.parametrize("rows_per_tile", [1, 2, 3])
@pytest.mark.parametrize("n,c,h,w,f,k,stride,padding", TILE_CASES)
def test_conv2d_row_tiles_match_one_tile_and_loop_oracle(monkeypatch, rows_per_tile,
                                                         n, c, h, w, f, k, stride, padding):
    rng = np.random.default_rng(n + h * 10 + k * 100 + stride + padding)
    x = rng.standard_normal((n, c, h, w))
    kernel = rng.standard_normal((f, c, k, k))
    args = (t64(x), t64(kernel), stride, padding)
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    row_bytes = c * k * k * ow * n * 8
    one, widths = conv_gemms(monkeypatch, *args, tile_bytes=oh * row_bytes)
    assert widths == [oh * ow * n]
    # A budget below one row still gives one-row tiles; the last tile is short
    # when rows_per_tile does not divide oh.
    budget = rows_per_tile * row_bytes + row_bytes // 2 if rows_per_tile > 1 else 1
    tiled, widths = conv_gemms(monkeypatch, *args, tile_bytes=budget)
    assert widths == [min(rows_per_tile, oh - r) * ow * n for r in range(0, oh, rows_per_tile)]
    assert len(widths) > 1
    np.testing.assert_allclose(tiled[:2], conv2d_loop_oracle(x[:2], kernel, None, stride, padding),
                               rtol=1e-10, atol=1e-12)
    if n % 8 == 0:
        # Every tile is then a multiple of 8 columns wide, and OpenBLAS rounds
        # each output column alike at any GEMM width: tiling changes no bit.
        assert tiled.tobytes() == one.tobytes()
    else:
        # Narrower GEMMs take other OpenBLAS kernels, which may round differently.
        np.testing.assert_allclose(tiled, one, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("rows_per_tile", [1, 2, 3])
@pytest.mark.parametrize("n,c,h,w,f,k,stride,padding", TILE_CASES)
def test_conv2d_backward_row_tiles_match_loop_oracle(monkeypatch, rows_per_tile,
                                                     n, c, h, w, f, k, stride, padding):
    """Backward walks the forward's row tiles: one dW and one dX GEMM per tile,
    with taps of kernels taller than the stride straddling tile boundaries."""
    rng = np.random.default_rng(n + h * 10 + k * 100 + stride + padding)
    x = t64(rng.standard_normal((n, c, h, w)), requires_grad=True)
    kernel = t64(rng.standard_normal((f, c, k, k)), requires_grad=True)
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    row_bytes = c * k * k * ow * n * 8
    budget = rows_per_tile * row_bytes + row_bytes // 2 if rows_per_tile > 1 else 1
    gemms = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        gemms.append(args[0].shape)
        return matmul(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(nn, "CONV_TILE_BYTES", budget)
        m.setattr(nn.np, "matmul", counted)
        y = nn.conv2d(x, kernel, stride=stride, padding=padding)
        g = rng.standard_normal(y.shape)
        forward = len(gemms)
        (y * t64(g)).sum().backward()
    heights = [min(rows_per_tile, oh - r) for r in range(0, oh, rows_per_tile)]
    assert forward == len(heights) > 1
    # Per tile: the dW GEMM (the tile's columns times its dout.T), then dX's W.T @ dout.
    assert gemms[forward:] == [shape for t in heights
                               for shape in ((c * k * k, t * ow * n), (c * k * k, f))]
    dx, dw, _ = conv2d_grad_loop_oracle(x.numpy(), kernel.numpy(), g, stride, padding)
    np.testing.assert_allclose(x.grad, dx, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(kernel.grad, dw, rtol=1e-10, atol=1e-12)


def test_conv2d_tiles_the_cnn5_per_volume_layers_whose_columns_exceed_the_budget(monkeypatch):
    """cnn5 at width 1 on one volume's 16 slices of 32x32: blocks 1, 4 and 5
    make a single GEMM; blocks 2 and 3, with 4.5 and 2.25 MiB of columns,
    make 3 and 2 row tiles, with the bits of a single GEMM."""
    rng = np.random.default_rng(0)
    chans = (1, *CNN5_CHANNELS)
    tiles = []
    for i, size in enumerate((32, 16, 8, 4, 2)):
        x = Tensor(rng.standard_normal((16, chans[i], size, size)))
        kernel = Tensor(rng.standard_normal((chans[i + 1], chans[i], 3, 3)))
        out, widths = conv_gemms(monkeypatch, x, kernel, padding=1)
        one, _ = conv_gemms(monkeypatch, x, kernel, padding=1, tile_bytes=2 ** 40)
        assert out.tobytes() == one.tobytes()
        tiles.append(len(widths))
    assert tiles == [1, 3, 2, 1, 1]


def test_conv2d_keeps_no_padded_copy_of_its_input(monkeypatch):
    """A padded conv holds its output and no padded copy of its input, which
    backward rebuilds per tile or whole (the tile tests check its gradients)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((16, 8, 12, 12)), requires_grad=True)
    kernel = Tensor(rng.standard_normal((4, 8, 3, 3)), requires_grad=True)
    for tile_bytes in (1, nn.CONV_TILE_BYTES):
        monkeypatch.setattr(nn, "CONV_TILE_BYTES", tile_bytes)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = nn.conv2d(x, kernel, padding=1)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        padded_input = 16 * 8 * 14 * 14 * 4
        assert held < y.data.nbytes + padded_input // 2, (held, y.data.nbytes)


def test_conv2d_rejects_channel_mismatch_and_oversize_kernel():
    x = t64(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ValueError):
        nn.conv2d(x, t64(np.zeros((1, 3, 3, 3))))
    with pytest.raises(ValueError):
        nn.conv2d(x, t64(np.zeros((1, 2, 5, 5))))


def test_linear_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 7))
    w = rng.standard_normal((4, 7))
    b = rng.standard_normal(4)
    got = nn.linear(t64(x), t64(w), t64(b))
    np.testing.assert_allclose(got.numpy(), linear_loop_oracle(x, w, b), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 2, 1), (2, 1, 0)])
def test_max_pool2d_matches_loop_oracle(kernel, stride, padding):
    rng = np.random.default_rng(kernel * 7 + stride)
    x = np.abs(rng.standard_normal((2, 3, 6, 8))) + 0.1  # positive, like post-relu maps
    got = nn.max_pool2d(t64(x), kernel=kernel, stride=stride, padding=padding)
    want = max_pool_loop_oracle(x, kernel, stride, padding)
    np.testing.assert_allclose(got.numpy(), want)


def test_max_pool2d_tie_routes_gradient_to_first_maximum():
    x = t64(np.array([[[[2.0, 2.0], [0.0, 1.0]]]]), requires_grad=True)
    y = nn.max_pool2d(x, kernel=2)
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


def _pool_grad_case(x, kernel, stride, padding, seed=0):
    xt = t64(x, requires_grad=True)
    y = nn.max_pool2d(xt, kernel=kernel, stride=stride, padding=padding)
    g = np.random.default_rng(seed).standard_normal(y.shape)
    (y * t64(g)).sum().backward()
    return y.numpy(), xt.grad, max_pool_grad_loop_oracle(x, g, kernel, stride, padding)


def test_max_pool2d_gradient_overlapping_windows_with_ties_across_borders():
    # Values from {0, 1, 2} tie inside windows and on the rows and columns
    # that neighbouring 3x3 stride-2 windows share; zeros also tie with the
    # zero padding.
    x = np.random.default_rng(1).integers(0, 3, (2, 3, 7, 8)).astype(np.float64)
    y, grad, want = _pool_grad_case(x, 3, 2, 1)
    np.testing.assert_array_equal(y, max_pool_loop_oracle(x, 3, 2, 1))
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kernel,stride,h,w", [(2, 2, 7, 9), (3, 2, 8, 10), (2, 3, 7, 9)])
def test_max_pool2d_gradient_skips_rows_and_columns_outside_every_window(kernel, stride, h, w):
    x = np.abs(np.random.default_rng(2).standard_normal((2, 2, h, w))) + 0.1
    _, grad, want = _pool_grad_case(x, kernel, stride, 0)
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=0)
    assert not grad[:, :, -1, :].any() and not grad[:, :, :, -1].any()


def test_max_pool2d_constant_input_routes_every_window_to_its_first_element():
    x = np.full((1, 2, 4, 6), 0.5)
    _, grad, want = _pool_grad_case(x, 2, 2, 0)
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=0)
    routed = np.zeros_like(x, dtype=bool)
    routed[:, :, ::2, ::2] = True
    assert (grad[routed] != 0).all() and not grad[~routed].any()


def test_max_pool2d_nan_input_gives_nan_output():
    x = np.abs(np.random.default_rng(3).standard_normal((1, 1, 4, 4))) + 0.1
    x[0, 0, 1, 1] = np.nan      # last tap of the first 2x2 window
    x[0, 0, 2, 3] = np.nan      # a middle tap of the last window
    xt = t64(x, requires_grad=True)
    y = nn.max_pool2d(xt, kernel=2)
    nan = np.isnan(y.numpy())
    np.testing.assert_array_equal(nan, [[[[True, False], [False, True]]]])
    y.sum().backward()
    assert np.isnan(y.sum().item())


def test_max_pool2d_nan_at_a_windows_first_tap_routes_no_gradient_to_it():
    """A window whose maximum is NaN matches no tap, so its "no tap" index
    must not be the first tap's."""
    x = np.abs(np.random.default_rng(4).standard_normal((2, 2, 6, 6))) + 0.1
    x[0, 0, 0, 0] = np.nan          # first tap of the first window
    x[1, 1, 2, 2] = np.nan          # first tap of a middle window
    y, grad, want = _pool_grad_case(x, 2, 2, 0)
    np.testing.assert_array_equal(y, max_pool_loop_oracle(x, 2, 2, 0))
    np.testing.assert_array_equal(grad, want)
    assert not grad[0, 0, :2, :2].any() and not grad[1, 1, 2:4, 2:4].any()
    assert np.count_nonzero(grad) == y.size - 2


def test_max_pool2d_kernel_16_indexes_more_taps_than_a_byte_holds():
    """256 taps per window: first maxima at taps 0, 200, 254, 255 and past
    them, on overlapping windows, agree with the loop oracles."""
    rng = np.random.default_rng(5)
    x = rng.integers(0, 4, (1, 2, 40, 36)).astype(np.float64)
    x[0, 0, :16, :16] = 9.0                  # a tie over the whole window: tap 0
    x[0, 1, 12, 8] = x[0, 1, 15, 14] = 9.0   # taps 200 and 254 of window (0, 0)
    x[0, 1, 15, 15] = 10.0                   # tap 255 of window (0, 0)
    x[0, 1, 39, 35] = 11.0                   # the last tap of the last window
    y, grad, want = _pool_grad_case(x, 16, 4, 0)
    np.testing.assert_array_equal(y, max_pool_loop_oracle(x, 16, 4, 0))
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=0)
    assert grad[0, 1, 15, 15] != 0 and grad[0, 1, 39, 35] != 0


def test_max_pool2d_keeps_one_byte_per_pooled_output():
    """A training forward on a (128, 32, 32, 32) batch-innermost input holds
    its output and one tap index per pooled output for backward (boolean
    masks, one per tap, held 4 bytes)."""
    data = np.empty((32, 32, 32, 128), dtype=np.float32).transpose(3, 0, 1, 2)
    data[...] = np.random.default_rng(6).standard_normal(data.shape, dtype=np.float32)
    x = Tensor(data, requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y = nn.max_pool2d(x, 2, 2)
        held = tracemalloc.get_traced_memory()[0] - base - y.data.nbytes
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * y.data.size, held / y.data.size


def test_global_avg_pool2d_values_and_gradient():
    x = t64(np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2), requires_grad=True)
    y = nn.global_avg_pool2d(x)
    np.testing.assert_allclose(y.numpy(), [[1.5, 5.5]])
    y.sum().backward()
    np.testing.assert_allclose(x.grad, np.full((1, 2, 2, 2), 0.25))


def test_pad2d_places_content_and_gradient_slices_back():
    x = t64(np.ones((1, 1, 2, 2)), requires_grad=True)
    y = nn.pad2d(x, 1)
    assert y.shape == (1, 1, 4, 4)
    assert float(y.numpy().sum()) == 4.0
    (y * 3.0).sum().backward()
    np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 3.0))


LAYOUTS = {
    "c_contiguous": np.ascontiguousarray,
    "batch_innermost": lambda a: np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2),
}


def is_batch_innermost(a):
    """Whether the (N, C, H, W) array ``a`` is laid out as (C, H, W, N) memory."""
    return a.strides[0] == a.itemsize and a.strides[1] > a.strides[2] > a.strides[3] > a.strides[0]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kernel,stride,padding", [
    (2, 2, (0, 1, 0, 1)),       # cnn5's pad to even
    (2, 2, (1, 0, 2, 1)),
    (3, 2, 1),                  # the resnet stem's pool
    (3, 1, (2, 0, 0, 1)),
    (2, 2, 0),
])
def test_max_pool2d_padding_matches_pad2d_then_max_pool2d_bit_for_bit(layout, kernel, stride,
                                                                       padding):
    """A pool's own padding gives pad2d followed by an unpadded pool: the
    same values and the same input gradient, bit for bit, with windows tied
    with each other and with the zero padding, and windows holding NaN.
    The input gradient is laid out batch-innermost whatever the input's
    layout."""
    rng = np.random.default_rng(8)
    x = rng.integers(-1, 2, (3, 2, 7, 9)).astype(np.float32)
    x[0, 0, 0, 0] = x[2, 1, 3, 4] = np.nan
    data = LAYOUTS[layout](x)
    xt, ref = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
    y = nn.max_pool2d(xt, kernel, stride, padding)
    want = nn.max_pool2d(nn.pad2d(ref, padding), kernel, stride)
    g = Tensor(rng.standard_normal(y.shape).astype(np.float32))
    (y * g).sum().backward()
    (want * g).sum().backward()
    assert np.isnan(y.numpy()).any()
    assert y.numpy().tobytes() == want.numpy().tobytes()
    assert xt.grad.tobytes() == ref.grad.tobytes()
    assert is_batch_innermost(xt.grad)


@pytest.mark.parametrize("call,message", [
    (lambda x, k: nn.max_pool2d(x, 0), "kernel and stride must be >= 1"),
    (lambda x, k: nn.max_pool2d(x, 2, stride=0), "kernel and stride must be >= 1"),
    (lambda x, k: nn.max_pool2d(x, 2, 2, padding=-1), "pad amounts must be non-negative"),
    (lambda x, k: nn.max_pool2d(x, 2, 2, padding=(0, 1, -1, 0)), "pad amounts must be non-negative"),
    (lambda x, k: nn.pad2d(x, (0, 0, 0, -2)), "pad amounts must be non-negative"),
    (lambda x, k: nn.conv2d(x, k, padding=-1), "conv2d padding must be >= 0"),
], ids=["pool-kernel-0", "pool-stride-0", "pool-padding-negative", "pool-pads-negative",
        "pad2d-negative", "conv-padding-negative"])
def test_bad_pool_and_conv_arguments_raise_value_errors(call, message):
    x = t64(np.ones((1, 2, 6, 6)))
    with pytest.raises(ValueError, match=message):
        call(x, t64(np.ones((3, 2, 3, 3))))


@pytest.mark.parametrize("pool,stride,padding,message", [
    (0, 2, 0, "kernel and stride must be >= 1"),
    (2, 0, 0, "kernel and stride must be >= 1"),
    (2, 2, -1, "pad amounts must be non-negative"),
    (2, 2, (0, -1, 0, 1), "pad amounts must be non-negative"),
])
def test_stem_op_rejects_bad_pool_arguments(pool, stride, padding, message):
    conv, bn = nn.Conv2d(1, 2, 3, padding=1), nn.BatchNorm2d(2)
    with pytest.raises(ValueError, match=message):
        nn.conv_bn_pool_relu(Tensor(np.ones((2, 1, 6, 6))), conv, bn, pool, stride, padding)


# ---------------------------------------------------------------------------
# frozen hand values
# ---------------------------------------------------------------------------

def test_layer_norm_frozen_value():
    x = t64([[1.0, 2.0, 3.0]])
    got = nn.layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)))
    # hand oracle: mean 2, var 2/3 -> (x-2)/sqrt(2/3) = ±1.224745, 0
    np.testing.assert_allclose(got.numpy()[0], [-1.2247, 0.0, 1.2247], atol=1e-3)


def test_layer_norm_matches_hand_formula_exactly():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 6))
    g = rng.standard_normal(6)
    o = rng.standard_normal(6)
    got = nn.layer_norm(t64(x), t64(g), t64(o)).numpy()
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    want = g * (x - mean) / np.sqrt(var + nn.LN_EPS) + o
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_cross_entropy_equal_logits_is_ln2():
    logits = t64([[0.7, 0.7]])
    for label in (0, 1):
        loss = nn.cross_entropy(logits, np.array([label], dtype=np.int64))
        assert loss.item() == pytest.approx(math.log(2.0), rel=1e-12)


def test_cross_entropy_matches_log_softmax_oracle():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    got = nn.cross_entropy(t64(logits), labels.astype(np.int64)).item()
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    want = -logp[np.arange(6), labels].mean()
    assert got == pytest.approx(want, rel=1e-12)


def test_cross_entropy_rejects_out_of_range_labels():
    logits = t64([[0.0, 1.0]])
    with pytest.raises(ValueError):
        nn.cross_entropy(logits, np.array([2], dtype=np.int64))
    with pytest.raises(ValueError):
        nn.cross_entropy(logits, np.array([-1], dtype=np.int64))


def test_l1_and_mse_frozen_values():
    pred = t64([3.0, 5.0])
    target = t64([1.0, 5.0])
    assert nn.l1_loss(pred, target).item() == pytest.approx(1.0)
    assert nn.mse_loss(pred, target).item() == pytest.approx(2.0)


def test_softmax_rows_stochastic_and_shift_invariant():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 7))
    p = nn.softmax(t64(x), axis=-1).numpy()
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)
    assert (p > 0).all()
    p_shift = nn.softmax(t64(x + 123.0), axis=-1).numpy()
    np.testing.assert_allclose(p, p_shift, rtol=1e-9)


def test_softmax_extreme_logits_stay_finite():
    p = nn.softmax(t64([[1000.0, 0.0, -1000.0]])).numpy()
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(1.0)


def test_relu_clamps_and_masks_gradient():
    x = t64([-2.0, 0.0, 3.0], requires_grad=True)
    y = nn.relu(x)
    np.testing.assert_allclose(y.numpy(), [0.0, 0.0, 3.0])
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])


def test_relu_after_max_pool_matches_relu_before_it():
    """cnn5 pools before its relu.  Max and relu commute and zero padding is
    relu's fixed point, so the output keeps every bit and the input gradient
    every value, with ties, exact zeros, -0.0 and windows with no positive
    entry (a zero gradient may change its sign)."""
    rng = np.random.default_rng(0)
    values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], dtype=np.float32)
    x = rng.choice(values, size=(3, 2, 7, 9))
    x[0, 0, :2, :2] = -1.0                         # all negative
    x[0, 1, :2, :2] = -0.0
    x[1, 0, :2, :2] = [[-1.0, 0.0], [-2.0, 0.0]]   # maximum 0, not at the first tap
    x[1, 1, :2, :2] = [[-0.0, 0.0], [0.0, -0.0]]
    x[2, 0, :2, :2] = 2.0                          # tie at a positive maximum
    g = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)

    def run(pool_first):
        xt = Tensor(x, requires_grad=True)
        if pool_first:
            y = nn.relu(nn.max_pool2d(nn.pad2d(xt, (0, 1, 0, 1)), 2, 2))
        else:
            y = nn.max_pool2d(nn.pad2d(nn.relu(xt), (0, 1, 0, 1)), 2, 2)
        (y * Tensor(g)).sum().backward()
        return y.numpy(), xt.grad

    y, dx = run(pool_first=True)
    y_want, dx_want = run(pool_first=False)
    assert y.tobytes() == y_want.tobytes()
    np.testing.assert_array_equal(dx, dx_want)


def test_relu_after_padded_max_pool_matches_relu_before_it():
    """The resnet stem's 3x3 stride-2 pool with zero padding 1, before its
    relu: output bits and input-gradient values equal relu then pool, on
    border windows that reach into the padding, all-negative windows (whose
    maximum is a padding zero or a negative), ties and ±0.0, in the loop
    oracles' order too."""
    rng = np.random.default_rng(1)
    values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], dtype=np.float32)
    x = rng.choice(values, size=(3, 2, 8, 9))
    x[0, 0, :3, :] = -1.0                          # border windows with no positive entry
    x[0, 1, 2:5, 2:5] = -2.0                       # an inner window with no positive entry
    x[1, 0, :4, :4] = np.tile([[-0.0, 0.0], [0.0, -0.0]], (2, 2))
    x[2, 0, 1:4, 1:4] = 2.0                        # ties at a positive maximum
    g = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)

    def run(pool_first):
        xt = Tensor(x, requires_grad=True)
        if pool_first:
            y = nn.relu(nn.max_pool2d(xt, 3, 2, padding=1))
        else:
            y = nn.max_pool2d(nn.relu(xt), 3, 2, padding=1)
        (y * Tensor(g)).sum().backward()
        return y.numpy(), xt.grad

    y, dx = run(pool_first=True)
    y_want, dx_want = run(pool_first=False)
    relu_x = np.maximum(x, 0)
    assert y.tobytes() == y_want.tobytes()
    np.testing.assert_array_equal(y, max_pool_loop_oracle(relu_x, 3, 2, 1))
    np.testing.assert_array_equal(dx, dx_want)
    np.testing.assert_array_equal(dx, max_pool_grad_loop_oracle(relu_x, g, 3, 2, 1) * (x > 0))


# ---------------------------------------------------------------------------
# batch norm semantics
# ---------------------------------------------------------------------------

def bn_case(c=3, n=2, h=4, w=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w))
    gamma = rng.standard_normal(c)
    beta = rng.standard_normal(c)
    return x, gamma, beta


def test_batch_norm_train_normalizes_by_batch_moments():
    x, gamma, beta = bn_case()
    rm = np.zeros(3, dtype=np.float64)
    rv = np.ones(3, dtype=np.float64)
    got = nn.batch_norm2d(t64(x), t64(gamma), t64(beta), rm, rv, training=True).numpy()
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    want = (gamma[:, None, None] * (x - mean[:, None, None]) / np.sqrt(var + nn.BN_EPS)[:, None, None]
            + beta[:, None, None])
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_batch_norm_running_stats_hand_oracle():
    x, gamma, beta = bn_case(seed=1)
    rm = np.zeros(3, dtype=np.float64)
    rv = np.ones(3, dtype=np.float64)
    nn.batch_norm2d(t64(x), t64(gamma), t64(beta), rm, rv, training=True)
    mean = x.mean(axis=(0, 2, 3))
    count = x.shape[0] * x.shape[2] * x.shape[3]
    unbiased = x.var(axis=(0, 2, 3)) * count / (count - 1)
    np.testing.assert_allclose(rm, 0.1 * mean, rtol=1e-9)
    np.testing.assert_allclose(rv, 0.9 * 1.0 + 0.1 * unbiased, rtol=1e-9)


def test_batch_norm_eval_uses_running_buffers_only():
    x, gamma, beta = bn_case(seed=2)
    rm = np.full(3, 0.5, dtype=np.float64)
    rv = np.full(3, 2.0, dtype=np.float64)
    got = nn.batch_norm2d(t64(x), t64(gamma), t64(beta), rm, rv, training=False).numpy()
    want = (gamma[:, None, None] * (x - 0.5) / np.sqrt(2.0 + nn.BN_EPS) + beta[:, None, None])
    np.testing.assert_allclose(got, want, rtol=1e-9)
    # buffers untouched in eval mode
    np.testing.assert_allclose(rm, 0.5)
    np.testing.assert_allclose(rv, 2.0)


def batch_innermost(x):
    """``x`` with the (C, H, W, N) memory layout conv2d gives its output."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, batch_innermost])
@pytest.mark.parametrize("groups", [1, 3])
def test_grouped_batch_norm_matches_one_call_per_group(layout, groups):
    """Each group of consecutive samples is normalized by its own moments, and
    the running buffers see one update per group, in order."""
    k, c, h, w = 4, 3, 5, 6
    rng = np.random.default_rng(groups)
    x = layout(rng.standard_normal((groups * k, c, h, w)) * 2.0
               + rng.standard_normal((groups * k, 1, 1, 1)))
    gamma, beta = rng.standard_normal(c), rng.standard_normal(c)
    g = rng.standard_normal(x.shape)
    start_mean, start_var = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)

    def run(lo, hi, rm, rv, groups=1):
        xt, gt, bt = t64(x[lo:hi], True), t64(gamma, True), t64(beta, True)
        y = nn.batch_norm2d(xt, gt, bt, rm, rv, training=True, groups=groups)
        (y * t64(g[lo:hi])).sum().backward()
        return y.numpy(), xt.grad, gt.grad, bt.grad

    rm, rv = start_mean.copy(), start_var.copy()
    y, dx, dgamma, dbeta = run(0, groups * k, rm, rv, groups)
    want_mean, want_var = start_mean.copy(), start_var.copy()
    dgamma_want, dbeta_want = np.zeros(c), np.zeros(c)
    for lo in range(0, groups * k, k):
        yi, dxi, dgi, dbi = run(lo, lo + k, want_mean, want_var)
        np.testing.assert_allclose(y[lo:lo + k], yi, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx[lo:lo + k], dxi, rtol=1e-10, atol=1e-12)
        dgamma_want += dgi
        dbeta_want += dbi
    np.testing.assert_allclose(dgamma, dgamma_want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(dbeta, dbeta_want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(rm, want_mean, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(rv, want_var, rtol=1e-12, atol=1e-14)
    if groups > 1:
        # Another update order leaves other buffers, so the order is pinned.
        rev_mean, rev_var = start_mean.copy(), start_var.copy()
        for lo in reversed(range(0, groups * k, k)):
            run(lo, lo + k, rev_mean, rev_var)
        assert np.abs(rev_mean - rm).max() > 1e-6


def test_grouped_batch_norm_rejects_unequal_groups_and_leaves_eval_alone():
    x, gamma, beta = bn_case(n=4)
    with pytest.raises(ValueError, match="cannot split 4 samples into 3 equal groups"):
        nn.batch_norm2d(t64(x), t64(gamma), t64(beta), np.zeros(3), np.ones(3), training=True,
                        groups=3)
    grouped = nn.batch_norm2d(t64(x), t64(gamma), t64(beta), np.zeros(3), np.ones(3),
                              training=False, groups=3).numpy()
    plain = nn.batch_norm2d(t64(x), t64(gamma), t64(beta), np.zeros(3), np.ones(3),
                            training=False).numpy()
    assert grouped.tobytes() == plain.tobytes()


@pytest.mark.parametrize("layout", [np.ascontiguousarray, batch_innermost])
@pytest.mark.parametrize("groups", [1, 3])
def test_batch_norm_overwriting_its_input_matches_the_copying_path_bit_for_bit(layout, groups):
    """``overwrite_input`` only moves the centred input into the input's own
    buffer, where training-mode backward then writes the input gradient and
    eval-mode backward centres the input by the running mean: output,
    gradients and running buffers keep every bit.  Without it the input is
    never written, in training or eval mode; checks.py's gradient suite
    reuses one input leaf across calls."""
    k, c, h, w = 4, 3, 5, 6
    rng = np.random.default_rng(10 + groups)
    x = layout((rng.standard_normal((groups * k, c, h, w)) * 2.0 + 1.0).astype(np.float32))
    gamma, beta = rng.standard_normal((2, c)).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    start_mean, start_var = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)

    def run(overwrite, training=True):
        xt = Tensor(x.copy(order="K"), requires_grad=True)
        gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
        rm, rv = start_mean.astype(np.float32), start_var.astype(np.float32)
        y = nn.batch_norm2d(xt, gt, bt, rm, rv, training=training, groups=groups,
                            overwrite_input=overwrite)
        after_forward = xt.data.copy(order="K")
        (y * Tensor(g)).sum().backward()
        return after_forward, xt.data, [a.tobytes() for a in (y.numpy(), xt.grad, gt.grad, bt.grad, rm, rv)]

    _, untouched, copying = run(False)
    assert untouched.tobytes() == x.tobytes()
    overwritten, _, in_place = run(True)
    assert in_place == copying
    if layout is batch_innermost:                 # a conv output's memory: centred in place
        mean = x.reshape(groups, k, c, h * w).mean(axis=(1, 3), dtype=np.float64)
        want = x - np.repeat(mean, k, axis=0).astype(np.float32)[:, :, None, None]
        np.testing.assert_allclose(overwritten, want, rtol=1e-6, atol=1e-6)
    forward, untouched, copying = run(False, training=False)
    assert forward.tobytes() == untouched.tobytes() == x.tobytes()
    forward, centred, in_place = run(True, training=False)
    assert in_place == copying
    assert forward.tobytes() == x.tobytes()       # eval mode's forward reads its input only
    want = x - start_mean.astype(np.float32)[None, :, None, None]
    assert centred.tobytes() == want.tobytes()    # backward centres it for the gamma gradient


@pytest.mark.parametrize("mode", ["training", "eval"])
def test_batch_norm_module_centres_its_conv_output_in_place_bit_for_bit(mode):
    """A BatchNorm2d module owns its input, a conv output that nothing else
    reads: in training mode its forward centres that output in the output's
    own buffer (per group of ``group_size`` samples), and output, running
    buffers and every gradient equal the functional op's copying path bit
    for bit."""
    rng = np.random.default_rng(23)
    x = rng.standard_normal((6, 2, 7, 5)).astype(np.float32)
    g = rng.standard_normal((6, 3, 7, 5)).astype(np.float32)
    conv, bn = nn.Conv2d(2, 3, 3, padding=1), nn.BatchNorm2d(3)
    conv.weight.data = rng.normal(0, 0.3, conv.weight.shape).astype(np.float32)
    bn.weight.data = rng.uniform(0.5, 1.5, 3).astype(np.float32)
    bn.bias.data = rng.normal(0, 0.5, 3).astype(np.float32)
    start = rng.normal(0, 0.2, 3).astype(np.float32), rng.uniform(0.5, 2.0, 3).astype(np.float32)
    bn.group_size = 2
    bn.train(mode == "training")

    def step(norm):
        conv.zero_grad()
        bn.zero_grad()
        bn.running_mean[...], bn.running_var[...] = start
        xt = Tensor(x, requires_grad=True)
        out = conv(xt)
        conv_output = out.data.copy(order="K")
        y = norm(out)
        after_forward = out.data.copy(order="K")
        (y * Tensor(g)).sum().backward()
        return conv_output, after_forward, [a.tobytes() for a in (
            y.numpy(), xt.grad, conv.weight.grad, bn.weight.grad, bn.bias.grad,
            bn.running_mean, bn.running_var)]

    def copying(out):
        return nn.batch_norm2d(out, bn.weight, bn.bias, bn.running_mean, bn.running_var,
                               training=bn.training, groups=bn.groups(out.shape[0]))

    conv_output, untouched, want = step(copying)
    assert untouched.tobytes() == conv_output.tobytes()
    _, centred, got = step(bn)
    assert got == want
    if mode == "training":
        mean = conv_output.reshape(3, 2, 3, -1).mean(axis=(1, 3), dtype=np.float64)
        np.testing.assert_allclose(
            centred, conv_output - np.repeat(mean, 2, axis=0).astype(np.float32)[:, :, None, None],
            rtol=1e-6, atol=1e-6)
        assert np.abs(centred - conv_output).max() > 1e-3
    else:                               # eval mode's forward only reads its input
        assert centred.tobytes() == conv_output.tobytes()


def test_batch_norm_module_rejects_a_training_batch_of_partial_groups():
    bn = nn.BatchNorm2d(3)
    bn.group_size = 4
    x = bn_case(n=6)[0]
    with pytest.raises(ValueError, match="cannot split 6 samples into groups of 4"):
        bn(t64(x))
    assert bn.groups(8) == 2
    bn.freeze_stats = True                  # frozen statistics and eval mode normalize
    assert bn.groups(6) == 1                # the batch as one group
    bn.freeze_stats = False
    assert bn.eval().groups(6) == 1
    bn(t64(x))


def test_batch_norm_module_freeze_stats_pins_buffers():
    m = nn.BatchNorm2d(2)
    m.train()
    x = t64(np.random.default_rng(0).standard_normal((2, 2, 3, 3)))
    m(x)
    after_first = m._buffers["running_mean"].copy()
    m.freeze_stats = True
    m(x)
    np.testing.assert_array_equal(m._buffers["running_mean"], after_first)


# ---------------------------------------------------------------------------
# composite finite-difference check: conv -> relu -> pool -> linear -> ce
# ---------------------------------------------------------------------------

# Central differences only measure a derivative where the function is smooth
# across the whole step.  These seeds probe points where no pooling argmax
# switches within +/-1e-3; seeds that land a probe on a near-tied pool window
# measure the kink instead and are excluded up front.
@pytest.mark.parametrize("seed", [0, 2, 4, 5, 8, 9])
def test_composite_network_gradients_match_central_differences(seed):
    rng = np.random.default_rng(seed)
    x = t64(rng.standard_normal((2, 1, 8, 8)))
    # Biases split to +/-2.5 park every relu firmly on or firmly off, so the
    # 1e-3 step measures the derivative instead of an activation flip; the
    # off half still exercises the zero-gradient mask path.
    w1 = t64(rng.standard_normal((4, 1, 3, 3)) * 0.2, requires_grad=True)
    b1 = t64(np.array([2.5, -2.5, 2.5, -2.5]), requires_grad=True)
    w2 = t64(rng.standard_normal((3, 4 * 3 * 3)) * 0.5, requires_grad=True)
    b2 = t64(rng.standard_normal(3) * 0.5, requires_grad=True)
    labels = np.array([0, 2], dtype=np.int64)
    params = [w1, b1, w2, b2]

    def f():
        h1 = nn.relu(nn.conv2d(x, w1) + b1.reshape(4, 1, 1))
        h2 = nn.max_pool2d(h1, kernel=2)
        flat = h2.reshape(2, 4 * 3 * 3)
        logits = nn.linear(flat, w2, b2)
        return nn.cross_entropy(logits, labels)

    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    grads = [p.grad.copy() for p in params]

    h = 1e-3
    worst = 0.0
    with no_grad():
        for p, g in zip(params, grads):
            flat_size = int(np.prod(p.shape))
            for k in range(0, flat_size, max(1, flat_size // 6)):
                idx = np.unravel_index(k, p.shape)
                orig = p.data[idx]
                p.data[idx] = orig + h
                fp = f().item()
                p.data[idx] = orig - h
                fm = f().item()
                p.data[idx] = orig
                numeric = (fp - fm) / (2 * h)
                rel = abs(float(g[idx]) - numeric) / (abs(float(g[idx])) + 1e-6)
                worst = max(worst, rel)
    assert worst < 1e-3, f"composite FD mismatch: {worst:.3e}"


def test_softmax_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    x = t64(rng.standard_normal((3, 5)), requires_grad=True)
    weights = t64(rng.standard_normal((3, 5)))

    def f():
        return (nn.softmax(x, axis=-1) * weights).sum()

    loss = f()
    loss.backward()
    g = x.grad.copy()
    h = 1e-3
    with no_grad():
        for idx in [(0, 0), (1, 3), (2, 4)]:
            orig = x.data[idx]
            x.data[idx] = orig + h
            fp = f().item()
            x.data[idx] = orig - h
            fm = f().item()
            x.data[idx] = orig
            numeric = (fp - fm) / (2 * h)
            rel = abs(float(g[idx]) - numeric) / (abs(float(g[idx])) + 1e-6)
            assert rel < 1e-3


# ---------------------------------------------------------------------------
# the encoders' stem op against the separate ops it replaces
# ---------------------------------------------------------------------------

# (conv kernel, stride, padding; pool, stride, padding; slice extent)
STEMS = {
    "cnn5": ((3, 1, 1), (2, 2, (0, 1, 0, 1)), (9, 7)),    # odd maps padded to even
    "resnet": ((7, 2, 3), (3, 2, 1), (11, 10)),
}


def stem_modules(kind, mode, rng):
    (k, stride, padding), _, _ = STEMS[kind]
    conv, bn = nn.Conv2d(1, 4, k, stride=stride, padding=padding), nn.BatchNorm2d(4)
    conv.weight.data = rng.normal(0, 0.3, conv.weight.shape).astype(np.float32)
    bn.weight.data = rng.uniform(0.5, 1.5, 4).astype(np.float32)
    bn.bias.data = rng.normal(0, 0.5, 4).astype(np.float32)
    bn.running_mean[...] = rng.normal(0, 0.2, 4)
    bn.running_var[...] = rng.uniform(0.5, 2.0, 4)
    bn.group_size = 2                          # slices per volume
    bn.freeze_stats = mode == "frozen"
    bn.train(mode != "eval")
    return conv, bn


def separate_stem(pieces, kernels, conv, bn, pool):
    """relu(max_pool2d(pad(batch_norm2d(conv2d(x))))) with one conv call per
    (input, kernel) pair, joined, and the functional, copying batch norm."""
    k, stride, padding = pool
    outs = [nn.conv2d(x, w, stride=conv.stride, padding=conv.padding)
            for x, w in zip(pieces, kernels)]
    y = concat(outs)
    y = nn.batch_norm2d(y, bn.weight, bn.bias, bn.running_mean, bn.running_var,
                        training=bn.training and not bn.freeze_stats, groups=bn.groups(y.shape[0]))
    if not isinstance(padding, int):
        y, padding = nn.pad2d(y, padding), 0
    return nn.relu(nn.max_pool2d(y, k, stride, padding))


@pytest.mark.parametrize("volumes", [1, 3])
@pytest.mark.parametrize("mode", ["training", "frozen", "eval"])
@pytest.mark.parametrize("kind", ["cnn5", "resnet"])
def test_stem_op_matches_the_separate_ops_per_volume(kind, mode, volumes):
    """The stem op against per-group conv calls, grouped ``batch_norm2d``,
    padding, ``max_pool2d`` and ``relu``: output, running statistics, γ's,
    β's and the slices' gradients are bit-equal, and the kernel gradient is
    the float32 sum of the per-group kernel gradients, in order, bit for
    bit; it stays within 1e-6 of one whole-batch conv's.  With one
    batch-norm group (one volume, frozen statistics or eval mode) the
    whole-batch composition matches every bit."""
    _, pool, (h, w) = STEMS[kind]
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, (2 * volumes, 1, h, w)).astype(np.float32)
    g = None
    seed = int(rng.integers(1 << 30))

    def run(split):
        """Output bytes and the kernels' gradients of the op (split None) or
        of the separate ops with ``split`` conv calls."""
        nonlocal g
        conv, bn = stem_modules(kind, mode, np.random.default_rng(seed))
        share = x.shape[0] // (split or 1)
        pieces = [Tensor(x[s:s + share], requires_grad=True) for s in range(0, x.shape[0], share)]
        if split is None:
            kernels = [conv.weight]
            y = nn.conv_bn_pool_relu(pieces[0], conv, bn, *pool)
        else:
            kernels = [Tensor(conv.weight.data.copy(), requires_grad=True) for _ in pieces]
            y = separate_stem(pieces, kernels, conv, bn, pool)
        if g is None:
            g = rng.normal(0, 1, y.shape).astype(np.float32)
        (y * Tensor(g)).sum().backward()
        got = {"y": y.numpy(), "dx": np.concatenate([p.grad for p in pieces]),
               "dgamma": bn.weight.grad, "dbeta": bn.bias.grad,
               "mean": bn.running_mean, "var": bn.running_var}
        return {k: v.tobytes() for k, v in got.items()}, [w.grad for w in kernels]

    op, (kernel_grad,) = run(None)
    groups = volumes if mode == "training" else 1
    separate, group_grads = run(groups)
    assert op == separate
    summed = group_grads[0].copy()
    for grad in group_grads[1:]:
        summed += grad
    assert kernel_grad.tobytes() == summed.tobytes()
    whole, (whole_kernel_grad,) = run(1)
    if groups == 1:
        assert whole == op and whole_kernel_grad.tobytes() == kernel_grad.tobytes()
    else:
        np.testing.assert_allclose(kernel_grad, whole_kernel_grad, rtol=1e-6,
                                   atol=1e-6 * np.abs(whole_kernel_grad).max())


def test_stem_op_routes_no_gradient_through_a_zero_maximum():
    """Relu's mask lives in the stem op's tap index: a window whose maximum
    is exactly zero routes nothing, as relu's own mask (``out > 0``) does.
    Zero slices with a zero shift in eval mode make every window's maximum
    a real zero."""
    conv, bn = stem_modules("cnn5", "eval", np.random.default_rng(0))
    bn.bias.data[...] = 0.0
    bn.running_mean[...] = 0.0
    x = Tensor(np.zeros((2, 1, 9, 7), np.float32), requires_grad=True)
    y = nn.conv_bn_pool_relu(x, conv, bn, *STEMS["cnn5"][1])
    (y * Tensor(np.ones(y.shape, np.float32))).sum().backward()
    assert not y.numpy().any()
    for grad in (x.grad, conv.weight.grad, bn.weight.grad, bn.bias.grad):
        assert not grad.any()
