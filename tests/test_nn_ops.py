"""Neural-net ops against independent loop oracles and frozen hand values."""

import math

import numpy as np
import pytest

from sliceset import nn
from sliceset.tensor import Tensor, no_grad


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
    """Route each output gradient to its window's first maximum in row-major order."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    dxp = np.zeros_like(xp)
    for ni in range(n):
        for ci in range(c):
            for oi in range(g.shape[2]):
                for oj in range(g.shape[3]):
                    best, at = None, None
                    for ki in range(kernel):
                        for kj in range(kernel):
                            v = xp[ni, ci, oi * stride + ki, oj * stride + kj]
                            if best is None or v > best:
                                best, at = v, (oi * stride + ki, oj * stride + kj)
                    dxp[ni, ci, at[0], at[1]] += g[ni, ci, oi, oj]
    return dxp[:, :, padding:padding + h, padding:padding + w]


@pytest.mark.parametrize("stride,padding,bias", [(1, 0, True), (2, 1, True), (1, 1, False), (3, 2, True)])
def test_conv2d_matches_loop_oracle(stride, padding, bias):
    rng = np.random.default_rng(42 + stride * 10 + padding)
    x = rng.standard_normal((2, 3, 7, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4) if bias else None
    got = nn.conv2d(t64(x), t64(w), None if b is None else t64(b),
                    stride=stride, padding=padding)
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
    y = nn.conv2d(x, kernel, b, stride=stride, padding=padding)
    g = rng.standard_normal(y.shape)
    (y * t64(g)).sum().backward()
    dx, dw, db = conv2d_grad_loop_oracle(x.numpy(), kernel.numpy(), g, stride, padding)
    np.testing.assert_allclose(x.grad, dx, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(kernel.grad, dw, rtol=1e-10, atol=1e-12)
    if bias:
        np.testing.assert_allclose(b.grad, db, rtol=1e-10, atol=1e-12)


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
    nn.batch_norm2d(t64(x), t64(gamma), t64(beta), rm, rv, training=True, momentum=0.1)
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
        h1 = nn.relu(nn.conv2d(x, w1, b1))
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
