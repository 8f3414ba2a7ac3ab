"""Reverse-mode autodiff engine: graph mechanics, hand oracles, FD spot checks."""

import types
import weakref

import numpy as np
import pytest

from sliceset import nn
from sliceset.checks import gradient_suite
from sliceset.data import SyntheticSpec, generate_synthetic
from sliceset.encoders import EncoderConfig
from sliceset.model import AggregatorConfig, ModelConfig, build_model
from sliceset.tensor import Node, Tensor, no_grad, grad_enabled, stack
from sliceset.train import batch_loss, he_init


def scalar(value, requires_grad=True):
    return Tensor(np.float64(value), requires_grad=requires_grad, dtype=np.float64)


def test_add_mul_hand_oracle():
    # f(a, b) = (a + b) * b, df/da = b, df/db = a + 2b
    a = scalar(2.0)
    b = scalar(3.0)
    f = (a + b) * b
    f.backward()
    assert f.item() == 15.0
    assert a.grad == pytest.approx(3.0)
    assert b.grad == pytest.approx(8.0)


def test_reused_node_accumulates_both_paths():
    # Diamond: y = x*x + x -> dy/dx = 2x + 1
    x = scalar(4.0)
    y = x * x + x
    y.backward()
    assert x.grad == pytest.approx(9.0)


def test_deep_chain_does_not_recurse():
    # 5000 adds would overflow a recursive backward; topological order must be iterative.
    x = scalar(1.0)
    y = x
    for _ in range(5000):
        y = y + x
    y.backward()
    assert x.grad == pytest.approx(5001.0)


def test_pow_and_div():
    x = scalar(3.0)
    y = (x ** 3) / 9.0
    y.backward()
    assert y.item() == pytest.approx(3.0)
    assert x.grad == pytest.approx(3.0)  # 3x^2/9 = x^2/3


def test_abs_gradient_sign():
    x = Tensor(np.array([-2.0, 0.5, 0.0]), requires_grad=True, dtype=np.float64)
    y = x.abs().sum()
    y.backward()
    np.testing.assert_allclose(x.grad, [-1.0, 1.0, 0.0])


def test_sub_and_neg():
    a = scalar(5.0)
    b = scalar(2.0)
    y = (a - b) + (-b)
    y.backward()
    assert y.item() == pytest.approx(1.0)
    assert a.grad == pytest.approx(1.0)
    assert b.grad == pytest.approx(-2.0)


def test_rsub_constant():
    x = scalar(2.0)
    y = 10.0 - x
    y.backward()
    assert y.item() == pytest.approx(8.0)
    assert x.grad == pytest.approx(-1.0)


def test_matmul_gradients_match_transpose_rule():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True, dtype=np.float64)
    y = a.matmul(b).sum()
    y.backward()
    ones = np.ones((3, 2))
    np.testing.assert_allclose(a.grad, ones @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ ones)


def test_broadcast_add_unbroadcasts_gradient():
    a = Tensor(np.zeros((3, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(np.ones(4), requires_grad=True, dtype=np.float64)
    y = (a + b).sum()
    y.backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    np.testing.assert_allclose(b.grad, 3.0)


def test_mean_gradient_is_uniform():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True, dtype=np.float64)
    x.mean().backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0))


def test_sum_axis_keepdims():
    x = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
    y = x.sum(axis=1, keepdims=True)
    assert y.shape == (2, 1)
    (y * 2.0).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0)


def test_reshape_transpose_roundtrip_gradient():
    x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True, dtype=np.float64)
    y = x.reshape(4, 3).transpose(1, 0)
    w = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), dtype=np.float64)
    (y * w).sum().backward()
    np.testing.assert_allclose(x.grad, w.data.T.reshape(3, 4))


def test_stack_splits_gradient_back():
    parts = [Tensor(np.float64(v), requires_grad=True, dtype=np.float64) for v in (1.0, 2.0, 3.0)]
    s = stack(parts, axis=0)
    assert s.shape == (3,)
    weights = Tensor(np.array([1.0, 10.0, 100.0]), dtype=np.float64)
    (s * weights).sum().backward()
    assert [float(p.grad) for p in parts] == [1.0, 10.0, 100.0]


def test_backward_releases_intermediates_and_keeps_leaf_grads():
    a = scalar(2.0)
    b = scalar(3.0)
    s = a + b
    f = s * b
    f.backward()
    assert a.grad == 3.0 and b.grad == 8.0
    for node in (s, f):
        assert node.grad is None
        assert not node._parents


def test_second_backward_on_released_graph_raises():
    x = scalar(2.0)
    loss = (x * x) * 3.0
    loss.backward()
    with pytest.raises(ValueError, match="released"):
        loss.backward()
    assert x.grad == 12.0


def test_backward_through_released_tensor_raises():
    x = scalar(2.0)
    y = x * x
    (y * 3.0).backward()
    with pytest.raises(ValueError, match="released"):
        (y + 1.0).backward()
    assert x.grad == 12.0


def test_no_grad_blocks_graph_construction():
    x = scalar(2.0)
    with no_grad():
        assert not grad_enabled()
        y = x * x
    assert grad_enabled()
    assert y.grad is None
    y2 = x * x
    y2.backward()
    assert x.grad == pytest.approx(4.0)


def test_zero_grad_resets_accumulation():
    x = scalar(3.0)
    (x * x).backward()
    first = float(x.grad)
    x.zero_grad()
    (x * x).backward()
    assert float(x.grad) == pytest.approx(first)


def test_backward_requires_scalar_root():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_float32_default_storage():
    t = Tensor([1.0, 2.0])
    assert t.dtype == np.float32
    assert t.numpy().dtype == np.float32


def test_gradient_dtype_follows_parameter_dtype():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    assert x.grad.dtype == np.float32


def test_sum_accumulates_in_float64():
    # Adding 0.01 onto 1e8 in float32 rounds every increment away (spacing at
    # 1e8 is 8); a 64-bit accumulator keeps them and only the final store rounds.
    vals = np.full(1 << 16, np.float32(0.01))
    vals[0] = np.float32(1e8)
    t = Tensor(vals)
    total = float(t.sum().item())
    expected = 1e8 + float(np.float32(0.01)) * (len(vals) - 1)
    assert total == pytest.approx(expected, rel=1e-7)


def composite_fd_case(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True, dtype=np.float64)

    def f():
        h = x.matmul(w)
        return ((h * h).mean() + h.abs().sum() * 0.1)

    return f, [x, w]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_composite_matches_central_differences(seed):
    f, params = composite_fd_case(seed)
    loss = f()
    loss.backward()
    grads = [p.grad.copy() for p in params]
    h = 1e-6
    rng = np.random.default_rng(seed + 100)
    with no_grad():
        for p, g in zip(params, grads):
            for _ in range(5):
                idx = tuple(rng.integers(0, s) for s in p.shape)
                orig = p.data[idx]
                p.data[idx] = orig + h
                fp = f().item()
                p.data[idx] = orig - h
                fm = f().item()
                p.data[idx] = orig
                numeric = (fp - fm) / (2 * h)
                assert numeric == pytest.approx(float(g[idx]), rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# graph nodes and values: the graph keeps only what a backward rule reads
# ---------------------------------------------------------------------------

def pooled_chain(x, keep):
    """sum(relu(max_pool(batch_norm(2x)))); ``keep`` collects each op output
    and records it as alive or as freed by a weak reference to its array."""
    c = x.shape[1]
    gamma = Tensor(np.linspace(0.5, 1.5, c), requires_grad=True, dtype=np.float64)
    beta = Tensor(np.linspace(-0.2, 0.2, c), requires_grad=True, dtype=np.float64)
    y = x * 2.0
    keep.append(y)
    y = nn.batch_norm2d(y, gamma, beta, np.zeros(c), np.ones(c), training=True)
    keep.append(y)
    y = nn.max_pool2d(y, 2)
    keep.append(y)
    y = nn.relu(y)
    keep.append(y)
    return y.sum()


def test_a_dropped_op_output_is_freed_unless_a_rule_reads_it():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((3, 2, 6, 6))
    x = Tensor(values, requires_grad=True, dtype=np.float64)
    outputs = []
    loss = pooled_chain(x, outputs)
    arrays = [weakref.ref(t.data) for t in outputs]
    del outputs
    # Batch norm reads its centred copy, max pool its tap masks and relu its
    # own output, so only the relu map outlives its tensor.
    assert [a() is None for a in arrays] == [True, True, True, False]
    loss.backward()
    assert arrays[3]() is None                     # released by the walk

    kept = Tensor(values, requires_grad=True, dtype=np.float64)
    held = []
    pooled_chain(kept, held).backward()
    assert x.grad.tobytes() == kept.grad.tobytes()


def test_no_backward_rule_captures_a_tensor(monkeypatch):
    """Every rule a model's training graph holds reaches arrays and nodes
    only, never a Tensor, which would pin that tensor's data.  The walk must
    inspect every rule the forward made, and so every op kind the model
    runs: the encoder's convs, batch norms, pools and relus, the stem op,
    the aggregator's ops and the loss."""
    def captured(fn, seen):
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if id(value) in seen:
                continue
            seen.add(id(value))
            yield value
            if isinstance(value, types.FunctionType):
                yield from captured(value, seen)
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield item
                    if isinstance(item, types.FunctionType):
                        yield from captured(item, seen)

    made = []
    make = Tensor._make

    def recording_make(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        if out.node is not None:
            made.append(backward_fn.__qualname__)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))

    def rule(op):
        return f"{op}.<locals>.backward_fn"

    aggregator_ops = {"attention": {rule("linear"), rule("softmax"), rule("layer_norm")},
                      "mean": {rule("aggregate_mean"), rule("linear")}}
    loss_ops = {"mse": rule("Tensor.__mul__"), "l1": rule("Tensor.abs"),
                "cross_entropy": rule("cross_entropy")}
    cases = [("cnn5", "attention", True, "regression", "mse", False),
             ("cnn5", "mean", False, "regression", "l1", True),
             ("resnet18", "mean", False, "classification", "cross_entropy", False),
             ("resnet50", "attention", False, "regression", "l1", True)]
    for kind, aggregator, positional, task, loss_kind, frozen in cases:
        cfg = ModelConfig(task=task, axis="coronal",
                          encoder=EncoderConfig(kind=kind, width_multiplier=0.125, min_input=8),
                          aggregator=AggregatorConfig(kind=aggregator),
                          positional_enabled=positional)
        model = build_model(cfg, slice_count=10)
        he_init(model, seed=0)
        for _, module in model.named_modules():
            if isinstance(module, nn.BatchNorm2d):
                module.freeze_stats = frozen             # eval-mode batch norm in training
        volumes = generate_synthetic(SyntheticSpec(extents=(9, 10, 9), task=task, count=2,
                                                   seed=0, signal_axis="coronal"))
        made.clear()
        loss = batch_loss(model, volumes, loss_kind)
        stack_, seen, inspected = [loss.node], set(), []
        while stack_:
            node = stack_.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack_.extend(node.parents)
            if node.rule is not None:
                inspected.append(node.rule.__qualname__)
                leaked = [v for v in captured(node.rule, set()) if isinstance(v, Tensor)]
                assert not leaked, (kind, node.rule.__qualname__, leaked)
        assert sorted(inspected) == sorted(made), kind
        ops = {rule("conv2d"), rule("conv_bn_pool_relu"), rule("relu"), rule("global_avg_pool2d"),
               "batch_norm2d.<locals>.eval_backward_fn" if frozen else rule("batch_norm2d"),
               loss_ops[loss_kind], *aggregator_ops[aggregator]}
        if kind == "cnn5":
            ops.add(rule("max_pool2d"))
        assert ops <= set(inspected), (kind, ops - set(inspected))


def test_relu_gradient_from_output_sign_matches_input_sign():
    x = np.array([-np.inf, -1.0, -1e-45, -0.0, 0.0, 1e-45, 2.0, np.inf, np.nan, np.nan],
                 dtype=np.float32)
    upstream = np.array([1.0, -2.0, 3.0, 4.0, -5.0, 6.0, 7.0, -8.0, 9.0, 0.5], dtype=np.float32)
    xt = Tensor(x, requires_grad=True)
    (nn.relu(xt) * Tensor(upstream)).sum().backward()
    assert xt.grad.tobytes() == (upstream * (x > 0)).tobytes()


def test_op_output_keeps_the_attributes_tracers_and_tests_use():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True, dtype=np.float64)
    y = x * 3.0
    assert y.requires_grad and y.grad is None and len(y._parents) == 1
    seen = []
    rule = y._backward

    def traced(node):
        seen.append(node.grad.copy())
        rule(node)
    y._backward = traced
    assert y._backward is traced
    # _make still takes tensors as parents; accumulate_grad still works on a tensor.
    extra = Tensor._make(np.zeros((), dtype=np.float64), (x,),
                         lambda out: x.accumulate_grad(np.full(3, 0.5)))
    ((y * y).sum() + extra).backward()
    np.testing.assert_array_equal(seen[0], 2.0 * y.data)
    np.testing.assert_array_equal(x.grad, 18.0 * x.data + 0.5)
    assert y.grad is None and not y._parents and y._backward is None
    assert isinstance(x.node, Node) and x.node.parents == () and x.node.rule is None


def test_gradient_suite_probes_concat_and_pow():
    results = {r.name: r for r in gradient_suite(seed=0).results}
    for name in ("op.concat", "op.pow"):
        assert results[name].passed, results[name].line()
