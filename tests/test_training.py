"""Initialization, optimizers, and the training loop with checkpoint selection."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from sliceset import nn
from sliceset import train as train_mod
from sliceset.data import SyntheticSpec, Volume, generate_synthetic, normalize
from sliceset.encoders import CNN5_CHANNELS, EncoderConfig
from sliceset.model import AggregatorConfig, ModelConfig, build_model
from sliceset.tensor import Tensor, no_grad, stack
from sliceset.train import (Adam, Checkpoint, OptimizerConfig, SGD, TrainConfig,
                            TrainingDivergedError, batch_loss, evaluate, he_init,
                            predict, read_epoch_log, snapshot_state, train)


def tiny_model(task="regression", seed=0, positional=False):
    cfg = ModelConfig(
        task=task, axis="coronal",
        encoder=EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=8),
        aggregator=AggregatorConfig(kind="mean"),
        positional_enabled=positional,
    )
    model = build_model(cfg, slice_count=10)
    he_init(model, seed=seed)
    return model


def tiny_dataset(task="regression", count=6, seed=0):
    spec = SyntheticSpec(extents=(8, 10, 8), task=task, count=count, seed=seed,
                         blob_radius=2, signal_axis="coronal")
    return generate_synthetic(spec)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_he_init_moments_at_fan_200():
    layer = nn.Linear(200, 64)  # 12800 samples
    he_init(layer, seed=0)
    w = layer.weight.numpy()
    expected_std = math.sqrt(2.0 / 200)
    assert abs(float(w.std()) - expected_std) / expected_std < 0.10
    assert abs(float(w.mean())) < 0.1 * expected_std
    assert not layer.bias.numpy().any()


def test_he_init_uses_conv_fan_in():
    conv = nn.Conv2d(8, 4, kernel_size=5)  # fan_in = 8*25 = 200
    he_init(conv, seed=1)
    expected_std = math.sqrt(2.0 / 200)
    assert abs(float(conv.weight.numpy().std()) - expected_std) / expected_std < 0.10


def test_he_init_deterministic_and_seed_sensitive():
    a = tiny_model(seed=3)
    b = tiny_model(seed=3)
    c = tiny_model(seed=4)
    for (na, pa, _), (nb, pb, _), (nc, pc, _) in zip(a.named_state(), b.named_state(), c.named_state()):
        assert na == nb == nc
        np.testing.assert_array_equal(pa, pb)
    assert any(not np.array_equal(pa, pc)
               for (_, pa, _), (_, pc, _) in zip(a.named_state(), c.named_state()))


def test_he_init_leaves_norm_layers_alone():
    model = tiny_model()
    np.testing.assert_array_equal(model.encoder.block1.bn.weight.numpy(), 1.0)
    np.testing.assert_array_equal(model.encoder.block1.bn.bias.numpy(), 0.0)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def test_sgd_step_is_exactly_lr_times_grad():
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    p.accumulate_grad(np.array([0.5, -1.0], dtype=np.float32))
    opt = SGD([p], OptimizerConfig(kind="sgd", learning_rate=0.1))
    opt.step()
    np.testing.assert_array_equal(
        p.numpy(), (np.array([1.0, 2.0]) - 0.1 * np.array([0.5, -1.0])).astype(np.float32))


def test_sgd_momentum_two_step_closed_form():
    p = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
    opt = SGD([p], OptimizerConfig(kind="sgd", learning_rate=1.0, momentum=0.5))
    p.accumulate_grad(np.array([1.0], dtype=np.float32))
    opt.step()          # v=1, p=-1
    p.zero_grad()
    p.accumulate_grad(np.array([1.0], dtype=np.float32))
    opt.step()          # v=1.5, p=-2.5
    assert float(p.numpy()[0]) == pytest.approx(-2.5)


def test_adam_single_step_closed_form():
    # With m_hat = g and v_hat = g^2 after one step, the update is
    # lr * g / (|g| + eps) elementwise.
    g = np.array([0.3, -0.7, 1.2], dtype=np.float64)
    p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    cfg = OptimizerConfig(kind="adam", learning_rate=1e-3)
    opt = Adam([p], cfg)
    p.accumulate_grad(g.astype(np.float32))
    opt.step()
    want = -cfg.learning_rate * g / (np.abs(g) + cfg.epsilon)
    np.testing.assert_allclose(p.numpy(), want.astype(np.float32), rtol=1e-6)


def test_adam_matches_scalar_oracle_over_steps():
    """Independent pure-Python Adam on one weight, varying gradients, 1e-6 agreement."""
    grads = [0.4, -0.2, 0.9, 0.05, -1.3]
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    p = Tensor(np.array([0.25], dtype=np.float64), requires_grad=True, dtype=np.float64)
    opt = Adam([p], OptimizerConfig(kind="adam", learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps))

    x = 0.25
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        p.zero_grad()
        p.accumulate_grad(np.array([g], dtype=np.float64))
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert float(p.numpy()[0]) == pytest.approx(x, abs=1e-6)


def test_adam_bias_correction_factor():
    # Constant unit gradient: after t steps the accumulated moments reduce to
    # m = 1-b1^t, v = 1-b2^t, so each update must equal lr/(1+eps') exactly;
    # equivalently the raw-moment step times sqrt(1-b2^t)/(1-b1^t).
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True, dtype=np.float64)
    opt = Adam([p], OptimizerConfig(kind="adam", learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps))
    prev = 0.0
    for t in range(1, 6):
        p.zero_grad()
        p.accumulate_grad(np.array([1.0], dtype=np.float64))
        opt.step()
        step = prev - float(p.numpy()[0])
        prev = float(p.numpy()[0])
        m_raw = 1 - b1 ** t
        v_raw = 1 - b2 ** t
        factor = math.sqrt(v_raw) / m_raw
        expected = lr * factor * m_raw / (math.sqrt(v_raw) + eps * math.sqrt(v_raw))
        assert step == pytest.approx(expected, abs=1e-6)


def _reference_sgd_step(p, v, lr, momentum):
    """The plain-allocation momentum update the buffered SGD must reproduce bit for bit."""
    g = p.grad.astype(np.float64)
    v *= momentum
    v += g
    p.data = (p.data.astype(np.float64) - lr * v).astype(p.data.dtype)


def _reference_adam_step(p, m, v, t, lr, b1, b2, eps):
    """The plain-allocation Adam update the buffered Adam must reproduce bit for bit."""
    g = p.grad.astype(np.float64)
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    p.data = (p.data.astype(np.float64) - lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_buffered_optimizers_match_plain_update_bit_for_bit(kind):
    rng = np.random.default_rng(23)
    shapes = [(4, 3, 3, 3), (7,), (5, 6), (1,)]
    cfg = OptimizerConfig(kind=kind, learning_rate=3e-2, momentum=0.9 if kind == "sgd" else 0.0)
    params = [Tensor(rng.normal(0, 1, s).astype(np.float32), requires_grad=True) for s in shapes]
    mirror = [Tensor(p.data.copy(), requires_grad=True) for p in params]
    opt = train_mod.build_optimizer(params, cfg)
    m = [np.zeros(s) for s in shapes]      # SGD velocity, or Adam's first moment
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 6):
        for i, (p, q) in enumerate(zip(params, mirror)):
            p.zero_grad()
            q.zero_grad()
            if (i, t) == (2, 3):
                continue   # a parameter without a gradient keeps its value and moments
            g = rng.normal(0, 10.0 ** rng.integers(-3, 2), p.shape).astype(np.float32)
            p.accumulate_grad(g)
            q.accumulate_grad(g)
        opt.step()
        for i, q in enumerate(mirror):
            if q.grad is None:
                continue
            if kind == "sgd":
                _reference_sgd_step(q, m[i], cfg.learning_rate, cfg.momentum)
            else:
                _reference_adam_step(q, m[i], v[i], t, cfg.learning_rate, cfg.beta1, cfg.beta2,
                                     cfg.epsilon)
        for p, q in zip(params, mirror):
            assert p.data.dtype == np.float32
            np.testing.assert_array_equal(p.data, q.data)


def test_optimizers_skip_parameters_without_gradients():
    used = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    unused = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
    used.accumulate_grad(np.array([1.0], dtype=np.float32))
    for opt in (SGD([used, unused], OptimizerConfig(kind="sgd", learning_rate=0.1)),
                Adam([used, unused], OptimizerConfig(kind="adam", learning_rate=0.1))):
        before = unused.numpy().copy()
        opt.step()
        np.testing.assert_array_equal(unused.numpy(), before)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_optimizer_step_names_a_non_finite_gradient_and_writes_nothing(kind, bad):
    params = [Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True) for _ in range(3)]
    for p, g in zip(params, ([0.5, 0.5], [1.0, bad], [bad, 0.0])):
        p.accumulate_grad(np.array(g, dtype=np.float32))
    names = ["layer.a", "layer.b", "layer.c"]
    opt = train_mod.build_optimizer(list(zip(names, params)), OptimizerConfig(kind=kind))
    with pytest.raises(TrainingDivergedError, match=r"non-finite gradient in parameter layer\.b$"):
        opt.step()
    for p in params:
        np.testing.assert_array_equal(p.numpy(), [1.0, 2.0])
    # Bare tensors are named by their position.
    opt = train_mod.build_optimizer(params, OptimizerConfig(kind=kind))
    with pytest.raises(TrainingDivergedError, match=r"parameter #1$"):
        opt.step()


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_optimizer_step_names_a_parameter_whose_new_value_overflows_and_keeps_it(kind):
    """A finite gradient at lr=1e38 moves a parameter past the float32 range:
    the step stops before writing it, naming it."""
    near_max = np.array([3e38, 1.0], dtype=np.float32)
    params = [Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True),
              Tensor(near_max.copy(), requires_grad=True)]
    for p, g in zip(params, (-1e-37, -10.0)):
        p.accumulate_grad(np.full(2, g, dtype=np.float32))
    opt = train_mod.build_optimizer(list(zip(["layer.a", "layer.b"], params)),
                                    OptimizerConfig(kind=kind, learning_rate=1e38))
    with pytest.raises(TrainingDivergedError, match=r"non-finite value for parameter layer\.b$"):
        opt.step()
    assert params[1].numpy().tobytes() == near_max.tobytes()
    assert np.isfinite(params[0].numpy()).all()


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(kind="rmsprop")
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(kind="sgd", momentum=1.0)


# ---------------------------------------------------------------------------
# train config resolution
# ---------------------------------------------------------------------------

def test_train_config_defaults_per_task():
    cfg = TrainConfig()
    reg = cfg.resolved("regression")
    cls = cfg.resolved("classification")
    assert (reg.loss, reg.selection_metric) == ("mse", "mae")
    assert (cls.loss, cls.selection_metric) == ("cross_entropy", "balanced_accuracy")


def test_train_config_rejects_task_mismatches():
    with pytest.raises(ValueError):
        TrainConfig(loss="l1").resolved("classification")
    with pytest.raises(ValueError):
        TrainConfig(loss="cross_entropy").resolved("regression")
    with pytest.raises(ValueError):
        TrainConfig(selection_metric="balanced_accuracy").resolved("regression")
    with pytest.raises(ValueError):
        TrainConfig(loss="maximum_likelihood")
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


# ---------------------------------------------------------------------------
# batch loss / prediction
# ---------------------------------------------------------------------------

def test_batch_loss_l1_matches_manual_forward():
    model = tiny_model()
    model.eval()
    vols = tiny_dataset(count=3)
    loss = batch_loss(model, vols, "l1")
    preds = [float(model.forward_volume(v).item()) for v in vols]
    want = np.mean([abs(p - v.target) for p, v in zip(preds, vols)])
    assert loss.item() == pytest.approx(want, rel=1e-5)


def test_backward_frees_the_graph_it_walks():
    # Memory still held after backward (the loss still referenced) must be at
    # most half of what the forward pass left allocated: the walk releases
    # every op's saved arrays and intermediate gradient, and conv saves its
    # input rather than its kh*kw-times-larger column matrix.
    cfg = ModelConfig(task="regression", axis="sagittal",
                      encoder=EncoderConfig(kind="cnn5", width_multiplier=0.5),
                      aggregator=AggregatorConfig(kind="mean"))
    model = build_model(cfg, slice_count=8)
    he_init(model, seed=0)
    volumes = generate_synthetic(SyntheticSpec(extents=(8, 12, 8), task="regression",
                                               count=4, seed=0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = batch_loss(model, volumes, "mse")
        forward = tracemalloc.get_traced_memory()[0] - base
        loss.backward()
        after = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert after <= 0.5 * forward, (after, forward)
    assert all(p.grad is not None for p in model.encoder.parameters())


def test_cnn5_training_forward_holds_each_activation_once():
    """Heap held after a 4-volume cnn5 forward (width 1, 64 slices of 32x32).
    Per conv-output element a block holds its conv output, which batch norm
    centres in place (4 bytes), the batch-norm output the pool reads (4), the
    pool's four tap masks (1 in all), and the pooled and relu maps at a
    quarter size (1 each): 11 bytes, of which the bound allows 11.5.  A
    separate centred copy, a padded conv input or a full-size relu map each
    break it."""
    cfg = ModelConfig(task="regression", axis="sagittal",
                      encoder=EncoderConfig(kind="cnn5", width_multiplier=1.0),
                      aggregator=AggregatorConfig(kind="attention"), positional_enabled=True)
    model = build_model(cfg, slice_count=16)
    he_init(model, seed=0)
    volumes = generate_synthetic(SyntheticSpec(extents=(16, 20, 16), task="regression",
                                               count=4, seed=0))
    slices = 4 * 16
    conv_outputs = sum(c * (32 >> i) ** 2 * slices for i, c in enumerate(CNN5_CHANNELS))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = batch_loss(model, volumes, "mse")
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert held <= 11.5 * conv_outputs, (held, conv_outputs)


# ---------------------------------------------------------------------------
# batched training forward: one encoder call per batch, moments per volume
# ---------------------------------------------------------------------------

def per_volume_loss(model, batch, loss_kind):
    """batch_loss computed with one encoder call per volume."""
    outputs = stack([model.forward_volume(v) for v in batch])
    if model.config.task == "classification":
        return nn.cross_entropy(outputs, np.array([int(v.target) for v in batch]))
    targets = Tensor(np.array([float(v.target) for v in batch], dtype=np.float32))
    return nn.l1_loss(outputs, targets) if loss_kind == "l1" else nn.mse_loss(outputs, targets)


def loss_grads_buffers(model, loss_fn, batch, loss_kind):
    """Loss, parameter gradients and running buffers after one forward and
    backward from the model's current state, which is then restored."""
    state = snapshot_state(model)
    model.train()
    model.zero_grad()
    loss = loss_fn(model, batch, loss_kind)
    loss.backward()
    out = ({"loss": loss.numpy().copy()},
           {name: p.grad.copy() for name, p in model.named_parameters() if p.grad is not None},
           {name: b.copy() for name, b in model.named_buffers()})
    nn.load_state(model, state)
    model.zero_grad()
    return out


def worst_gap(got: dict, want: dict) -> float:
    """Largest |got - want| / max(1, |largest entry of want|) over arrays of the same name."""
    assert got.keys() == want.keys()
    return max(float(np.abs(got[k] - want[k]).max()) / max(1.0, float(np.abs(want[k]).max()))
               for k in want)


EQUIVALENCE_CASES = [   # encoder, aggregator, positional, task, loss
    ("cnn5", "attention", True, "regression", "mse"),
    ("resnet18", "mean", False, "classification", "cross_entropy"),
    ("resnet50", "attention", False, "regression", "l1"),
]


def equivalence_setup(kind, aggregator, positional, task, float64):
    cfg = ModelConfig(task=task, axis="coronal",
                      encoder=EncoderConfig(kind=kind, width_multiplier=0.125),
                      aggregator=AggregatorConfig(kind=aggregator),
                      positional_enabled=positional)
    model = build_model(cfg, slice_count=20)
    he_init(model, seed=3)
    rng = np.random.default_rng(4)
    for name, buffer in model.named_buffers():   # start the buffers away from 0 and 1
        buffer[...] = (rng.uniform(0.5, 2.0, buffer.shape) if name.endswith("running_var")
                       else rng.normal(0.0, 0.2, buffer.shape))
    if positional:
        model.positional.table.data[...] = rng.normal(0.0, 0.1, model.positional.table.shape)
    if float64:
        for _, module in model.named_modules():
            for name, p in module._params.items():
                p.data = p.data.astype(np.float64)
            for name, b in module._buffers.items():
                module._buffers[name] = b.astype(np.float64)
    volumes = generate_synthetic(SyntheticSpec(extents=(16, 20, 16), task=task, count=8, seed=5,
                                               signal_axis="coronal"))
    return model, volumes


@pytest.mark.parametrize("kind, aggregator, positional, task, loss_kind", EQUIVALENCE_CASES)
def test_batched_batch_loss_equals_one_encoder_call_per_volume(kind, aggregator, positional,
                                                              task, loss_kind):
    """Loss, every gradient and every running buffer agree with per-volume
    forwards: 1e-9 in float64, and loss and buffers 1e-6 in float32."""
    model, volumes = equivalence_setup(kind, aggregator, positional, task, float64=True)
    got = loss_grads_buffers(model, batch_loss, volumes, loss_kind)
    want = loss_grads_buffers(model, per_volume_loss, volumes, loss_kind)
    for g, w in zip(got, want):
        assert worst_gap(g, w) <= 1e-9

    model, volumes = equivalence_setup(kind, aggregator, positional, task, float64=False)
    got = loss_grads_buffers(model, batch_loss, volumes, loss_kind)
    want = loss_grads_buffers(model, per_volume_loss, volumes, loss_kind)
    assert worst_gap(got[0], want[0]) <= 1e-6
    assert worst_gap(got[2], want[2]) <= 1e-6


def test_batch_loss_makes_one_encoder_call_per_slice_shape(monkeypatch):
    model = cohort_model("regression", 10)
    a = cohort("regression", 10, 3)
    b = cohort("regression", 10, 2, in_plane=(10, 6), seed=1)
    batch = [a[0], b[0], a[1], b[1], a[2]]
    want = loss_grads_buffers(model, per_volume_loss, batch, "mse")
    calls = count_encoder_calls(monkeypatch, model)
    got = loss_grads_buffers(model, batch_loss, batch, "mse")
    assert calls == [30, 20]
    assert worst_gap(got[0], want[0]) <= 1e-6
    assert worst_gap(got[1], want[1]) <= 1e-5


def test_batch_loss_rejects_a_volume_with_the_wrong_slice_count_before_encoding(monkeypatch):
    model = cohort_model("regression", 20)
    batch = cohort("regression", 20, 2) + cohort("regression", 16, 1)
    calls = count_encoder_calls(monkeypatch, model)
    with pytest.raises(ValueError, match="model was built for 20 slices, volume yields 16"):
        batch_loss(model, batch, "mse")
    assert calls == []


def test_predict_classification_scores_and_labels():
    model = tiny_model(task="classification")
    vols = tiny_dataset(task="classification", count=4)
    scores, labels, truths = predict(model, vols)
    assert len(scores) == len(labels) == len(truths) == 4
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert set(labels) <= {0, 1}
    assert list(truths) == [v.target for v in vols]


def test_predict_restores_training_flag():
    model = tiny_model()
    model.train()
    predict(model, tiny_dataset(count=2))
    assert model.training


# ---------------------------------------------------------------------------
# batched predict: slices of several volumes share one encoder call
# ---------------------------------------------------------------------------

def cohort_model(task, slice_count):
    """cnn5 regression with attention and the positional table, or classification
    with the mean aggregator; coronal slices, so K is the middle extent."""
    cfg = ModelConfig(
        task=task, axis="coronal",
        encoder=EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=8),
        aggregator=AggregatorConfig(kind="attention" if task == "regression" else "mean"),
        positional_enabled=task == "regression",
    )
    model = build_model(cfg, slice_count=slice_count)
    he_init(model, seed=1)
    rng = np.random.default_rng(2)
    for name, buffer in model.named_buffers():   # non-trivial eval-mode batch norm
        buffer[...] = (rng.uniform(0.5, 2.0, buffer.shape) if name.endswith("running_var")
                       else rng.normal(0.0, 0.2, buffer.shape))
    if task == "regression":
        model.positional.table.data[...] = rng.normal(0.0, 0.1, model.positional.table.shape)
    return model


def cohort(task, slice_count, count, in_plane=(8, 8), seed=0):
    h, w = in_plane
    return generate_synthetic(SyntheticSpec(extents=(h, slice_count, w), task=task, count=count,
                                            seed=seed, blob_radius=2, signal_axis="coronal"))


def per_volume_predict(model, volumes):
    """predict's outputs from one forward_volume call per volume."""
    model.eval()
    with no_grad():
        outputs = [model.forward_volume(v).numpy().astype(np.float64) for v in volumes]
    model.train()
    if model.config.task == "regression":
        return np.array([float(out) for out in outputs]), np.array([v.target for v in volumes])
    scores = [float(np.exp(o - o.max())[1] / np.exp(o - o.max()).sum()) for o in outputs]
    return (np.array(scores), np.array([int(np.argmax(o)) for o in outputs]),
            np.array([v.target for v in volumes]))


def count_encoder_calls(monkeypatch, model):
    calls = []
    encoder_call = type(model.encoder).__call__

    def counted(module, x):
        calls.append(x.shape[0])
        return encoder_call(module, x)
    monkeypatch.setattr(type(model.encoder), "__call__", counted)
    return calls


# (slice count, volumes): one volume, exactly one full group of
# PREDICT_MAX_SLICES slices, and one full group plus a remainder group.
COHORTS = [(32, 1), (32, 4), (32, 5), (20, 1), (20, 6), (20, 7)]


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("slice_count, count", COHORTS)
def test_batched_predict_matches_per_volume_forward(monkeypatch, task, slice_count, count):
    model = cohort_model(task, slice_count)
    volumes = cohort(task, slice_count, count)
    want = per_volume_predict(model, volumes)
    calls = count_encoder_calls(monkeypatch, model)
    got = predict(model, volumes)

    per_group = train_mod.PREDICT_MAX_SLICES // slice_count
    assert calls == [slice_count * min(per_group, count - start)
                     for start in range(0, count, per_group)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape == (count,)
    np.testing.assert_array_equal(got[-1], want[-1])             # targets / true labels
    if task == "classification":
        np.testing.assert_array_equal(got[1], want[1])
    gap = np.abs(got[0] - want[0]) / np.maximum(1.0, np.abs(want[0]))
    assert gap.max() <= 1e-6, gap.max()
    if count == 1 or slice_count % 8 == 0:
        # One volume is the per-volume computation itself.  With K a multiple
        # of 8 every GEMM width is one too, and OpenBLAS then rounds each
        # output column alike at any width, so the outputs are byte-equal.
        assert got[0].tobytes() == want[0].tobytes()


def test_batched_predict_starts_a_group_when_the_slice_shape_changes(monkeypatch):
    model = cohort_model("regression", 32)
    a, b = cohort("regression", 32, 2), cohort("regression", 32, 3, in_plane=(10, 6), seed=1)
    volumes = [a[0], b[0], b[1], a[1], b[2]]
    want = per_volume_predict(model, volumes)
    calls = count_encoder_calls(monkeypatch, model)
    got = predict(model, volumes)
    assert calls == [32, 64, 32, 32]
    assert got[0].tobytes() == want[0].tobytes()


def test_predict_of_no_volumes_is_empty():
    for task, arrays in (("regression", 2), ("classification", 3)):
        out = predict(cohort_model(task, 20), [])
        assert len(out) == arrays and all(a.shape == (0,) for a in out)


def test_predict_rejects_a_volume_with_the_wrong_slice_count():
    model = cohort_model("regression", 20)
    volumes = cohort("regression", 20, 2) + cohort("regression", 16, 1)
    with pytest.raises(ValueError, match="model was built for 20 slices, volume yields 16"):
        predict(model, volumes)
    with pytest.raises(ValueError, match="model was built for 20 slices, volume yields 16"):
        model.forward_volume(volumes[-1])


def test_evaluate_produces_report():
    model = tiny_model()
    rep = evaluate(model, tiny_dataset(count=5))
    assert rep.task == "regression"
    assert rep.n == 5
    assert rep.mae >= 0.0


# ---------------------------------------------------------------------------
# the epoch loop
# ---------------------------------------------------------------------------

def run_tiny_training(tmp_path=None, epochs=3, seed=0, task="regression"):
    model = tiny_model(task=task, seed=seed)
    vols = tiny_dataset(task=task, count=8, seed=seed)
    log_path = None if tmp_path is None else tmp_path / "log.jsonl"
    result = train(model, vols[:6], vols[6:],
                   TrainConfig(epochs=epochs, batch_size=4, seed=seed),
                   OptimizerConfig(kind="adam", learning_rate=1e-3),
                   log_path=log_path)
    return model, result, log_path


def test_train_runs_exactly_configured_epochs(tmp_path):
    _, result, log_path = run_tiny_training(tmp_path, epochs=4)
    assert [r["epoch"] for r in result.log] == [1, 2, 3, 4]
    assert set(result.log[0]) == {"epoch", "train_loss", "val_metric", "wall_ms"}
    on_disk = read_epoch_log(log_path)
    assert [r["epoch"] for r in on_disk] == [1, 2, 3, 4]
    for mem, disk in zip(result.log, on_disk):
        assert mem == disk


def test_read_epoch_log_skips_an_unterminated_last_line(tmp_path):
    """A kill mid-append leaves a partial last line; the records before it load."""
    _, result, log_path = run_tiny_training(tmp_path, epochs=2)
    text = log_path.read_text()
    for partial in ('{"epoch": 3, "train_lo', '{"epoch": 3}'):
        log_path.write_text(text + partial)
        assert read_epoch_log(log_path) == result.log


@pytest.mark.parametrize("bad", ['{"epoch": 1, "train_lo', "[1, 2]"])
def test_read_epoch_log_names_the_file_and_line_of_a_bad_record(tmp_path, bad):
    path = tmp_path / "log.jsonl"
    path.write_text('{"epoch": 1}\n' + bad + '\n{"epoch": 3}\n')
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: line 2 "):
        read_epoch_log(path)


def test_train_best_checkpoint_tracks_minimum_validation(tmp_path):
    _, result, _ = run_tiny_training(tmp_path, epochs=5)
    metrics = [r["val_metric"] for r in result.log]
    assert result.best.val_metric == pytest.approx(min(metrics))
    assert result.best_epoch == metrics.index(min(metrics)) + 1


def test_selection_takes_earliest_on_sequences(monkeypatch):
    """Validation sequence [5,3,4] selects epoch 2; a [3,3] tie keeps epoch 1."""
    for sequence, expected in [([5.0, 3.0, 4.0], 2), ([3.0, 3.0], 1)]:
        values = iter(sequence)
        monkeypatch.setattr(train_mod, "_validation_metric",
                            lambda *a, **k: next(values))
        model = tiny_model()
        vols = tiny_dataset(count=4)
        result = train_mod.train(model, vols[:3], vols[3:],
                                 TrainConfig(epochs=len(sequence), batch_size=4),
                                 OptimizerConfig(kind="sgd", learning_rate=1e-6))
        assert result.best_epoch == expected
        assert result.best.val_metric == pytest.approx(min(sequence))


def test_selection_maximizes_balanced_accuracy(monkeypatch):
    values = iter([0.5, 0.8, 0.8, 0.6])
    monkeypatch.setattr(train_mod, "_validation_metric", lambda *a, **k: next(values))
    model = tiny_model(task="classification")
    vols = tiny_dataset(task="classification", count=6)
    result = train_mod.train(model, vols[:4], vols[4:],
                             TrainConfig(epochs=4, batch_size=4),
                             OptimizerConfig(kind="sgd", learning_rate=1e-6))
    assert result.best_epoch == 2
    assert result.best.val_metric == pytest.approx(0.8)


def test_nan_loss_aborts_with_location():
    model = tiny_model()
    model.head.weight.data = np.full_like(model.head.weight.data, np.nan)
    vols = tiny_dataset(count=4)
    with pytest.raises(TrainingDivergedError, match=r"epoch 1, batch 0"):
        train(model, vols[:3], vols[3:], TrainConfig(epochs=1, batch_size=4),
              OptimizerConfig())


def test_training_is_deterministic_modulo_wall_time():
    model_a, result_a, _ = run_tiny_training(epochs=3, seed=5)
    model_b, result_b, _ = run_tiny_training(epochs=3, seed=5)
    for ra, rb in zip(result_a.log, result_b.log):
        assert ra["train_loss"] == rb["train_loss"]
        assert ra["val_metric"] == rb["val_metric"]
    for (na, pa, _), (nb, pb, _) in zip(model_a.named_state(), model_b.named_state()):
        assert na == nb
        np.testing.assert_array_equal(pa, pb)


def test_checkpoint_restore_round_trip():
    model = tiny_model()
    saved = Checkpoint(epoch=1, val_metric=0.0, state=snapshot_state(model))
    for _, arr, is_param in model.named_state():
        if is_param:
            arr += 1.0
    saved.restore(model)
    for (name, arr, _), (sname, sarr) in zip(model.named_state(), sorted(saved.state.items())):
        np.testing.assert_array_equal(arr, saved.state[name])


def test_train_rejects_empty_splits():
    model = tiny_model()
    vols = tiny_dataset(count=2)
    with pytest.raises(ValueError):
        train(model, [], vols, TrainConfig(epochs=1), OptimizerConfig())
    with pytest.raises(ValueError):
        train(model, vols, [], TrainConfig(epochs=1), OptimizerConfig())


def test_training_reduces_loss_on_tiny_overfit():
    model, result, _ = run_tiny_training(epochs=12, seed=1)
    assert result.log[-1]["train_loss"] < result.log[0]["train_loss"]


def test_full_width_overfit_of_eight_volumes():
    """cnn5-mean at full width memorizes 8 volumes of 16x20x16: after 200
    epochs of adam 1e-3 at batch 8, the final train l1 sits below 10% of
    the epoch-1 train l1."""
    spec = SyntheticSpec(extents=(16, 20, 16), task="regression", count=8,
                         seed=11, blob_radius=2, noise_std=0.1,
                         signal_axis="sagittal")
    records = [normalize(v) for v in generate_synthetic(spec)]
    cfg = ModelConfig(
        task="regression", axis="sagittal",
        encoder=EncoderConfig(kind="cnn5", width_multiplier=1.0, min_input=8),
        aggregator=AggregatorConfig(kind="mean"),
        positional_enabled=False,
    )
    model = build_model(cfg, slice_count=16)
    he_init(model, seed=0)
    result = train(model, records, records,
                   TrainConfig(epochs=200, batch_size=8, loss="l1", seed=0),
                   OptimizerConfig(kind="adam", learning_rate=1e-3))
    first = result.log[0]["train_loss"]
    last = result.log[-1]["train_loss"]
    assert last < 0.1 * first, f"final {last:.4f} vs epoch-1 {first:.4f}"
