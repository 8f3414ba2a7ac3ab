"""Initialization, optimizers, and the training loop with checkpoint selection."""

import math

import numpy as np
import pytest

from sliceset import nn
from sliceset import train as train_mod
from sliceset.data import SyntheticSpec, Volume, generate_synthetic, normalize
from sliceset.encoders import EncoderConfig
from sliceset.model import AggregatorConfig, ModelConfig, build_model
from sliceset.tensor import Tensor
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
