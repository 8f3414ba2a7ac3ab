"""Slice-set model geometry, positional table, aggregation, and config plumbing."""

from dataclasses import asdict

import numpy as np
import pytest

from sliceset import nn
from sliceset.data import Volume
from sliceset.encoders import EncoderConfig, build_encoder
from sliceset.model import (AggregatorConfig, ModelConfig, SliceSetModel,
                            aggregate_mean, build_dataclass, build_model,
                            permute_volume, restack_volume, slice_count_for,
                            slice_volume)
from sliceset.tensor import Tensor, no_grad
from sliceset.train import he_init, snapshot_state


def small_config(task="regression", axis="coronal", aggregator="mean",
                 positional=False, kind="cnn5"):
    return ModelConfig(
        task=task, axis=axis,
        encoder=EncoderConfig(kind=kind, width_multiplier=0.25, min_input=8),
        aggregator=AggregatorConfig(kind=aggregator),
        positional_enabled=positional,
    )


def rand_volume(extents, seed=0):
    rng = np.random.default_rng(seed)
    return Volume(voxels=rng.normal(0, 1, extents).astype(np.float32), subject_id="t")


# ---------------------------------------------------------------------------
# slicing geometry
# ---------------------------------------------------------------------------

def test_slice_counts_match_axis_extents():
    extents = (91, 109, 91)
    assert slice_count_for(extents, "sagittal") == 91
    assert slice_count_for(extents, "coronal") == 109
    assert slice_count_for(extents, "axial") == 91


@pytest.mark.parametrize("axis,expected_hw", [
    ("sagittal", (109, 91)), ("coronal", (91, 91)), ("axial", (91, 109)),
])
def test_slice_shapes_keep_remaining_extents_in_order(axis, expected_hw):
    vol = rand_volume((91, 109, 91))
    stack = slice_volume(vol, axis)
    k = slice_count_for(vol.extents, axis)
    assert stack.data.shape == (k, 1, *expected_hw)


@pytest.mark.parametrize("axis", ["sagittal", "coronal", "axial"])
def test_restack_is_bit_exact_inverse(axis):
    vol = rand_volume((91, 109, 91), seed=1)
    stack = slice_volume(vol, axis)
    back = restack_volume(stack)
    assert back.dtype == vol.voxels.dtype
    np.testing.assert_array_equal(back, vol.voxels)


def test_slice_volume_replicates_channels():
    vol = rand_volume((4, 5, 6))
    stack = slice_volume(vol, "sagittal", input_channels=3)
    assert stack.data.shape == (4, 3, 5, 6)
    np.testing.assert_array_equal(stack.data[:, 0], stack.data[:, 2])


def test_slice_volume_content_matches_direct_indexing():
    vol = rand_volume((3, 4, 5), seed=2)
    np.testing.assert_array_equal(slice_volume(vol, "coronal").data[2, 0],
                                  vol.voxels[:, 2, :])
    np.testing.assert_array_equal(slice_volume(vol, "axial").data[4, 0],
                                  vol.voxels[:, :, 4])


def test_permute_volume_moves_slices():
    vol = rand_volume((4, 3, 2), seed=3)
    perm = np.array([2, 0, 1])
    out = permute_volume(vol, "coronal", perm)
    np.testing.assert_array_equal(out.voxels[:, 0, :], vol.voxels[:, 2, :])
    assert out.target == vol.target


def test_unknown_axis_rejected():
    with pytest.raises(ValueError):
        slice_count_for((2, 2, 2), "diagonal")


# ---------------------------------------------------------------------------
# positional table
# ---------------------------------------------------------------------------

def test_zero_table_enabled_equals_disabled_bitwise():
    vol = rand_volume((8, 10, 8), seed=4)
    with_pe = build_model(small_config(positional=True), slice_count=10)
    without = build_model(small_config(positional=False), slice_count=10)
    he_init(with_pe, seed=0)
    he_init(without, seed=0)
    with_pe.eval()
    without.eval()
    with no_grad():
        a = with_pe.forward_volume(vol).numpy()
        b = without.forward_volume(vol).numpy()
    assert np.array_equal(a, b)


def test_positional_table_starts_at_zero_and_is_trainable():
    model = build_model(small_config(positional=True), slice_count=10)
    assert not model.positional.table.numpy().any()
    assert model.positional.table.requires_grad
    # the table is registered under a stable name for serialization
    names = [n for n, _, is_param in model.named_state() if is_param]
    assert "positional.table" in names


def test_mean_aggregation_with_any_table_stays_permutation_invariant():
    """Additive per-position vectors commute with a mean: invariance holds even trained."""
    rng = np.random.default_rng(5)
    model = build_model(small_config(positional=True, aggregator="mean"), slice_count=10)
    he_init(model, seed=1)
    model.positional.table.data = rng.normal(0, 1, model.positional.table.shape).astype(np.float32)
    model.eval()
    vol = rand_volume((8, 10, 8), seed=6)
    perm = rng.permutation(10)
    with no_grad():
        a = float(model.forward_volume(vol).item())
        b = float(model.forward_volume(permute_volume(vol, "coronal", perm)).item())
    assert abs(a - b) < 1e-5 * (1 + abs(a))


def test_attention_with_nonzero_table_breaks_permutation_invariance():
    rng = np.random.default_rng(7)
    model = build_model(small_config(positional=True, aggregator="attention"), slice_count=10)
    he_init(model, seed=2)
    model.positional.table.data = rng.normal(0, 2, model.positional.table.shape).astype(np.float32)
    model.eval()
    vol = rand_volume((8, 10, 8), seed=8)
    perm = np.roll(np.arange(10), 3)
    with no_grad():
        a = float(model.forward_volume(vol).item())
        b = float(model.forward_volume(permute_volume(vol, "coronal", perm)).item())
    assert abs(a - b) > 1e-6


def test_table_shape_mismatch_raises():
    model = build_model(small_config(positional=True), slice_count=10)
    bad = Tensor(np.zeros((9, model.positional.table.shape[1]), dtype=np.float32))
    with pytest.raises(ValueError):
        model.positional(bad)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_mean_matches_plain_mean():
    rng = np.random.default_rng(9)
    e = rng.normal(0, 1, (12, 6)).astype(np.float32)
    out = aggregate_mean(Tensor(e)).numpy()
    np.testing.assert_allclose(out, e.mean(axis=0), atol=1e-6)


def test_aggregate_mean_is_bitwise_permutation_invariant():
    rng = np.random.default_rng(10)
    e = rng.normal(0, 1, (40, 8)).astype(np.float32)
    base = aggregate_mean(Tensor(e)).numpy()
    for _ in range(5):
        perm = rng.permutation(40)
        np.testing.assert_array_equal(aggregate_mean(Tensor(e[perm])).numpy(), base)


def test_aggregate_mean_gradient_is_uniform():
    e = Tensor(np.ones((4, 3), dtype=np.float64), requires_grad=True, dtype=np.float64)
    aggregate_mean(e).sum().backward()
    np.testing.assert_allclose(e.grad, np.full((4, 3), 0.25))


def test_attention_weights_are_row_stochastic():
    model = build_model(small_config(aggregator="attention"), slice_count=10)
    he_init(model, seed=3)
    rng = np.random.default_rng(11)
    emb = Tensor(rng.normal(0, 1, (10, model.encoder.embedding_dim)).astype(np.float32))
    w = model.aggregator.attention_weights(emb)
    assert w.shape == (10, 10)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-5)
    assert (w > 0).all()


def test_aggregator_output_dims():
    cfg = small_config(aggregator="attention")
    model = build_model(cfg, slice_count=10)
    d = model.encoder.embedding_dim
    assert model.aggregator.output_dim == d  # model_dim defaults to embedding dim
    custom = ModelConfig(task="regression", axis="coronal",
                         encoder=cfg.encoder,
                         aggregator=AggregatorConfig(kind="attention", model_dim=4))
    assert build_model(custom, slice_count=10).aggregator.output_dim == 4


# ---------------------------------------------------------------------------
# whole-model forward
# ---------------------------------------------------------------------------

def test_regression_forward_returns_scalar():
    model = build_model(small_config(), slice_count=10)
    he_init(model, seed=4)
    out = model.forward_volume(rand_volume((8, 10, 8)))
    assert out.shape == ()
    assert np.isfinite(out.item())


def test_classification_forward_returns_two_logits():
    model = build_model(small_config(task="classification"), slice_count=10)
    he_init(model, seed=5)
    out = model.forward_volume(rand_volume((8, 10, 8)))
    assert out.shape == (2,)


def test_slice_count_mismatch_rejected():
    model = build_model(small_config(), slice_count=10)
    with pytest.raises(ValueError):
        model.forward_volume(rand_volume((8, 12, 8)))  # coronal axis yields 12


@pytest.mark.parametrize("kind", ["cnn5", "resnet18", "resnet50"])
def test_every_encoder_kind_forwards(kind):
    cfg = EncoderConfig(kind=kind, width_multiplier=0.125, min_input=8)
    enc = build_encoder(cfg)
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(0, 1, (3, 1, 8, 10)).astype(np.float32))
    with no_grad():
        out = enc(x)
    assert out.shape == (3, cfg.embedding_dim)
    assert np.isfinite(out.numpy()).all()


def test_cnn5_pooling_before_relu_matches_relu_before_pooling_bit_for_bit():
    """CNN5Encoder runs relu(max_pool(pad(bn(conv(x))))) with batch norm
    centring the conv output in place.  Output, every gradient and every
    buffer equal the relu -> pad -> pool order with a copying batch norm, bit
    for bit; 20x18 slices take the even padding at blocks 2, 3 and 4."""
    enc = build_encoder(EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=8))
    he_init(enc, seed=1)
    rng = np.random.default_rng(14)
    x = rng.normal(0, 1, (6, 1, 20, 18)).astype(np.float32)
    g = rng.normal(0, 1, (6, enc.embedding_dim)).astype(np.float32)

    def relu_first(x):
        for i in range(1, 6):
            block = enc._children[f"block{i}"]
            y = nn.relu(block.bn(block.conv(x)))
            x = nn.max_pool2d(nn.pad2d(y, (0, y.shape[2] % 2, 0, y.shape[3] % 2)), 2, 2)
        return nn.global_avg_pool2d(x)

    def step(forward):
        state = snapshot_state(enc)
        enc.zero_grad()
        y = forward(Tensor(x))
        (y * Tensor(g)).sum().backward()
        got = ([y.numpy().tobytes()] + [p.grad.tobytes() for p in enc.parameters()]
               + [b.tobytes() for _, b in enc.named_buffers()])
        nn.load_state(enc, state)
        return got

    assert step(enc) == step(relu_first)


def test_encoder_pads_small_slices_to_min_input():
    cfg = EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=16, pad_to_min=True)
    enc = build_encoder(cfg)
    x = Tensor(np.random.default_rng(13).normal(0, 1, (2, 1, 8, 6)).astype(np.float32))
    with no_grad():
        out = enc(x)
    assert out.shape == (2, cfg.embedding_dim)


# ---------------------------------------------------------------------------
# config serialization
# ---------------------------------------------------------------------------

def test_model_config_round_trips_through_dict():
    cfg = ModelConfig(
        task="classification", axis="axial",
        encoder=EncoderConfig(kind="resnet18", width_multiplier=0.5, min_input=16),
        aggregator=AggregatorConfig(kind="attention", model_dim=8, ff_hidden_dim=32),
        positional_enabled=True,
    )
    assert build_dataclass(ModelConfig, asdict(cfg), "model config") == cfg


def test_config_dict_rejects_unknown_keys():
    data = asdict(ModelConfig())
    data["encoder"]["dropout"] = 0.5
    with pytest.raises(ValueError, match="dropout"):
        build_dataclass(ModelConfig, data, "model config")
    with pytest.raises(ValueError, match="banana"):
        build_dataclass(AggregatorConfig, {"banana": 1}, "aggregator")


def test_invalid_config_values_rejected():
    with pytest.raises(ValueError):
        ModelConfig(task="ranking")
    with pytest.raises(ValueError):
        ModelConfig(axis="oblique")
    with pytest.raises(ValueError):
        AggregatorConfig(kind="max")
    with pytest.raises(ValueError):
        EncoderConfig(kind="vgg")
    with pytest.raises(ValueError):
        EncoderConfig(width_multiplier=0.0)


def test_state_names_are_stable_for_transfer():
    """Weight exchange relies on these exact names; renames break saved archives."""
    model = build_model(small_config(positional=True), slice_count=4)
    names = {n for n, _, _ in model.named_state()}
    expected_subset = {
        "encoder.block1.conv.weight", "encoder.block1.bn.weight",
        "encoder.block1.bn.bias", "encoder.block1.bn.running_mean",
        "encoder.block1.bn.running_var", "encoder.block5.conv.weight",
        "positional.table", "head.weight", "head.bias",
    }
    assert expected_subset <= names
