"""Slice-set model geometry, positional table, aggregation, and config plumbing."""

from dataclasses import asdict

import numpy as np
import pytest

from sliceset import encoders, nn
from sliceset.data import Volume
from sliceset.encoders import EncoderConfig, build_encoder
from sliceset.model import (AggregatorConfig, ModelConfig, SliceSetModel,
                            aggregate_mean, build_dataclass, build_model,
                            permute_volume, restack_volume, slice_count_for,
                            slice_volume)
from sliceset.tensor import Tensor, concat, no_grad
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
    slices = slice_volume(vol, axis)
    k = slice_count_for(vol.extents, axis)
    assert slices.shape == (k, 1, *expected_hw)


@pytest.mark.parametrize("axis", ["sagittal", "coronal", "axial"])
def test_restack_is_bit_exact_inverse(axis):
    vol = rand_volume((91, 109, 91), seed=1)
    back = restack_volume(slice_volume(vol, axis), axis)
    assert back.dtype == vol.voxels.dtype
    np.testing.assert_array_equal(back, vol.voxels)


def test_slice_volume_replicates_channels():
    vol = rand_volume((4, 5, 6))
    slices = slice_volume(vol, "sagittal", input_channels=3)
    assert slices.shape == (4, 3, 5, 6)
    np.testing.assert_array_equal(slices[:, 0], slices[:, 2])


def test_slice_volume_content_matches_direct_indexing():
    vol = rand_volume((3, 4, 5), seed=2)
    np.testing.assert_array_equal(slice_volume(vol, "coronal")[2, 0],
                                  vol.voxels[:, 2, :])
    np.testing.assert_array_equal(slice_volume(vol, "axial")[4, 0],
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
    e = rng.normal(0, 1, (1, 12, 6)).astype(np.float32)
    out = aggregate_mean(Tensor(e)).numpy()
    np.testing.assert_allclose(out, e.mean(axis=1), atol=1e-6)


def test_aggregate_mean_is_bitwise_permutation_invariant():
    rng = np.random.default_rng(10)
    e = rng.normal(0, 1, (1, 40, 8)).astype(np.float32)
    base = aggregate_mean(Tensor(e)).numpy()
    for _ in range(5):
        perm = rng.permutation(40)
        np.testing.assert_array_equal(aggregate_mean(Tensor(e[:, perm])).numpy(), base)


def test_aggregate_mean_gradient_is_uniform():
    e = Tensor(np.ones((1, 4, 3), dtype=np.float64), requires_grad=True, dtype=np.float64)
    aggregate_mean(e).sum().backward()
    np.testing.assert_allclose(e.grad, np.full((1, 4, 3), 0.25))


def test_attention_weights_are_row_stochastic():
    model = build_model(small_config(aggregator="attention"), slice_count=10)
    he_init(model, seed=3)
    rng = np.random.default_rng(11)
    emb = Tensor(rng.normal(0, 1, (1, 10, model.encoder.embedding_dim)).astype(np.float32))
    w = model.aggregator.attention_weights(emb)
    assert w.shape == (1, 10, 10)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)
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
    assert out.shape == (3, {"cnn5": 4, "resnet18": 64, "resnet50": 256}[kind])
    assert np.isfinite(out.numpy()).all()


_BASIC = "conv1.weight bn1.weight bn1.bias conv2.weight bn2.weight bn2.bias".split()
_BOTTLENECK = _BASIC + "conv3.weight bn3.weight bn3.bias".split()
_DOWNSAMPLE = "downsample.0.weight downsample.1.weight downsample.1.bias".split()
_STATS = ["bn1.running_mean", "bn1.running_var", "bn2.running_mean", "bn2.running_var"]
_BOTTLENECK_STATS = _STATS + ["bn3.running_mean", "bn3.running_var"]
_DOWNSAMPLE_STATS = ["downsample.1.running_mean", "downsample.1.running_var"]


@pytest.mark.parametrize("kind,width,count,layer1,layer2,strided_conv", [
    ("resnet18", 0.25, 100, _BASIC + _STATS,
     _BASIC + _DOWNSAMPLE + _STATS + _DOWNSAMPLE_STATS, "conv1"),
    ("resnet50", 0.125, 265, _BOTTLENECK + _DOWNSAMPLE + _BOTTLENECK_STATS + _DOWNSAMPLE_STATS,
     _BOTTLENECK + _DOWNSAMPLE + _BOTTLENECK_STATS + _DOWNSAMPLE_STATS, "conv2"),
], ids=["resnet18", "resnet50"])
def test_resnet_state_layout_mirrors_torchvision(kind, width, count, layer1, layer2, strided_conv):
    """Checkpoints, archives and converted pretrained weights address resnet
    tensors by these ordered names; he_init draws in the same order.  Only
    the first block of a stage downsamples: resnet18 strides its first 3x3
    conv, resnet50 its middle 3x3, and resnet50's layer1.0 widens 4x."""
    enc = build_encoder(EncoderConfig(kind=kind, width_multiplier=width))
    names = [n for n, _, _ in enc.named_state()]
    assert len(names) == count
    for stage, expected in (("layer1.0.", layer1), ("layer2.0.", layer2)):
        assert [n[len(stage):] for n in names if n.startswith(stage)] == expected
    assert not any(n.startswith(("layer1.1.downsample", "layer2.1.downsample")) for n in names)
    assert getattr(enc.layer2[0], strided_conv).stride == 2
    assert enc.layer1[0].conv2.stride == enc.layer2[1].conv2.stride == 1


def test_model_rejects_slice_count_below_one():
    for count in (0, -1):
        with pytest.raises(ValueError, match=f"slice_count must be at least 1, got {count}$"):
            SliceSetModel(small_config(), count)


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


@pytest.mark.parametrize("frozen", [False, True], ids=["training", "frozen-stats"])
def test_cnn5_pools_odd_maps_without_a_pad2d_node(monkeypatch, frozen):
    """On 17x19 slices every cnn5 pool but the last meets an odd extent, and
    each pool pads its input to even itself: no pad2d call, no pad2d node in
    the training graph, four max-pool nodes and the stem op.  The bit-for-bit
    references with pad2d are the pooling-order and stem tests."""
    enc = build_encoder(EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=8))
    he_init(enc, seed=1)
    for _, mod in enc.named_modules():
        if isinstance(mod, nn.BatchNorm2d):
            mod.freeze_stats = frozen
    pads = []
    monkeypatch.setattr(encoders, "pad2d", lambda x, pad: pads.append(pad) or nn.pad2d(x, pad))
    x = Tensor(np.random.default_rng(3).normal(0, 1, (4, 1, 17, 19)), requires_grad=True)
    y = enc(x)
    rules, stack, seen = [], [y.node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
            rules.append(node.rule.__qualname__.split(".")[0] if node.rule else None)
    assert pads == [] and "pad2d" not in rules
    assert rules.count("max_pool2d") == 4 and rules.count("conv_bn_pool_relu") == 1
    assert y.shape == (4, enc.embedding_dim)


def test_resnet_pooling_before_relu_matches_relu_before_pooling_bit_for_bit():
    """ResNetEncoder max-pools its stem's batch-norm output before the relu.
    Output, the input gradient, every parameter gradient and every buffer
    equal the relu -> pool order, bit for bit.  Slices of constant 10x10
    patches make tied stem outputs and windows with no positive entry, and
    the 3x3 stride-2 pool's padding reaches into every border window."""
    enc = build_encoder(EncoderConfig(kind="resnet18", width_multiplier=0.25, min_input=8))
    he_init(enc, seed=3)
    rng = np.random.default_rng(16)
    x = np.kron(rng.choice([-1.0, 0.0, 0.0, 1.0], (6, 1, 2, 2)), np.ones((10, 10))).astype(np.float32)
    g = rng.normal(0, 1, (6, enc.embedding_dim)).astype(np.float32)

    def relu_first(x):
        y = nn.max_pool2d(nn.relu(enc.bn1(enc.conv1(x))), 3, 2, padding=1)
        for stage in range(1, 5):
            for blk in enc._children[f"layer{stage}"]:
                y = blk(y)
        return nn.global_avg_pool2d(y)

    def step(forward):
        state = snapshot_state(enc)
        enc.zero_grad()
        xt = Tensor(x, requires_grad=True)
        y = forward(xt)
        (y * Tensor(g)).sum().backward()
        got = ([y.numpy().tobytes(), xt.grad.tobytes()] + [p.grad.tobytes() for p in enc.parameters()]
               + [b.tobytes() for _, b in enc.named_buffers()])
        nn.load_state(enc, state)
        return got

    state = snapshot_state(enc)
    with no_grad():
        stem_out = enc.bn1(enc.conv1(Tensor(x))).numpy()
    nn.load_state(enc, state)
    windows = nn.max_pool2d(Tensor(stem_out), 3, 2, padding=1).numpy()
    assert (windows < 0).any() and np.unique(stem_out).size < stem_out.size // 2
    assert step(enc) == step(relu_first)


@pytest.mark.parametrize("frozen", [False, True], ids=["training", "frozen-stats"])
@pytest.mark.parametrize("kind", ["cnn5", "resnet18"])
def test_stem_recompute_matches_keeping_the_conv_output_bit_for_bit(monkeypatch, kind, frozen):
    """The stem op keeps no conv output: its forward and its backward each
    run ``nn.conv2d`` once per batch-norm group, one volume (2 slices) at a
    time in training mode and the whole batch with frozen statistics.
    Output, loss, every gradient and every running buffer equal an encoder
    whose stem keeps its conv output (one conv call per volume, joined, then
    grouped batch norm, pool and relu) bit for bit, with per-group moments
    (3 groups) in training mode and with frozen statistics.  The one
    exception is the stem kernel's gradient with several groups: the op
    sums it per volume in float32, the joined graph in its own order, so
    they agree within 1e-6.  The resnet18 stem's 10x9 maps give 180-column
    GEMMs per volume, not a multiple of 8 wide."""
    enc = build_encoder(EncoderConfig(kind=kind, width_multiplier=0.25, min_input=8))
    he_init(enc, seed=2)
    rng = np.random.default_rng(15)
    for _, mod in enc.named_modules():
        if isinstance(mod, nn.BatchNorm2d):
            mod.freeze_stats, mod.group_size = frozen, 2
            mod.running_mean[...] = rng.normal(0, 0.2, mod.running_mean.shape)
            mod.running_var[...] = rng.uniform(0.5, 2.0, mod.running_var.shape)
    x = rng.normal(0, 1, (6, 1, 20, 18)).astype(np.float32)
    g = rng.normal(0, 1, (6, enc.embedding_dim)).astype(np.float32)
    calls = []
    conv2d = nn.conv2d

    def counting_conv2d(x, kernel, stride=1, padding=0):
        if x.shape[1] == 1:                      # only the stem reads the slices
            calls.append(x.shape[0])
        return conv2d(x, kernel, stride, padding)

    def step():
        state = snapshot_state(enc)
        enc.zero_grad()
        y = enc(Tensor(x))
        loss = (y * Tensor(g)).sum()
        loss.backward()
        got = ([y.numpy().tobytes(), loss.numpy().tobytes()]
               + [p.grad.tobytes() for p in enc.parameters()]
               + [b.tobytes() for _, b in enc.named_buffers()])
        stem_kernel = next(p.grad.copy() for p in enc.parameters())
        nn.load_state(enc, state)
        return got, stem_kernel

    monkeypatch.setattr(nn, "conv2d", counting_conv2d)
    recomputing, kernel_grad = step()
    assert calls == ([6, 6] if frozen else [2] * 6)

    def keeping(x, conv, bn, pool, stride, padding=0):
        k = x.shape[0] // bn.groups(x.shape[0])
        y = bn(concat([conv(Tensor(x.data[s:s + k])) for s in range(0, x.shape[0], k)]))
        if not isinstance(padding, int):
            y, padding = nn.pad2d(y, padding), 0
        return nn.relu(nn.max_pool2d(y, pool, stride, padding))

    monkeypatch.setattr(encoders, "conv_bn_pool_relu", keeping)
    kept, kept_kernel_grad = step()
    if frozen:
        assert kept == recomputing
    else:
        assert kept[:2] + kept[3:] == recomputing[:2] + recomputing[3:]
        np.testing.assert_allclose(kernel_grad, kept_kernel_grad, rtol=1e-6,
                                   atol=1e-6 * np.abs(kept_kernel_grad).max())


@pytest.mark.parametrize("kind", ["cnn5", "resnet18"])
def test_model_encoder_normalizes_each_volume_by_its_own_moments(kind):
    """A slice-set model's encoder batch-norms one volume's K slices together
    in training mode, however it is called: one direct call on two volumes'
    slices gives what two one-volume calls give, outputs, gradients and the
    running buffers after both, the first volume's update first."""
    model = build_model(small_config(kind=kind), slice_count=4)
    he_init(model, seed=6)
    enc = model.encoder
    rng = np.random.default_rng(8)
    x = rng.normal(0, 1, (8, 1, 10, 9)).astype(np.float32)
    x[4:] = 3.0 * x[4:] + 2.0                 # the volumes' moments differ
    g = rng.normal(0, 1, (8, enc.embedding_dim)).astype(np.float32)
    start = snapshot_state(enc)

    def step(lo, hi):
        y = enc(Tensor(x[lo:hi]))
        (y * Tensor(g[lo:hi])).sum().backward()
        return y.numpy()

    enc.zero_grad()
    together = step(0, 8)
    grads = [p.grad.copy() for p in enc.parameters()]
    buffers = [b.copy() for _, b in enc.named_buffers()]
    nn.load_state(enc, start)
    enc.zero_grad()
    alone = np.concatenate([step(0, 4), step(4, 8)])
    pairs = [(together, alone)]
    pairs += zip(grads, [p.grad for p in enc.parameters()])
    pairs += zip(buffers, [b for _, b in enc.named_buffers()])
    for got, want in pairs:       # up to float32 GEMM roundoff, which varies with the batch
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5 * np.abs(want).max())


@pytest.mark.parametrize("kind", ["cnn5", "resnet18", "resnet50"])
def test_module_walk_and_mode_switch_follow_named_modules_order(kind):
    model = build_model(small_config(kind=kind, aggregator="attention", positional=True), 4)
    walked = model.modules()
    assert len(walked) == len(list(model.named_modules()))
    assert all(a is b for a, (_, b) in zip(walked, model.named_modules()))
    assert not any(mod.training for mod in model.eval().modules())
    assert all(mod.training for mod in model.train().modules())


def test_encoder_pads_small_slices_to_min_input():
    cfg = EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=16, pad_to_min=True)
    enc = build_encoder(cfg)
    x = Tensor(np.random.default_rng(13).normal(0, 1, (2, 1, 8, 6)).astype(np.float32))
    with no_grad():
        out = enc(x)
    assert out.shape == (2, 8)


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
