"""System-level acceptance tests.

Nine checks, one per headline guarantee, each run at desk scale through the
public API or CLI.  Every test states its numeric bar in its docstring,
performs the real computation (no mocks on the path under measurement), and
finishes with a single PASS/FAIL line carrying the measured values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

import sliceset.train as train_module
from sliceset.checks import gradient_suite
from sliceset.cli import main
from sliceset.data import (
    SyntheticSpec,
    Volume,
    generate_synthetic,
    generate_synthetic_images,
    make_splits,
    normalize,
)
from sliceset.encoders import EncoderConfig, build_encoder
from sliceset.metrics import average_precision, balanced_accuracy, f1, mae, rmse
from sliceset.model import (
    AggregatorConfig,
    ModelConfig,
    build_model,
    permute_volume,
    restack_volume,
    slice_count_for,
    slice_volume,
)
from sliceset.tensor import Tensor, no_grad
from sliceset.train import (
    OptimizerConfig,
    TrainConfig,
    batch_loss,
    build_optimizer,
    evaluate,
    he_init,
    pretrain_2d,
    train,
)
from sliceset.weights import (
    WeightArchive,
    export_weights,
    import_encoder,
    import_strict,
)

TINY_ENCODER = EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=8)


def _verdict(ok: bool, line: str):
    """Print the one-line verdict for this check, then enforce it."""
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


def _small_model(task="regression", aggregator="mean", positional=False,
                 extents=(6, 10, 8), axis="coronal", seed=0, encoder=TINY_ENCODER):
    config = ModelConfig(task=task, axis=axis, encoder=encoder,
                         aggregator=AggregatorConfig(kind=aggregator),
                         positional_enabled=positional)
    model = build_model(config, slice_count_for(extents, axis))
    he_init(model, seed=seed)
    return model


def _synthetic_split(task, count, fractions, *, noise_std=0.1, seed=42,
                     extents=(8, 10, 8), signal_axis="coronal", amplitude=2.0,
                     blob_radius=2):
    spec = SyntheticSpec(extents=extents, task=task, count=count, seed=seed,
                         blob_radius=blob_radius, noise_std=noise_std,
                         blob_amplitude=amplitude, signal_axis=signal_axis)
    volumes = [normalize(v) for v in generate_synthetic(spec)]
    return make_splits(volumes, fractions=fractions, seed=0)


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences_across_configurations():
    """≥20 randomized configs, including two whole slice-set models on
    8x12x8 volumes, stay within relative error 1e-3 of central differences
    in under 5 minutes."""
    started = time.perf_counter()
    report = gradient_suite(seed=0)
    elapsed = time.perf_counter() - started
    names = [r.name for r in report.results]
    ok = (report.passed
          and len(names) >= 20
          and "model.cnn5-mean.regression" in names
          and "model.cnn5-attention.regression" in names
          and report.worst < 1e-3
          and elapsed < 300.0)
    _verdict(ok, f"gradient check: {len(names)} configurations, worst relative "
                 f"error {report.worst:.3e} (bar 1e-3), {elapsed:.1f}s (bar 300s)")


# ---------------------------------------------------------------------------
# 2. permutation invariance
# ---------------------------------------------------------------------------

def test_predictions_invariant_to_slice_order_without_positions():
    """100 random (volume, permutation) pairs per aggregator change the
    prediction by less than 1e-5·(1+|prediction|); a zero-initialized
    positional table reproduces the disabled-table outputs bit for bit."""
    extents, axis = (6, 10, 8), "coronal"
    k = slice_count_for(extents, axis)
    rng = np.random.default_rng(21)
    worst = {}
    for kind in ("mean", "attention"):
        model = _small_model(aggregator=kind, extents=extents, axis=axis, seed=4)
        model.eval()
        ratio = 0.0
        with no_grad():
            for _ in range(100):
                volume = Volume(voxels=rng.normal(0, 1, extents).astype(np.float32))
                perm = rng.permutation(k)
                base = model.forward_volume(volume).item()
                moved = model.forward_volume(permute_volume(volume, axis, perm)).item()
                ratio = max(ratio, abs(base - moved) / (1.0 + abs(base)))
        worst[kind] = ratio

    plain = _small_model(extents=extents, axis=axis, seed=4)
    tabled = _small_model(positional=True, extents=extents, axis=axis, seed=4)
    assert not tabled.positional.table.numpy().any()  # zero-initialized
    plain.eval()
    tabled.eval()
    identical = True
    with no_grad():
        for _ in range(10):
            volume = Volume(voxels=rng.normal(0, 1, extents).astype(np.float32))
            identical &= np.array_equal(plain.forward_volume(volume).numpy(),
                                        tabled.forward_volume(volume).numpy())

    ok = worst["mean"] < 1e-5 and worst["attention"] < 1e-5 and identical
    _verdict(ok, f"slice-order invariance over 100 pairs/aggregator: worst "
                 f"|Δ|/(1+|pred|) mean {worst['mean']:.3e}, attention "
                 f"{worst['attention']:.3e} (bar 1e-5); zero-table outputs "
                 f"bit-identical: {identical}")


# ---------------------------------------------------------------------------
# 5. metric oracle equivalence
# ---------------------------------------------------------------------------

def _mae_oracle(predictions, targets):
    return sum(abs(float(p) - float(t)) for p, t in zip(predictions, targets)) \
        / len(predictions)


def _rmse_oracle(predictions, targets):
    return math.sqrt(sum((float(p) - float(t)) ** 2 for p, t in
                         zip(predictions, targets)) / len(predictions))


def _balanced_accuracy_oracle(predictions, targets):
    tp = sum(1 for p, t in zip(predictions, targets) if p == 1 and t == 1)
    tn = sum(1 for p, t in zip(predictions, targets) if p == 0 and t == 0)
    pos = sum(1 for t in targets if t == 1)
    neg = len(targets) - pos
    return 0.5 * (tp / pos + tn / neg)


def _f1_oracle(predictions, targets):
    tp = sum(1 for p, t in zip(predictions, targets) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(predictions, targets) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(predictions, targets) if p == 0 and t == 1)
    return 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)


def _average_precision_oracle(scores, targets):
    """Walk the stable descending ranking, averaging precision at each hit."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    hits, total = 0, 0.0
    for rank, idx in enumerate(order, start=1):
        if targets[idx] == 1:
            hits += 1
            total += hits / rank
    return total / sum(1 for t in targets if t == 1)


def test_metrics_match_definitional_oracles():
    """On 100 random instances (n ≤ 200) plus degenerate cases, every metric
    matches a loop-based definitional oracle within 1e-9."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):  # regression instances
        n = int(rng.integers(1, 201))
        predictions = rng.normal(0, 3, n)
        targets = rng.normal(0, 3, n)
        worst = max(worst,
                    abs(mae(predictions, targets) - _mae_oracle(predictions, targets)),
                    abs(rmse(predictions, targets) - _rmse_oracle(predictions, targets)))
    for i in range(50):  # classification instances, both classes guaranteed
        n = int(rng.integers(2, 201))
        targets = rng.integers(0, 2, n)
        targets[0], targets[1] = 0, 1
        predictions = rng.integers(0, 2, n)
        scores = rng.random(n)
        if i % 2 == 0:
            scores = scores.round(1)  # deliberate score ties
        worst = max(
            worst,
            abs(balanced_accuracy(predictions, targets)
                - _balanced_accuracy_oracle(predictions, targets)),
            abs(f1(predictions, targets) - _f1_oracle(predictions, targets)),
            abs(average_precision(scores, targets)
                - _average_precision_oracle(scores, targets)))

    # degenerate cases called out by contract
    no_positive_predictions = f1([0, 0, 0, 0], [0, 1, 1, 0])
    perfect = (balanced_accuracy([0, 1, 0, 1], [0, 1, 0, 1]),
               f1([0, 1, 0, 1], [0, 1, 0, 1]),
               average_precision([0.1, 0.9, 0.2, 0.8], [0, 1, 0, 1]),
               mae([1.5, 2.5], [1.5, 2.5]), rmse([1.5, 2.5], [1.5, 2.5]))
    degenerate_ok = (no_positive_predictions == 0.0
                     and perfect == (1.0, 1.0, 1.0, 0.0, 0.0))

    ok = worst < 1e-9 and degenerate_ok
    _verdict(ok, f"metric oracle agreement on 100 random instances: worst "
                 f"|Δ| {worst:.3e} (bar 1e-9); degenerate cases exact: "
                 f"{degenerate_ok}")


# ---------------------------------------------------------------------------
# 6. slicing geometry
# ---------------------------------------------------------------------------

def test_slicing_covers_every_axis_and_restacks_exactly():
    """A 91x109x91 volume yields 91/109/91 slices with the right per-slice
    extents, and restacking returns the voxels bit-exactly."""
    rng = np.random.default_rng(5)
    volume = Volume(voxels=rng.normal(0, 1, (91, 109, 91)).astype(np.float32),
                    subject_id="geometry")
    expected = {"sagittal": (91, (109, 91)),
                "coronal": (109, (91, 91)),
                "axial": (91, (91, 109))}
    counts, exact = {}, True
    for axis, (k, plane) in expected.items():
        slices = slice_volume(volume, axis, 1)
        counts[axis] = slices.shape[0]
        assert slices.shape == (k, 1) + plane, axis
        back = restack_volume(slices, axis)
        exact &= (back.dtype == volume.voxels.dtype
                  and np.array_equal(back, volume.voxels))
    ok = counts == {"sagittal": 91, "coronal": 109, "axial": 91} and exact
    _verdict(ok, f"slice counts {counts} for a 91x109x91 volume; "
                 f"restack bit-exact on every axis: {exact}")


# ---------------------------------------------------------------------------
# 7. training protocol fidelity
# ---------------------------------------------------------------------------

def test_training_protocol_epoch_count_selection_and_aggregation(
        monkeypatch, tmp_path):
    """The loop runs exactly `epochs` epochs with one validation pass per
    epoch, picks the earliest best epoch under the task's selection metric,
    and multi-seed runs report mean ± std across 5 seeds."""
    splits = _synthetic_split("regression", 16, (0.5, 0.25, 0.25))
    train_vols, val_vols, _ = (s.records for s in splits)

    # one validation per epoch, exactly `epochs` epochs
    validations = []
    real_metric = train_module._validation_metric

    def counting_metric(model, volumes, metric, epoch):
        validations.append(metric)
        return real_metric(model, volumes, metric, epoch)

    monkeypatch.setattr(train_module, "_validation_metric", counting_metric)
    model = _small_model(seed=1)
    result = train(model, train_vols, val_vols,
                   TrainConfig(epochs=6, batch_size=4, loss="l1", seed=1),
                   OptimizerConfig(kind="adam", learning_rate=1e-3))
    epochs_ok = (len(result.log) == 6 and len(validations) == 6
                 and [r["epoch"] for r in result.log] == [1, 2, 3, 4, 5, 6])

    # earliest-best selection for a minimized and a maximized metric
    def scripted(values):
        queue = list(values)
        monkeypatch.setattr(train_module, "_validation_metric",
                            lambda *a: queue.pop(0))

    scripted([5.0, 3.0, 3.0, 4.0])  # min-mae: epochs 2 and 3 tie, keep 2
    best_low = train(_small_model(seed=2), train_vols, val_vols,
                     TrainConfig(epochs=4, batch_size=4, loss="l1", seed=2),
                     OptimizerConfig(kind="adam", learning_rate=1e-3)).best_epoch

    cls_splits = _synthetic_split("classification", 16, (0.5, 0.25, 0.25))
    scripted([0.5, 0.8, 0.8, 0.6])  # max-balanced-accuracy: keep epoch 2
    best_high = train(_small_model(task="classification", seed=3),
                      cls_splits[0].records, cls_splits[1].records,
                      TrainConfig(epochs=4, batch_size=4, seed=3),
                      OptimizerConfig(kind="adam", learning_rate=1e-3)).best_epoch
    monkeypatch.setattr(train_module, "_validation_metric", real_metric)
    selection_ok = best_low == 2 and best_high == 2

    # 5-seed aggregation through the CLI reports mean ± std
    root = tmp_path / "data"
    for name, count, seed in (("train", 8, 0), ("val", 4, 1), ("test", 4, 2)):
        code, _, err = _run_cli(
            "synth", "--out", str(root / name), "--count", str(count),
            "--seed", str(seed), "--extents", "8,10,8", "--blob-radius", "2",
            "--signal-axis", "coronal")
        assert code == 0, err
    out = tmp_path / "run"
    code, stdout, err = _run_cli(
        "train", "--train-manifest", str(root / "train" / "manifest.json"),
        "--val-manifest", str(root / "val" / "manifest.json"),
        "--test-manifest", str(root / "test" / "manifest.json"),
        "--output-dir", str(out), "--axis", "coronal", "--encoder", "cnn5",
        "--width-multiplier", "0.25", "--min-input", "8", "--epochs", "2",
        "--batch-size", "4", "--loss", "l1", "--seed", "0", "--seeds", "5")
    assert code == 0, err
    summary = json.loads((out / "summary.json").read_text())
    seed_maes = [r["mae"] for r in summary["per_seed"]]
    aggregation_ok = (len(seed_maes) == 5
                      and summary["mean"]["mae"] == pytest.approx(np.mean(seed_maes))
                      and summary["std"]["mae"] == pytest.approx(np.std(seed_maes))
                      and "±" in stdout and "(5 seeds)" in stdout)

    ok = epochs_ok and selection_ok and aggregation_ok
    _verdict(ok, f"protocol: 6 requested epochs -> {len(result.log)} log records, "
                 f"{len(validations)} validation passes; earliest-best epoch "
                 f"min-metric {best_low} and max-metric {best_high} (expected 2); "
                 f"5-seed mean±std reported: {aggregation_ok}")


# ---------------------------------------------------------------------------
# 8. serialization and encoder transfer
# ---------------------------------------------------------------------------

def test_weight_archives_round_trip_and_transfer_encoders():
    """Export → bytes → import is byte-stable and forward-identical;
    importing a 2D-pretrained archive reproduces the standalone encoder's
    embeddings within 1e-5 and the load report accounts for every tensor."""
    model = _small_model(aggregator="attention", positional=True, seed=6)
    first = export_weights(model, {"note": "acceptance"}).to_bytes()
    archive = WeightArchive.from_bytes(first)
    byte_stable = archive.to_bytes() == first

    clone = _small_model(aggregator="attention", positional=True, seed=9)
    import_strict(clone, archive)
    volume = Volume(voxels=np.random.default_rng(8)
                    .normal(0, 1, (6, 10, 8)).astype(np.float32))
    model.eval()
    clone.eval()
    with no_grad():
        forward_identical = np.array_equal(model.forward_volume(volume).numpy(),
                                           clone.forward_volume(volume).numpy())

    images, labels = generate_synthetic_images(40, size=(8, 8), seed=3)
    pretrained = pretrain_2d(TINY_ENCODER, images, labels, epochs=2,
                             batch_size=8, seed=7)
    target = _small_model(seed=12)
    target, load_report = import_encoder(target, pretrained.archive)
    target.eval()
    standalone = build_encoder(TINY_ENCODER)
    for name, array, _ in standalone.named_state():
        array[...] = pretrained.archive["encoder." + name]
    standalone.eval()
    slices = slice_volume(volume, "coronal", 1)
    with no_grad():
        via_model = target.encoder(Tensor(slices)).numpy()
        direct = standalone(Tensor(slices)).numpy()
    embedding_gap = float(np.abs(via_model - direct).max())

    model_names = {name for name, _, _ in target.named_state()}
    matched = set(load_report.matched)
    accounted = (matched | set(load_report.reinitialized) == model_names
                 and not matched & set(load_report.reinitialized)
                 and set(load_report.skipped) == set(pretrained.archive.entries) - matched)

    ok = (byte_stable and forward_identical and embedding_gap < 1e-5 and accounted)
    _verdict(ok, f"archive round-trip byte-stable: {byte_stable}, forward "
                 f"bit-identical: {forward_identical}; imported-encoder embedding "
                 f"gap {embedding_gap:.3e} (bar 1e-5); load report accounts for "
                 f"all {len(model_names)} tensors: {accounted}")


# ---------------------------------------------------------------------------
# 9. overfit sanity
# ---------------------------------------------------------------------------

def _overfit_epochs(kind, width, extents, axis, min_input, lr):
    """Epochs until full-batch l1 loss falls under 10% of its initial value."""
    spec = SyntheticSpec(extents=extents, task="regression", count=8, seed=11,
                         blob_radius=2, signal_axis=axis)
    volumes = [normalize(v) for v in generate_synthetic(spec)]
    encoder = EncoderConfig(kind=kind, width_multiplier=width, min_input=min_input)
    model = _small_model(extents=extents, axis=axis, encoder=encoder, seed=0)
    model.train()
    optimizer = build_optimizer(model.parameters(),
                                OptimizerConfig(kind="adam", learning_rate=lr))
    with no_grad():
        initial = float(batch_loss(model, volumes, "l1").item())
    for epoch in range(1, 201):
        loss = batch_loss(model, volumes, "l1")
        model.zero_grad()
        loss.backward()
        optimizer.step()
        if float(loss.item()) < 0.1 * initial:
            return epoch, initial
    return None, initial


def test_each_encoder_kind_overfits_a_tiny_training_set():
    """Eight volumes are fit to <10% of the initial training loss within 200
    epochs for every encoder kind at reduced width."""
    settings = (("cnn5", 0.5, (16, 20, 16), "sagittal", 8, 3e-3),
                ("resnet18", 0.25, (8, 10, 8), "coronal", 32, 1e-3),
                ("resnet50", 0.125, (8, 10, 8), "coronal", 32, 1e-3))
    reached = {}
    for kind, width, extents, axis, min_input, lr in settings:
        epoch, initial = _overfit_epochs(kind, width, extents, axis, min_input, lr)
        reached[kind] = epoch
    ok = all(epoch is not None for epoch in reached.values())
    detail = ", ".join(f"{kind} at epoch {epoch}" if epoch else f"{kind}: NOT reached"
                       for kind, epoch in reached.items())
    _verdict(ok, f"8-volume overfit to <10% initial loss within 200 epochs: {detail}")


# ---------------------------------------------------------------------------
# 3. positional-encoding effect
# ---------------------------------------------------------------------------

def test_positional_table_improves_slice_position_regression():
    """On blob-position regression (noise 0.1, 200/50/50 split, cnn5 encoder,
    60 epochs, adam 1e-3), enabling the positional table gives strictly lower
    test MAE on ≥2 of 3 seeds, and the trained position-aware model breaks
    slice-order invariance by more than 1e-3."""
    extents, axis = (8, 10, 8), "coronal"
    splits = _synthetic_split("regression", 300, (200 / 300, 50 / 300, 50 / 300),
                              noise_std=0.1, extents=extents, signal_axis=axis)
    train_vols, val_vols, test_vols = (s.records for s in splits)
    assert (len(train_vols), len(val_vols), len(test_vols)) == (200, 50, 50)

    def fit(positional, seed):
        model = _small_model(aggregator="attention", positional=positional,
                             extents=extents, axis=axis, seed=seed)
        result = train(model, train_vols, val_vols,
                       TrainConfig(epochs=60, batch_size=8, loss="l1", seed=seed),
                       OptimizerConfig(kind="adam", learning_rate=1e-3))
        result.best.restore(model)
        return evaluate(model, test_vols).mae, model

    wins, pairs, aware_model = 0, [], None
    for seed in (0, 1, 2):
        with_table, aware_model = fit(True, seed)
        without_table, _ = fit(False, seed)
        wins += with_table < without_table
        pairs.append((with_table, without_table))

    rng = np.random.default_rng(9)
    k = slice_count_for(extents, axis)
    aware_model.eval()
    violation = 0.0
    with no_grad():
        probe = test_vols[0]
        base = aware_model.forward_volume(probe).item()
        for _ in range(10):
            perm = rng.permutation(k)
            moved = aware_model.forward_volume(permute_volume(probe, axis, perm)).item()
            violation = max(violation, abs(base - moved))

    detail = "; ".join(f"seed {s}: PE {a:.3f} vs {b:.3f}"
                       for s, (a, b) in enumerate(pairs))
    ok = wins >= 2 and violation > 1e-3
    _verdict(ok, f"positional table lowers test MAE on {wins}/3 seeds ({detail}); "
                 f"trained model's worst order sensitivity {violation:.3e} "
                 f"(must exceed 1e-3)")


# ---------------------------------------------------------------------------
# 4. transfer-learning direction
# ---------------------------------------------------------------------------

def test_pretrained_encoder_beats_scratch_on_volume_classification():
    """A cnn5 encoder pretrained on 1,000 2D blob images to >95% train
    accuracy lifts mean test balanced accuracy above random initialization
    on a 150-volume 3D classification task (30 epochs, 3 seeds per arm),
    all inside 30 minutes."""
    started = time.perf_counter()
    # Noisy volumes with a large blob: after per-volume standardisation the
    # slice-level contrast matches the 2D pretraining images, so the imported
    # features transfer directly, while 90 noisy volumes are too few to learn
    # equivalent features from scratch in 30 epochs.  Attention aggregation
    # lets the head weight the informative slices instead of averaging them
    # away.
    noise_3d, amplitude, radius = 2.0, 2.0, 3
    images, labels = generate_synthetic_images(
        1000, size=(8, 8), noise_std=1.0, blob_radius=radius,
        amplitude=amplitude / noise_3d, seed=77)
    pretrained = pretrain_2d(TINY_ENCODER, images, labels, epochs=12,
                             batch_size=32, learning_rate=1e-3, seed=0)
    pretrain_ok = pretrained.train_accuracy > 0.95

    extents, axis = (8, 10, 8), "coronal"
    splits = _synthetic_split("classification", 150, (0.6, 0.2, 0.2),
                              noise_std=noise_3d, extents=extents,
                              signal_axis=axis, amplitude=amplitude,
                              blob_radius=radius, seed=55)
    train_vols, val_vols, test_vols = (s.records for s in splits)
    assert (len(train_vols), len(val_vols), len(test_vols)) == (90, 30, 30)

    def arm(use_pretrained, seed):
        model = _small_model(task="classification", aggregator="attention",
                             extents=extents, axis=axis, seed=seed)
        if use_pretrained:
            model, _ = import_encoder(model, pretrained.archive)
        result = train(model, train_vols, val_vols,
                       TrainConfig(epochs=30, batch_size=8, seed=seed),
                       OptimizerConfig(kind="adam", learning_rate=1e-3))
        result.best.restore(model)
        return evaluate(model, test_vols).balanced_accuracy

    warm = [arm(True, seed) for seed in (0, 1, 2)]
    cold = [arm(False, seed) for seed in (0, 1, 2)]
    elapsed = time.perf_counter() - started

    ok = (pretrain_ok and float(np.mean(warm)) > float(np.mean(cold))
          and elapsed < 1800.0)
    _verdict(ok, f"2D pretraining accuracy {pretrained.train_accuracy:.3f} "
                 f"(bar 0.95); balanced accuracy per seed pretrained "
                 f"{[f'{v:.3f}' for v in warm]} vs scratch "
                 f"{[f'{v:.3f}' for v in cold]}; means {np.mean(warm):.3f} > "
                 f"{np.mean(cold):.3f}; {elapsed:.0f}s (bar 1800s)")
