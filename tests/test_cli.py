"""End-to-end exercises of the command-line interface.

Every test drives ``sliceset.cli.main`` in process with an argv list — the
same entry point the console script uses — and asserts on exit codes,
printed output, and the files each command leaves behind.  Training tests
share one completed run over a tiny synthetic dataset (8x10x8 volumes,
quarter-width encoder) so the module stays quick.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct

import numpy as np
import pytest

from sliceset.cli import LOCK_NAME, _cap_threads, main
from sliceset.data import generate_synthetic_images, read_manifest
from sliceset.encoders import EncoderConfig
from sliceset.weights import MAGIC, WeightArchive, pretrain_2d

EXTENTS = "8,10,8"

TRAIN_FLAGS = (
    "--axis", "coronal", "--encoder", "cnn5",
    "--width-multiplier", "0.25", "--min-input", "8",
    "--batch-size", "4", "--loss", "l1",
    "--optimizer", "adam", "--learning-rate", "0.001", "--seed", "0",
)


def run_cli(*argv):
    """Invoke main() with captured stdout/stderr; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def synth_dir(root, name, *, count, seed, task="regression"):
    out = root / name
    code, _, err = run_cli(
        "synth", "--out", str(out), "--count", str(count), "--seed", str(seed),
        "--task", task, "--extents", EXTENTS, "--blob-radius", "2",
        "--signal-axis", "coronal")
    assert code == 0, err
    return out


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Paths to train/val/test manifests over disjoint synthetic datasets."""
    root = tmp_path_factory.mktemp("cli-data")
    return {
        "train": str(synth_dir(root, "train", count=8, seed=0) / "manifest.json"),
        "val": str(synth_dir(root, "val", count=4, seed=1) / "manifest.json"),
        "test": str(synth_dir(root, "test", count=4, seed=2) / "manifest.json"),
    }


@pytest.fixture(scope="module")
def train_run(tmp_path_factory, data):
    """One finished 3-epoch training run: (exit code, stdout, output dir)."""
    out = tmp_path_factory.mktemp("cli-run") / "run"
    code, stdout, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(out),
        "--epochs", "3", *TRAIN_FLAGS)
    assert code == 0, err
    return code, stdout, out


@pytest.fixture(scope="module")
def pretrain_archive(tmp_path_factory):
    """A 2D-pretrained encoder archive matching the training runs' encoder."""
    images, labels = generate_synthetic_images(48, size=(8, 8), seed=5)
    encoder_config = EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=8)
    result = pretrain_2d(encoder_config, images, labels, epochs=2,
                         batch_size=16, learning_rate=1e-3, seed=0)
    path = tmp_path_factory.mktemp("cli-pretrain") / "encoder2d.ssnw"
    result.archive.save(path)
    return str(path)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_volumes_and_manifest(tmp_path):
    out = tmp_path / "ds"
    code, stdout, _ = run_cli("synth", "--out", str(out), "--count", "5",
                              "--extents", EXTENTS, "--blob-radius", "2")
    assert code == 0
    assert "wrote 5 volumes" in stdout
    entries = read_manifest(out / "manifest.json")
    assert len(entries) == 5
    for entry in entries:
        assert (out / entry["path"]).exists()


def test_synth_is_deterministic(tmp_path):
    args = ("--count", "4", "--seed", "9", "--extents", EXTENTS,
            "--blob-radius", "2")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("synth", "--out", str(a), *args)[0] == 0
    assert run_cli("synth", "--out", str(b), *args)[0] == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_synth_regression_targets_stay_inside_position_range(tmp_path):
    out = synth_dir(tmp_path, "reg", count=30, seed=3)
    targets = [entry["target"] for entry in read_manifest(out / "manifest.json")]
    # blob radius 2 along a 10-voxel axis leaves centers in [2, 7]
    assert all(2 <= t <= 7 for t in targets)
    assert all(float(t) == int(t) for t in targets)


def test_synth_classification_labels_alternate(tmp_path):
    out = synth_dir(tmp_path, "cls", count=6, seed=3, task="classification")
    targets = [entry["target"] for entry in read_manifest(out / "manifest.json")]
    assert targets == [1, 0, 1, 0, 1, 0]


def test_synth_gzip_flag_zips_every_volume(tmp_path):
    out = tmp_path / "gz"
    code, _, _ = run_cli("synth", "--out", str(out), "--count", "3",
                         "--extents", EXTENTS, "--blob-radius", "2", "--gzip")
    assert code == 0
    entries = read_manifest(out / "manifest.json")
    assert all(entry["path"].endswith(".nii.gz") for entry in entries)
    assert (out / "synth-00000.nii.gz").exists()


def test_synth_rejects_blob_larger_than_volume(tmp_path):
    code, _, err = run_cli("synth", "--out", str(tmp_path / "bad"),
                           "--extents", "6,6,6", "--blob-radius", "3")
    assert code == 2
    assert err.startswith("error:")


def test_synth_rejects_malformed_extents(tmp_path):
    code, _, err = run_cli("synth", "--out", str(tmp_path / "bad"),
                           "--extents", "8,8")
    assert code == 2
    assert "three comma-separated" in err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_succeeds_and_logs_progress(train_run):
    code, stdout, _ = train_run
    assert code == 0
    assert "resolved config:" in stdout
    assert "epoch 3/3" in stdout
    assert "seed 0 test:" in stdout


def test_train_echoes_resolved_config(train_run):
    _, _, out = train_run
    config = json.loads((out / "config.json").read_text())
    assert config["task"] == "regression"
    assert config["axis"] == "coronal"
    assert config["encoder"]["width_multiplier"] == 0.25
    assert config["train"]["epochs"] == 3
    assert config["train"]["loss"] == "l1"


def test_train_epoch_log_has_one_record_per_epoch(train_run):
    _, _, out = train_run
    lines = (out / "epochs_seed0.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["epoch"] for r in records] == [1, 2, 3]
    for record in records:
        assert set(record) == {"epoch", "train_loss", "val_metric", "wall_ms"}
        assert np.isfinite(record["train_loss"])
        assert np.isfinite(record["val_metric"])


def test_train_checkpoint_carries_rebuild_metadata(train_run):
    _, _, out = train_run
    archive = WeightArchive.load(out / "checkpoint_seed0.ssnw")
    meta = archive.metadata
    assert meta["kind"] == "slice-set-checkpoint"
    assert meta["slice_count"] == "10"
    assert meta["extents"] == EXTENTS
    assert meta["task"] == "regression"
    assert meta["normalize"] == "true"
    assert 1 <= int(meta["epoch"]) <= 3


def test_train_selects_earliest_best_epoch(train_run):
    _, _, out = train_run
    records = [json.loads(line)
               for line in (out / "epochs_seed0.jsonl").read_text().splitlines()]
    metrics = [r["val_metric"] for r in records]
    earliest_best = metrics.index(min(metrics)) + 1
    meta = WeightArchive.load(out / "checkpoint_seed0.ssnw").metadata
    assert int(meta["epoch"]) == earliest_best
    assert float(meta["val_metric"]) == pytest.approx(min(metrics))


def test_train_writes_test_report(train_run):
    _, _, out = train_run
    report = json.loads((out / "eval_seed0.json").read_text())
    assert report["task"] == "regression"
    assert report["n"] == 4
    assert np.isfinite(report["mae"]) and np.isfinite(report["rmse"])


def test_train_releases_output_lock(train_run):
    _, _, out = train_run
    assert not (out / LOCK_NAME).exists()


def test_train_refuses_locked_output_dir(tmp_path, data):
    out = tmp_path / "locked"
    out.mkdir()
    (out / LOCK_NAME).write_text("12345\n")
    code, _, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(out),
        "--epochs", "1", *TRAIN_FLAGS)
    assert code == 2
    assert "locked by another run" in err
    assert (out / LOCK_NAME).exists()  # the foreign lock is left alone


def test_train_rejects_task_mismatch(tmp_path, data):
    code, _, err = run_cli(
        "train", "--task", "classification",
        "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(tmp_path / "run"),
        "--epochs", "1")
    assert code == 2
    assert "classification" in err and "regression" in err


def test_train_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dropout": 0.5}))
    code, _, err = run_cli("train", "--config", str(config))
    assert code == 2
    assert "unknown" in err and "dropout" in err


def test_train_rejects_bad_axis_in_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"axis": "diagonal"}))
    code, _, err = run_cli("train", "--config", str(config))
    assert code == 2
    assert "unknown axis" in err


def test_train_rejects_bad_axis_flag():
    # flag values are vetted by argparse itself, which exits with code 2
    with pytest.raises(SystemExit) as excinfo:
        with contextlib.redirect_stderr(io.StringIO()):
            main(["train", "--axis", "diagonal"])
    assert excinfo.value.code == 2


def test_train_requires_val_manifest(tmp_path, data):
    code, _, err = run_cli(
        "train", "--train-manifest", data["train"],
        "--output-dir", str(tmp_path / "run"), "--epochs", "1")
    assert code == 2
    assert "val" in err


@pytest.fixture(scope="module")
def multi_seed_run(tmp_path_factory, data):
    out = tmp_path_factory.mktemp("cli-seeds") / "run"
    code, stdout, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(out),
        "--epochs", "1", "--seeds", "2", *TRAIN_FLAGS)
    assert code == 0, err
    return stdout, out


def test_train_multi_seed_aggregates_metrics(multi_seed_run):
    stdout, out = multi_seed_run
    assert (out / "checkpoint_seed0.ssnw").exists()
    assert (out / "checkpoint_seed1.ssnw").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["per_seed"]) == 2
    assert set(summary["mean"]) == set(summary["std"]) == {"mae", "rmse"}
    values = [r["mae"] for r in summary["per_seed"]]
    assert summary["mean"]["mae"] == pytest.approx(np.mean(values))
    assert summary["std"]["mae"] == pytest.approx(np.std(values))
    assert "±" in stdout and "(2 seeds)" in stdout


def test_train_pretrained_import_runs_before_first_epoch(tmp_path, data,
                                                         pretrain_archive):
    out = tmp_path / "run"
    code, stdout, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(out),
        "--epochs", "1", "--pretrained", pretrain_archive, "--freeze-bn-stats",
        *TRAIN_FLAGS)
    assert code == 0, err
    assert "pretrained import from" in stdout
    assert "matched" in stdout
    assert stdout.index("pretrained import") < stdout.index("epoch 1/")
    # frozen batch-norm statistics survive the finetuning epoch untouched
    source = WeightArchive.load(pretrain_archive)
    trained = WeightArchive.load(out / "checkpoint_seed0.ssnw")
    for name in ("encoder.block1.bn.running_mean", "encoder.block1.bn.running_var"):
        np.testing.assert_array_equal(trained.entries[name], source.entries[name])


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_reproduces_training_test_report(tmp_path, train_run, data):
    _, _, out = train_run
    report_path = tmp_path / "report.json"
    code, stdout, err = run_cli(
        "eval", "--checkpoint", str(out / "checkpoint_seed0.ssnw"),
        "--manifest", data["test"], "--output", str(report_path))
    assert code == 0, err
    recomputed = json.loads(report_path.read_text())
    original = json.loads((out / "eval_seed0.json").read_text())
    assert recomputed == original
    assert "mae=" in stdout


def test_eval_aggregates_across_checkpoints(tmp_path, multi_seed_run, data):
    _, out = multi_seed_run
    report_path = tmp_path / "agg.json"
    code, stdout, _ = run_cli(
        "eval", "--checkpoint", str(out / "checkpoint_seed0.ssnw"),
        str(out / "checkpoint_seed1.ssnw"),
        "--manifest", data["test"], "--output", str(report_path))
    assert code == 0
    agg = json.loads(report_path.read_text())
    assert len(agg["per_seed"]) == 2
    assert "±" in stdout


def test_eval_rejects_task_mismatch(tmp_path, train_run):
    cls = synth_dir(tmp_path, "cls", count=4, seed=7, task="classification")
    _, _, out = train_run
    code, _, err = run_cli(
        "eval", "--checkpoint", str(out / "checkpoint_seed0.ssnw"),
        "--manifest", str(cls / "manifest.json"))
    assert code == 2
    assert "regression model" in err and "classification" in err


def test_eval_rejects_non_checkpoint_archive(pretrain_archive, data):
    code, _, err = run_cli("eval", "--checkpoint", pretrain_archive,
                           "--manifest", data["test"])
    assert code == 2
    assert "not a training checkpoint" in err


@pytest.mark.parametrize("index", [
    [],
    {"version": 1, "entries": {"w": {"offset": 0, "length": 4}}},
    {"version": 1, "entries": {"w": {"shape": [1], "offset": 0, "length": 4}}, "metadata": []},
], ids=["index-is-a-list", "entry-without-shape", "metadata-is-a-list"])
def test_eval_rejects_malformed_archive_index_without_traceback(tmp_path, data, index):
    raw_index = json.dumps(index).encode()
    path = tmp_path / "bad.ssnw"
    path.write_bytes(MAGIC + struct.pack("<Q", len(raw_index)) + raw_index + b"\0" * 4)
    code, _, err = run_cli("eval", "--checkpoint", str(path), "--manifest", data["test"])
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_reports_missing_checkpoint_file(tmp_path, data):
    code, _, err = run_cli("eval", "--checkpoint", str(tmp_path / "absent.ssnw"),
                           "--manifest", data["test"])
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# export-weights / import-weights
# ---------------------------------------------------------------------------

def test_export_weights_encoder_only(tmp_path, train_run):
    _, _, out = train_run
    target = tmp_path / "encoder.ssnw"
    code, stdout, _ = run_cli(
        "export-weights", "--checkpoint", str(out / "checkpoint_seed0.ssnw"),
        "--out", str(target), "--encoder-only")
    assert code == 0
    archive = WeightArchive.load(target)
    assert archive.entries and all(name.startswith("encoder.")
                                   for name in archive.entries)
    assert archive.metadata["kind"] == "encoder-export"
    assert f"wrote {len(archive.entries)} tensors" in stdout


def test_export_weights_full_copy_keeps_every_tensor(tmp_path, train_run):
    _, _, out = train_run
    target = tmp_path / "copy.ssnw"
    code, _, _ = run_cli(
        "export-weights", "--checkpoint", str(out / "checkpoint_seed0.ssnw"),
        "--out", str(target))
    assert code == 0
    source = WeightArchive.load(out / "checkpoint_seed0.ssnw")
    assert set(WeightArchive.load(target).entries) == set(source.entries)


def test_import_weights_builds_evaluable_checkpoint(tmp_path, pretrain_archive,
                                                    data):
    target = tmp_path / "init.ssnw"
    code, stdout, err = run_cli(
        "import-weights", "--task", "regression", "--axis", "coronal",
        "--encoder", "cnn5", "--width-multiplier", "0.25", "--min-input", "8",
        "--extents", EXTENTS, "--archive", pretrain_archive,
        "--out", str(target), "--seed", "3")
    assert code == 0, err
    assert "matched" in stdout
    meta = WeightArchive.load(target).metadata
    assert meta["kind"] == "slice-set-checkpoint"
    assert meta["slice_count"] == "10"
    # the product is a real checkpoint: eval can rebuild and run it
    code, _, err = run_cli("eval", "--checkpoint", str(target),
                           "--manifest", data["test"])
    assert code == 0, err


def test_import_weights_strict_needs_full_coverage(tmp_path, pretrain_archive):
    code, _, err = run_cli(
        "import-weights", "--task", "regression", "--axis", "coronal",
        "--encoder", "cnn5", "--width-multiplier", "0.25", "--min-input", "8",
        "--extents", EXTENTS, "--archive", pretrain_archive,
        "--out", str(tmp_path / "x.ssnw"), "--strict")
    assert code == 2
    assert err.startswith("error:")


def test_import_weights_requires_explicit_task(tmp_path, pretrain_archive):
    code, _, err = run_cli(
        "import-weights", "--extents", EXTENTS, "--archive", pretrain_archive,
        "--out", str(tmp_path / "x.ssnw"))
    assert code == 2
    assert "explicit task" in err


def test_import_weights_rejects_malformed_extents(tmp_path, pretrain_archive):
    code, _, err = run_cli(
        "import-weights", "--task", "regression", "--extents", "8",
        "--archive", pretrain_archive, "--out", str(tmp_path / "x.ssnw"))
    assert code == 2
    assert "three comma-separated" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_metrics_suite_passes():
    code, stdout, _ = run_cli("check", "metrics")
    assert code == 0
    assert "metrics: PASS" in stdout


def test_check_all_runs_every_suite():
    code, stdout, _ = run_cli("check", "all")
    assert code == 0
    for name in ("gradients", "metrics", "permutation"):
        assert f"{name}: PASS" in stdout


def test_check_rejects_unknown_suite():
    with pytest.raises(SystemExit) as excinfo:
        with contextlib.redirect_stderr(io.StringIO()):
            main(["check", "nonsense"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def test_thread_cap_propagates_to_numeric_libraries(monkeypatch):
    numeric_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    monkeypatch.setenv("SLICESET_THREADS", "2")
    for var in numeric_vars:
        monkeypatch.delenv(var, raising=False)
    _cap_threads()
    for var in numeric_vars:
        assert os.environ[var] == "2"


def test_thread_cap_respects_existing_settings(monkeypatch):
    monkeypatch.setenv("SLICESET_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    _cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "8"
