"""End-to-end exercises of the command-line interface.

The tests drive ``sliceset.cli.main`` in process with an argv list — the
same entry point the console script uses — and assert on exit codes,
printed output, and the files each command leaves behind.  These also
start a subprocess: ``test_train_refuses_locked_output_dir`` (the lock's
holder), ``test_train_takes_over_the_lock_of_a_run_that_has_exited`` and
``test_two_runs_racing_for_a_stale_lock_cannot_both_win`` (an exited
process's pid; the racers), ``test_a_killed_run_releases_its_output_dir``
(the run it kills) and ``test_train_divergence_prints_no_numpy_warnings``
(a run whose stderr is what a user sees).  Training tests share one
completed run over a tiny synthetic dataset (8x10x8 volumes, quarter-width
encoder) so the module stays quick.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import io
import json
import os
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sliceset
from sliceset import train as train_mod
from sliceset.cli import LOCK_NAME, _cap_threads, _model_from_checkpoint, main, output_lock
from sliceset.data import generate_synthetic_images, read_manifest, write_manifest
from sliceset.encoders import EncoderConfig
from sliceset.train import pretrain_2d
from sliceset.weights import MAGIC, WeightArchive

EXTENTS = "8,10,8"

# The package source directory, for the tests that start an interpreter.
SRC = str(Path(sliceset.__file__).resolve().parents[1])

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
def cls_data(tmp_path_factory):
    """Paths to train/val/test manifests over classification datasets."""
    root = tmp_path_factory.mktemp("cli-cls-data")
    return {split: str(synth_dir(root, split, count=count, seed=seed, task="classification")
                       / "manifest.json")
            for split, count, seed in (("train", 8, 0), ("val", 4, 1), ("test", 4, 2))}


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
    assert (out / "synth-s0-00000.nii.gz").exists()


def test_synth_memory_does_not_grow_with_count(tmp_path):
    """synth writes each volume as it is drawn, so 24 volumes peak like 3."""
    extents = (32, 40, 32)
    volume_bytes = 4 * 32 * 40 * 32

    def traced_peak(count):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code, _, err = run_cli("synth", "--out", str(tmp_path / str(count)),
                                   "--count", str(count), "--gzip",
                                   "--extents", ",".join(map(str, extents)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0, err
        return peak

    traced_peak(1)   # the first run pays one-time imports and caches
    small, large = traced_peak(3), traced_peak(24)
    assert large - small <= volume_bytes, (small, large)


def test_synth_rejects_blob_larger_than_volume(tmp_path):
    code, _, err = run_cli("synth", "--out", str(tmp_path / "bad"),
                           "--extents", "6,6,6", "--blob-radius", "3")
    assert code == 2
    assert err.startswith("error:")


def test_synth_rejects_malformed_extents(tmp_path):
    for extents in ("8,8", "8,a,8"):
        code, _, err = run_cli("synth", "--out", str(tmp_path / "bad"),
                               "--extents", extents)
        assert code == 2
        assert "three comma-separated" in err


@pytest.mark.parametrize("flag, value", [
    ("--blob-amplitude", "inf"), ("--blob-amplitude", "nan"),
    ("--noise-std", "nan"), ("--noise-std", "inf"),
])
def test_synth_rejects_non_finite_parameters_before_writing(tmp_path, flag, value):
    out = tmp_path / "bad"
    code, _, err = run_cli("synth", "--out", str(out), "--count", "2",
                           "--extents", EXTENTS, "--blob-radius", "2", flag, value)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and "finite" in err
    assert not out.exists()


def test_synth_rejects_a_negative_seed_before_writing(tmp_path):
    out = tmp_path / "bad"
    code, _, err = run_cli("synth", "--out", str(out), "--count", "2",
                           "--extents", EXTENTS, "--blob-radius", "2", "--seed", "-5")
    assert code == 2
    assert err == "error: seed must be >= 0, got -5\n"
    assert not out.exists()


def test_refused_allocation_is_one_error_line_not_a_traceback(tmp_path):
    # 40000³ float32 voxels are 233 TiB, more than the 128 TiB user address
    # space, so the allocation is refused up front and touches no memory
    code, _, err = run_cli("synth", "--out", str(tmp_path / "huge"), "--count", "1",
                           "--extents", "40000,40000,40000")
    assert code == 2
    assert err.startswith("error: cannot allocate memory: ") and err.count("\n") == 1


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
    assert (out / LOCK_NAME).read_text() == f"{os.getpid()}\n"   # the file stays
    assert not (out / LOCK_NAME).stat().st_mode & 0o111   # as a plain, non-executable file
    with output_lock(out):
        pass


def train_into(out, data, *flags):
    return run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(out),
        "--epochs", "1", *TRAIN_FLAGS, *flags)


def test_train_rejects_a_negative_seed_before_writing(tmp_path, data):
    out = tmp_path / "run"
    code, _, err = train_into(out, data, "--seed", "-1")
    assert code == 2
    assert err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_train_rejects_momentum_with_adam_before_writing(tmp_path, data):
    out = tmp_path / "run"
    code, _, err = train_into(out, data, "--optimizer", "adam", "--momentum", "0.5")
    assert code == 2
    assert err == "error: momentum 0.5 is for optimizer 'sgd'; optimizer 'adam' takes beta1 instead\n"
    assert not out.exists()


HOLDER = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[2])
from sliceset.cli import output_lock
with output_lock(Path(sys.argv[1])):
    print("held", flush=True)
    sys.stdin.read()
"""


def test_train_refuses_locked_output_dir(tmp_path, data):
    out = tmp_path / "locked"
    out.mkdir()
    with subprocess.Popen([sys.executable, "-c", HOLDER, str(out), SRC], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as holder:
        try:
            assert holder.stdout.readline() == "held\n"
            code, _, err = train_into(out, data)
        finally:
            holder.stdin.close()   # the holder exits
    assert holder.returncode == 0
    assert_one_error_line(code, err, f"output directory {out} is locked by another run "
                                     f"(pid {holder.pid})")
    assert [p.name for p in out.iterdir()] == [LOCK_NAME]


def test_train_takes_over_the_lock_of_a_run_that_has_exited(tmp_path, data):
    exited = subprocess.Popen([sys.executable, "-c", "pass"])
    exited.wait()
    out = tmp_path / "stale"
    out.mkdir()
    (out / LOCK_NAME).write_text(f"{exited.pid}\n")
    code, _, err = train_into(out, data)
    assert code == 0, err
    assert (out / "checkpoint_seed0.ssnw").exists()
    assert (out / LOCK_NAME).read_text() == f"{os.getpid()}\n"


@pytest.mark.parametrize("content", [f"{os.getpid()}\n".encode(), b"", b"not a pid\n",
                                     b"\xff\xfe", b"-3\n", b"0\n"],
                         ids=["own-pid", "empty", "not-a-pid", "not-utf8", "negative", "zero"])
def test_train_is_not_blocked_by_a_leftover_lock_file(tmp_path, data, content):
    out = tmp_path / "leftover"
    out.mkdir()
    (out / LOCK_NAME).write_bytes(content)
    code, _, err = train_into(out, data)
    assert code == 0, err
    assert (out / "checkpoint_seed0.ssnw").exists()
    assert (out / LOCK_NAME).read_text() == f"{os.getpid()}\n"


def test_a_killed_run_releases_its_output_dir(tmp_path, data):
    out = tmp_path / "killed"
    with subprocess.Popen(
            [sys.executable, "-m", "sliceset.cli", "train", "--train-manifest", data["train"],
             "--val-manifest", data["val"], "--test-manifest", data["test"],
             "--output-dir", str(out), "--epochs", "100000", *TRAIN_FLAGS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC, "SLICESET_THREADS": "1"}) as run:
        try:
            if not any(line.startswith("epoch 1/") for line in run.stdout):
                pytest.fail(f"the run ended before its first epoch: {run.stderr.read()}")
            code, _, err = train_into(out, data)   # the lock is held ...
            assert_one_error_line(code, err, f"output directory {out} is locked by another run "
                                             f"(pid {run.pid})")
        finally:
            run.kill()
    assert run.returncode == -signal.SIGKILL
    code, _, err = train_into(out, data)   # ... and the kill released it
    assert code == 0, err
    assert (out / "checkpoint_seed0.ssnw").exists()


def test_train_reports_a_failed_lock_call_before_writing(tmp_path, data, monkeypatch):
    def no_locks(fd, operation):
        raise OSError(errno.ENOLCK, "No locks available")

    monkeypatch.setattr(fcntl, "flock", no_locks)
    out = tmp_path / "run"
    code, _, err = train_into(out, data)
    assert_one_error_line(code, err, f"[Errno {errno.ENOLCK}] No locks available")
    assert [p.name for p in out.iterdir()] == [LOCK_NAME]


RACER = """
import sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[3])
from sliceset.cli import output_lock
time.sleep(max(0.0, float(sys.argv[2]) - time.time()))
try:
    with output_lock(Path(sys.argv[1])):
        time.sleep(1.0)
    print("won")
except ValueError:
    print("lost")
"""


def test_two_runs_racing_for_a_stale_lock_cannot_both_win(tmp_path):
    exited = subprocess.Popen([sys.executable, "-c", "pass"])
    exited.wait()
    (tmp_path / LOCK_NAME).write_text(f"{exited.pid}\n")
    start = str(time.time() + 1.0)
    racers = [subprocess.Popen([sys.executable, "-c", RACER, str(tmp_path), start, SRC],
                               stdout=subprocess.PIPE, text=True) for _ in range(2)]
    results = [r.communicate(timeout=60)[0].strip() for r in racers]
    assert sorted(results) == ["lost", "won"]
    winner = racers[results.index("won")]
    assert (tmp_path / LOCK_NAME).read_text() == f"{winner.pid}\n"


def test_output_lock_refuses_a_second_claim_while_held(tmp_path):
    with output_lock(tmp_path):
        assert (tmp_path / LOCK_NAME).read_text() == f"{os.getpid()}\n"
        with pytest.raises(ValueError) as refused:
            with output_lock(tmp_path):
                pass
        assert str(refused.value) == (f"output directory {tmp_path} is locked by another run "
                                      f"(pid {os.getpid()})")
        assert (tmp_path / LOCK_NAME).read_text() == f"{os.getpid()}\n"
    with output_lock(tmp_path):   # released when the claim ends
        pass


def test_output_lock_refusal_names_no_pid_when_the_file_holds_none(tmp_path):
    fd = os.open(tmp_path / LOCK_NAME, os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        with pytest.raises(ValueError) as refused:
            with output_lock(tmp_path):
                pass
    finally:
        os.close(fd)
    assert str(refused.value) == f"output directory {tmp_path} is locked by another run"


def test_train_rejects_task_mismatch(tmp_path, data):
    code, _, err = run_cli(
        "train", "--task", "classification",
        "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(tmp_path / "run"),
        "--epochs", "1")
    assert code == 2
    assert "classification" in err and "regression" in err


@pytest.mark.parametrize("task, other, flags", [
    ("regression", "classification", ()),
    ("classification", "regression", ("--loss", "cross_entropy")),
], ids=["regression-run-classification-val", "classification-run-regression-val"])
def test_train_rejects_a_split_of_the_other_task_before_writing(tmp_path, data, cls_data,
                                                                task, other, flags):
    manifests = {"regression": data, "classification": cls_data}
    val = manifests[other]["val"]
    out = tmp_path / "run"
    code, _, err = run_cli(
        "train", "--train-manifest", manifests[task]["train"], "--val-manifest", val,
        "--test-manifest", manifests[task]["test"], "--output-dir", str(out),
        "--epochs", "1", *TRAIN_FLAGS, *flags)
    assert code == 2
    assert err == (f"error: val manifest {val} holds {other} targets, "
                   f"but the model is a {task} model\n")
    assert not out.exists()


@pytest.mark.parametrize("relative", [False, True], ids=["same-manifest", "path-from-elsewhere"])
def test_train_rejects_a_volume_file_in_two_splits_before_writing(tmp_path, data, relative):
    train_dir = Path(data["train"]).parent
    first = read_manifest(data["train"])[0]
    val = data["train"]
    if relative:   # another directory's manifest naming one training file
        val = str(tmp_path / "val" / "manifest.json")
        (tmp_path / "val").mkdir()
        write_manifest(val, [{**first, "path": os.path.relpath(train_dir / first["path"],
                                                               tmp_path / "val")}])
    out = tmp_path / "run"
    code, _, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", val,
        "--test-manifest", data["test"], "--output-dir", str(out), "--epochs", "1", *TRAIN_FLAGS)
    assert code == 2
    assert err == (f"error: volume file {(train_dir / first['path']).resolve()} is in both "
                   f"the train manifest {data['train']} and the val manifest {val}\n")
    assert not out.exists()


def test_train_rejects_a_subject_in_two_splits_before_writing(tmp_path, data):
    """Two files of one subject in two splits leak it as surely as one file.
    ``synth`` puts the seed in each subject id, so the fixture's three seeds
    pass, and a val cohort drawn with the training seed shares its ids."""
    val = synth_dir(tmp_path, "val", count=2, seed=0) / "manifest.json"
    out = tmp_path / "run"
    code, _, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", str(val),
        "--test-manifest", data["test"], "--output-dir", str(out), "--epochs", "1", *TRAIN_FLAGS)
    assert code == 2
    assert err == (f"error: subject id 'synth-s0-00000' is in both the train manifest "
                   f"{data['train']} and the val manifest {val}\n")
    assert not out.exists()


@pytest.mark.parametrize("fault", ["subject-in-train-and-test", "classification-val"])
def test_train_checks_every_split_before_decoding_a_volume(tmp_path, data, cls_data, monkeypatch,
                                                           fault):
    """The three manifests are read and checked, each against the task and
    against each other, before any NIfTI volume is decoded."""
    manifests = dict(data)
    if fault == "subject-in-train-and-test":
        manifests["test"] = str(synth_dir(tmp_path, "test", count=2, seed=0) / "manifest.json")
        want = (f"error: subject id 'synth-s0-00000' is in both the train manifest "
                f"{data['train']} and the test manifest {manifests['test']}\n")
    else:
        manifests["val"] = cls_data["val"]
        want = (f"error: val manifest {cls_data['val']} holds classification targets, "
                f"but the model is a regression model\n")
    calls = []
    load_nifti = sliceset.nifti.load_nifti
    monkeypatch.setattr(sliceset.nifti, "load_nifti",
                        lambda path: calls.append(path) or load_nifti(path))
    code, _, err = run_cli(
        "train", "--train-manifest", manifests["train"], "--val-manifest", manifests["val"],
        "--test-manifest", manifests["test"], "--output-dir", str(tmp_path / "run"),
        "--epochs", "1", *TRAIN_FLAGS)
    assert (code, err) == (2, want)
    assert calls == []


@pytest.mark.parametrize("min_input", ["0", "-3"])
def test_train_rejects_min_input_below_one_before_writing(tmp_path, data, min_input):
    out = tmp_path / "run"
    code, _, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(out), "--epochs", "1",
        *TRAIN_FLAGS, "--min-input", min_input)
    assert code == 2
    assert err == f"error: min_input must be >= 1, got {min_input}\n"
    assert not out.exists()


def test_train_rejects_the_removed_selection_metric_key(tmp_path):
    # the task alone fixes the selection metric, so a config may not name one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"selection_metric": "mae"}}))
    code, _, err = run_cli("train", "--config", str(config))
    assert code == 2
    assert err == "error: unknown key(s) in train: ['selection_metric']\n"


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


def test_train_rejects_non_finite_nifti_header_without_traceback(tmp_path, data):
    train_dir = synth_dir(tmp_path, "train", count=4, seed=0)
    bad = train_dir / read_manifest(train_dir / "manifest.json")[0]["path"]
    raw = bytearray(bad.read_bytes())
    struct.pack_into("<f", raw, 108, float("inf"))   # vox_offset
    bad.write_bytes(bytes(raw))
    code, _, err = run_cli(
        "train", "--train-manifest", str(train_dir / "manifest.json"),
        "--val-manifest", data["val"], "--test-manifest", data["test"],
        "--output-dir", str(tmp_path / "run"), "--epochs", "1", *TRAIN_FLAGS)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "vox_offset" in err and bad.name in err


def test_train_rejects_truncated_gzip_nifti_without_traceback(tmp_path, data):
    out = tmp_path / "train"
    code, _, err = run_cli(
        "synth", "--out", str(out), "--count", "4", "--extents", EXTENTS,
        "--blob-radius", "2", "--signal-axis", "coronal", "--gzip")
    assert code == 0, err
    bad = out / read_manifest(out / "manifest.json")[0]["path"]
    bad.write_bytes(bad.read_bytes()[:-20])
    code, _, err = run_cli(
        "train", "--train-manifest", str(out / "manifest.json"),
        "--val-manifest", data["val"], "--test-manifest", data["test"],
        "--output-dir", str(tmp_path / "run"), "--epochs", "1", *TRAIN_FLAGS)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "gzip" in err and bad.name in err


def manifest_with_bad_first_entry(tmp_path, manifest, **values):
    """A copy of ``manifest`` with absolute paths and ``values`` set on entry 0."""
    base = Path(manifest).parent
    entries = [{**e, "path": str(base / e["path"])} for e in read_manifest(manifest)]
    entries[0].update(values)
    path = tmp_path / "bad_manifest.json"
    path.write_text(json.dumps(entries))
    return str(path)


MALFORMED_ENTRY_VALUES = {
    "path-int": {"path": 5}, "path-empty": {"path": ""}, "subject-id-int": {"subject_id": 7},
    "target-null": {"target": None}, "target-list": {"target": [1]},
    "target-string": {"target": "x"}, "target-bool": {"target": True},
    "target-nan": {"target": float("nan")}, "target-past-float-range": {"target": 10 ** 400},
}


@pytest.mark.parametrize("values", MALFORMED_ENTRY_VALUES.values(), ids=MALFORMED_ENTRY_VALUES)
def test_train_rejects_malformed_manifest_values_before_writing(tmp_path, data, values):
    bad = manifest_with_bad_first_entry(tmp_path, data["train"], **values)
    out = tmp_path / "run"
    code, _, err = run_cli(
        "train", "--train-manifest", bad, "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(out), "--epochs", "1",
        *TRAIN_FLAGS)
    assert code == 2
    assert err.startswith(f"error: bad manifest entry 0 in {bad}") and err.count("\n") == 1
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("config, key", [
    ({"train": {"epochs": "3"}}, "epochs in train"),
    ({"optimizer": {"learning_rate": None}}, "learning_rate in optimizer"),
    ({"encoder": {"input_channels": 1.5}}, "input_channels in encoder"),
    ({"optimizer": {"learning_rate": float("inf")}}, "learning_rate must be finite"),
])
def test_train_rejects_wrongly_typed_config_without_traceback(tmp_path, data, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(
        "train", "--config", str(path), "--train-manifest", data["train"],
        "--val-manifest", data["val"], "--test-manifest", data["test"],
        "--output-dir", str(tmp_path / "run"), "--epochs", "1")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and key in err


def test_train_rejects_non_positive_aggregator_size_before_writing(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"aggregator": {"kind": "attention", "model_dim": -4}}))
    out = tmp_path / "run"
    code, _, err = run_cli(
        "train", "--config", str(path), "--train-manifest", data["train"],
        "--val-manifest", data["val"], "--test-manifest", data["test"],
        "--output-dir", str(out), "--epochs", "1", *TRAIN_FLAGS)
    assert code == 2
    assert err.startswith("error: model_dim must be positive") and err.count("\n") == 1
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("width", ["inf", "nan", "1e308"])
def test_train_rejects_non_finite_width_multiplier_without_traceback(tmp_path, data, width):
    code, _, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(tmp_path / "run"),
        "--epochs", "1", *TRAIN_FLAGS, "--width-multiplier", width)
    assert code == 2
    assert err.startswith("error: width_multiplier") and err.count("\n") == 1


@pytest.mark.parametrize("width", ["1e12", "1e300"])
def test_train_rejects_unallocatable_model_before_writing(tmp_path, data, width):
    # 1e12 runs numpy out of memory, 1e300 past its largest dimension.
    code, _, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(tmp_path / "run"),
        "--epochs", "1", *TRAIN_FLAGS, "--width-multiplier", width)
    assert code == 2
    assert err.startswith("error: cannot allocate") and err.count("\n") == 1
    assert f"encoder.width_multiplier {float(width)}" in err
    assert list(tmp_path.iterdir()) == []


def test_train_rejects_unallocatable_padded_batch_before_writing(tmp_path, data):
    # 4 volumes of 10 slices padded to 10⁶×10⁶ are 145 TiB of float32
    code, _, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(tmp_path / "run"),
        "--epochs", "1", *TRAIN_FLAGS, "--min-input", "1000000")
    assert code == 2
    assert list(tmp_path.iterdir()) == []
    assert err.startswith("error: cannot allocate") and err.count("\n") == 1
    assert "encoder.min_input 1000000" in err


def assert_one_error_line(code, err, message):
    assert code == 2
    assert err == f"error: {message}\n"


def test_train_refuses_slices_below_min_input_without_padding_before_writing(tmp_path, data):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"encoder": {"pad_to_min": False}}))
    out = tmp_path / "run"
    code, _, err = train_into(out, data, "--config", str(config), "--min-input", "16")
    assert_one_error_line(code, err, "slice extent 8x8 is below the encoder minimum 16x16 "
                                     "and pad_to_min is disabled")
    assert not out.exists()


def test_train_refuses_splits_whose_volumes_disagree_on_extents(tmp_path, data):
    code, _, err = run_cli(
        "synth", "--out", str(tmp_path / "wide"), "--count", "4", "--seed", "2",
        "--extents", "8,12,8", "--blob-radius", "2", "--signal-axis", "coronal")
    assert code == 0, err
    out = tmp_path / "run"
    code, _, err = train_into(out, {**data, "test": str(tmp_path / "wide" / "manifest.json")})
    assert_one_error_line(code, err, "dataset: volumes disagree on extents: "
                                     "[(8, 10, 8), (8, 12, 8)]")
    assert not out.exists()


def test_train_refuses_an_empty_split_manifest(tmp_path, data):
    empty = tmp_path / "empty.json"
    write_manifest(empty, [])
    out = tmp_path / "run"
    code, _, err = train_into(out, {**data, "val": str(empty)})
    assert_one_error_line(code, err, f"val manifest {empty} is empty")
    assert not out.exists()


def test_train_refuses_a_config_that_is_not_json(tmp_path, data):
    config = tmp_path / "config.json"
    config.write_text("{epochs: 3}")
    out = tmp_path / "run"
    code, _, err = train_into(out, data, "--config", str(config))
    assert code == 2
    assert err.startswith(f"error: config {config} is not valid JSON: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_train_names_a_manifest_that_is_not_json(tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not json')
    out = tmp_path / "run"
    code, _, err = train_into(out, {**data, "train": str(bad)})
    assert_one_error_line(code, err, f"manifest {bad} is not valid JSON: "
                                     "Unterminated string starting at: line 1 column 2 (char 1)")
    assert not out.exists()


def test_each_command_reads_each_manifest_once(tmp_path, data, multi_seed_run, monkeypatch):
    reads = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: (
        self.name == "manifest.json" and reads.append(str(self))) or read_text(self, *a, **k))
    code, _, err = train_into(tmp_path / "run", data)   # the task is inferred
    assert code == 0, err
    assert sorted(reads) == sorted(data.values())
    reads.clear()
    _, out = multi_seed_run
    code, _, err = run_cli("eval", "--checkpoint", str(out / "checkpoint_seed0.ssnw"),
                           str(out / "checkpoint_seed1.ssnw"), "--manifest", data["test"])
    assert code == 0, err
    assert reads == [data["test"]]


def test_train_divergence_is_an_error_not_a_traceback(tmp_path, data):
    code, _, err = run_cli(
        "train", "--train-manifest", data["train"], "--val-manifest", data["val"],
        "--test-manifest", data["test"], "--output-dir", str(tmp_path / "run"),
        "--epochs", "1", *TRAIN_FLAGS, "--batch-size", "2", "--learning-rate", "1e30")
    assert code == 2
    assert err.startswith("error: non-finite training loss") and err.count("\n") == 1
    assert "epoch 1, batch 1" in err
    assert not (tmp_path / "run" / "checkpoint_seed0.ssnw").exists()


@pytest.mark.parametrize("learning_rate", ["1e4", "1e20"])
def test_train_divergence_prints_no_numpy_warnings(tmp_path, data, learning_rate):
    # pytest captures warnings in-process, so only a separate interpreter shows
    # what a user sees on stderr: the overflows inside the conv GEMMs and the
    # batch-norm moments must not print before the error line.
    result = subprocess.run(
        [sys.executable, "-m", "sliceset.cli", "train", "--train-manifest", data["train"],
         "--val-manifest", data["val"], "--test-manifest", data["test"],
         "--output-dir", str(tmp_path / "run"), "--epochs", "2", *TRAIN_FLAGS,
         "--optimizer", "sgd", "--learning-rate", learning_rate],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


def test_train_names_the_epoch_whose_validation_prediction_is_non_finite(tmp_path, data):
    # SGD at 1e4 keeps every loss, gradient and parameter finite through the
    # first epoch's steps, but the grown weights overflow in the validation
    # forward, which must stop the run before the metrics see the output.
    code, _, err = train_into(tmp_path / "run", data, "--optimizer", "sgd",
                              "--learning-rate", "1e4")
    assert code == 2
    assert err == "error: non-finite validation prediction at epoch 1\n"
    assert not (tmp_path / "run" / "checkpoint_seed0.ssnw").exists()


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_train_rejects_seed_counts_below_one_before_writing(tmp_path, data, seeds):
    out = tmp_path / "run"
    code, stdout, err = train_into(out, data, "--seeds", seeds)
    assert code == 2
    assert err == f"error: --seeds must be at least 1, got {seeds}\n"
    assert stdout == ""
    assert not out.exists()


def test_train_names_the_parameter_whose_gradient_is_non_finite(tmp_path, data, monkeypatch):
    real_loss = train_mod.batch_loss

    def poisoned_loss(model, batch, loss_kind):
        """The real loss, plus a zero whose backward gives head.bias an infinite gradient."""
        loss, bias = real_loss(model, batch, loss_kind), model.head.bias

        def backward_fn(out):
            bias.accumulate_grad(np.full(bias.shape, np.inf, dtype=bias.dtype))
        return loss + loss._make(np.zeros((), dtype=loss.dtype), (bias,), backward_fn)

    monkeypatch.setattr(train_mod, "batch_loss", poisoned_loss)
    code, _, err = train_into(tmp_path / "run", data)
    assert code == 2
    assert err == "error: non-finite gradient in parameter head.bias\n"
    assert not (tmp_path / "run" / "checkpoint_seed0.ssnw").exists()


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


def test_train_reads_the_pretrained_archive_once(tmp_path, data, pretrain_archive,
                                                monkeypatch):
    loaded = []
    real_load = WeightArchive.load.__func__

    def counting_load(cls, path):
        loaded.append(path)
        return real_load(cls, path)

    monkeypatch.setattr(WeightArchive, "load", classmethod(counting_load))
    out = tmp_path / "run"
    code, stdout, err = train_into(out, data, "--pretrained", pretrain_archive, "--seeds", "2")
    assert code == 0, err
    assert loaded == [pretrain_archive]
    assert stdout.count("pretrained import from") == 2
    assert (out / "checkpoint_seed1.ssnw").exists()


@pytest.fixture(scope="module")
def resnet18_archive(tmp_path_factory):
    """A 2D-pretrained resnet18 encoder, which fits no cnn5 run."""
    images, labels = generate_synthetic_images(8, size=(8, 8), seed=6)
    encoder_config = EncoderConfig(kind="resnet18", width_multiplier=0.125, min_input=8)
    path = tmp_path_factory.mktemp("cli-resnet18") / "resnet18.ssnw"
    pretrain_2d(encoder_config, images, labels, epochs=1, batch_size=8).archive.save(path)
    return path


@pytest.mark.parametrize("archive", ["junk", "resnet18"])
def test_train_rejects_a_bad_pretrained_archive_before_writing(tmp_path, data, archive,
                                                               resnet18_archive):
    if archive == "junk":
        path = tmp_path / "junk.ssnw"
        path.write_bytes(b"junk\n")
        expected = "error: bad magic b'junk\\n'; not a weight archive\n"
    else:
        path = resnet18_archive
        expected = ("error: archive incompatible with encoder: only 0 of 15 encoder "
                    "parameters matched (need at least half)\n")
    out = tmp_path / "run"
    code, stdout, err = train_into(out, data, "--pretrained", str(path))
    assert code == 2
    assert err == expected
    assert stdout == ""
    assert not out.exists()


def test_train_freeze_bn_stats_needs_pretrained_before_writing(tmp_path, data):
    out = tmp_path / "run"
    code, stdout, err = train_into(out, data, "--freeze-bn-stats")
    assert code == 2
    assert err == "error: --freeze-bn-stats needs --pretrained\n"
    assert stdout == ""
    assert not out.exists()


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


def test_eval_output_write_failure_keeps_old_report_and_leaves_no_temp_file(
        tmp_path, train_run, data, monkeypatch):
    _, _, out = train_run
    report_path = tmp_path / "report.json"
    report_path.write_text('{"old": true}\n')

    def crash(fd):
        raise OSError("simulated crash while writing")

    monkeypatch.setattr(os, "fsync", crash)
    code, _, err = run_cli(
        "eval", "--checkpoint", str(out / "checkpoint_seed0.ssnw"),
        "--manifest", data["test"], "--output", str(report_path))
    assert code == 2
    assert err == "error: simulated crash while writing\n"
    assert report_path.read_text() == '{"old": true}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


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


def test_eval_decodes_the_manifest_once_per_normalize_setting(tmp_path, multi_seed_run, data,
                                                              monkeypatch):
    _, out = multi_seed_run
    checkpoints = [str(out / "checkpoint_seed0.ssnw"), str(out / "checkpoint_seed1.ssnw")]
    raw = WeightArchive.load(checkpoints[1])
    raw.metadata["normalize"] = "false"
    raw.save(tmp_path / "raw.ssnw")
    checkpoints.append(str(tmp_path / "raw.ssnw"))
    alone = [run_cli("eval", "--checkpoint", ckpt, "--manifest", data["test"])[1]
             for ckpt in checkpoints]

    calls = []
    load_nifti = sliceset.nifti.load_nifti
    monkeypatch.setattr(sliceset.nifti, "load_nifti",
                        lambda path: calls.append(path) or load_nifti(path))
    code, stdout, err = run_cli("eval", "--checkpoint", *checkpoints, "--manifest", data["test"])
    assert code == 0, err
    assert len(read_manifest(data["test"])) == 4
    assert len(calls) == 8    # 4 volumes normalized for two checkpoints, 4 raw for the third
    assert stdout.startswith("".join(alone))


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
    {"version": 1, "dntries": {"w": {"shape": [1], "offset": 0, "length": 4}}, "metadata": {}},
    {"version": 1, "entries": {"w": {"shape": [1], "offset": 0, "length": 4}}, "metadata": {},
     "checksum": "0"},
], ids=["index-is-a-list", "entry-without-shape", "metadata-is-a-list", "entries-key-flipped",
        "extra-index-key"])
def test_eval_rejects_malformed_archive_index_without_traceback(tmp_path, data, index):
    raw_index = json.dumps(index).encode()
    path = tmp_path / "bad.ssnw"
    path.write_bytes(MAGIC + struct.pack("<Q", len(raw_index)) + raw_index + b"\0" * 4)
    code, _, err = run_cli("eval", "--checkpoint", str(path), "--manifest", data["test"])
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_rejects_wrongly_typed_checkpoint_model_config(tmp_path, train_run, data):
    archive = WeightArchive.load(train_run[2] / "checkpoint_seed0.ssnw")
    model_config = json.loads(archive.metadata["model_config"])
    model_config["encoder"]["input_channels"] = 1.5
    path = tmp_path / "bad.ssnw"
    WeightArchive(entries=archive.entries, metadata={
        **archive.metadata, "model_config": json.dumps(model_config)}).save(path)
    code, _, err = run_cli("eval", "--checkpoint", str(path), "--manifest", data["test"])
    assert code == 2
    assert err == "error: input_channels in encoder must be an integer, got 1.5\n"


@pytest.mark.parametrize("values", MALFORMED_ENTRY_VALUES.values(), ids=MALFORMED_ENTRY_VALUES)
def test_eval_rejects_malformed_manifest_values(tmp_path, train_run, data, values):
    bad = manifest_with_bad_first_entry(tmp_path, data["test"], **values)
    report = tmp_path / "report.json"
    code, _, err = run_cli(
        "eval", "--checkpoint", str(train_run[2] / "checkpoint_seed0.ssnw"),
        "--manifest", bad, "--output", str(report))
    assert code == 2
    assert err.startswith(f"error: bad manifest entry 0 in {bad}") and err.count("\n") == 1
    assert not report.exists()


def test_eval_names_a_manifest_that_is_not_json(tmp_path, train_run):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not json')
    code, _, err = run_cli("eval", "--checkpoint", str(train_run[2] / "checkpoint_seed0.ssnw"),
                           "--manifest", str(bad))
    assert_one_error_line(code, err, f"manifest {bad} is not valid JSON: "
                                     "Unterminated string starting at: line 1 column 2 (char 1)")


@pytest.mark.parametrize("key, value, message", [
    ("slice_count", "abc", "checkpoint metadata slice_count must be an integer, got 'abc'"),
    ("model_config", "{not json", "checkpoint metadata model_config is not valid JSON: Expecting "
                                  "property name enclosed in double quotes: line 1 column 2 (char 1)"),
], ids=["slice-count-abc", "model-config-not-json"])
def test_eval_names_checkpoint_metadata_that_does_not_parse(tmp_path, train_run, data,
                                                            key, value, message):
    archive = WeightArchive.load(train_run[2] / "checkpoint_seed0.ssnw")
    path = tmp_path / "bad.ssnw"
    WeightArchive(entries=archive.entries, metadata={**archive.metadata, key: value}).save(path)
    code, out, err = run_cli("eval", "--checkpoint", str(path), "--manifest", data["test"])
    assert out == ""
    assert_one_error_line(code, err, message)


@pytest.mark.parametrize("slice_count", ["0", "-1"])
def test_eval_rejects_checkpoint_slice_count_below_one(tmp_path, train_run, data, slice_count):
    archive = WeightArchive.load(train_run[2] / "checkpoint_seed0.ssnw")
    path = tmp_path / "bad.ssnw"
    WeightArchive(entries=archive.entries, metadata={
        **archive.metadata, "slice_count": slice_count}).save(path)
    code, _, err = run_cli("eval", "--checkpoint", str(path), "--manifest", data["test"])
    assert code == 2
    assert err == f"error: checkpoint metadata slice_count must be at least 1, got {slice_count}\n"


@pytest.mark.parametrize("normalize", [None, "yes"], ids=["missing", "yes"])
def test_eval_rejects_checkpoint_normalize_other_than_true_or_false(tmp_path, train_run, data,
                                                                    normalize):
    archive = WeightArchive.load(train_run[2] / "checkpoint_seed0.ssnw")
    metadata = {k: v for k, v in archive.metadata.items() if k != "normalize"}
    if normalize is not None:
        metadata["normalize"] = normalize
    path = tmp_path / "bad.ssnw"
    WeightArchive(entries=archive.entries, metadata=metadata).save(path)
    code, out, err = run_cli("eval", "--checkpoint", str(path), "--manifest", data["test"])
    assert code == 2 and out == ""
    assert err == ("error: missing key 'normalize'\n" if normalize is None else
                   'error: checkpoint metadata normalize must be "true" or "false", got \'yes\'\n')


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


def test_export_weights_encoder_only_refuses_an_archive_without_encoder_entries(tmp_path):
    source = tmp_path / "head.ssnw"
    WeightArchive(entries={"head.weight": np.zeros((1, 2))}).save(source)
    target = tmp_path / "encoder.ssnw"
    code, _, err = run_cli("export-weights", "--checkpoint", str(source),
                           "--out", str(target), "--encoder-only")
    assert_one_error_line(code, err, f"{source} holds no encoder.* entries")
    assert not target.exists()


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


def test_import_weights_has_no_freeze_bn_stats_flag(tmp_path, pretrain_archive):
    """Checkpoints do not store the flag, so it would change nothing."""
    err = io.StringIO()
    with pytest.raises(SystemExit) as excinfo, contextlib.redirect_stderr(err):
        main(["import-weights", "--task", "regression", "--extents", EXTENTS,
              "--archive", pretrain_archive, "--out", str(tmp_path / "x.ssnw"),
              "--freeze-bn-stats"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --freeze-bn-stats" in err.getvalue()
    assert not (tmp_path / "x.ssnw").exists()


def test_import_weights_strict_needs_full_coverage(tmp_path, pretrain_archive):
    code, _, err = run_cli(
        "import-weights", "--task", "regression", "--axis", "coronal",
        "--encoder", "cnn5", "--width-multiplier", "0.25", "--min-input", "8",
        "--extents", EXTENTS, "--archive", pretrain_archive,
        "--out", str(tmp_path / "x.ssnw"), "--strict")
    assert code == 2
    assert err.startswith("error:")


def test_import_weights_strict_loads_a_covering_archive(tmp_path, train_run):
    _, _, out = train_run
    source = WeightArchive.load(out / "checkpoint_seed0.ssnw")
    target = tmp_path / "strict.ssnw"
    code, stdout, err = run_cli(
        "import-weights", "--task", "regression", "--axis", "coronal",
        "--encoder", "cnn5", "--width-multiplier", "0.25", "--min-input", "8",
        "--extents", EXTENTS, "--archive", str(out / "checkpoint_seed0.ssnw"),
        "--out", str(target), "--strict")
    assert code == 0, err
    assert f"strict import: loaded all {len(source.entries)} tensors" in stdout
    model, _ = _model_from_checkpoint(WeightArchive.load(target))
    state = {name: array for name, array, _ in model.named_state()}
    assert state.keys() == source.entries.keys()
    for name, array in state.items():
        np.testing.assert_array_equal(array, source.entries[name])


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


@pytest.mark.parametrize("extents", ["0,10,8", "-1,10,8", "8,10,0"])
def test_import_weights_rejects_non_positive_extents_before_writing(tmp_path, pretrain_archive,
                                                                   extents):
    target = tmp_path / "x.ssnw"
    code, _, err = run_cli(
        "import-weights", "--task", "regression", f"--extents={extents}",
        "--archive", pretrain_archive, "--out", str(target))
    assert code == 2
    assert err == ("error: --extents wants three comma-separated positive integers, "
                   f"got {extents!r}\n")
    assert not target.exists()


def test_import_weights_rejects_a_negative_seed_before_writing(tmp_path, pretrain_archive):
    target = tmp_path / "x.ssnw"
    code, _, err = run_cli(
        "import-weights", "--task", "regression", "--extents", EXTENTS,
        "--archive", pretrain_archive, "--out", str(target), "--seed", "-1")
    assert code == 2
    assert err == "error: --seed must be >= 0, got -1\n"
    assert not target.exists()


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


def test_check_rejects_a_negative_seed():
    code, stdout, err = run_cli("check", "metrics", "--seed", "-1")
    assert code == 2
    assert (stdout, err) == ("", "error: --seed must be >= 0, got -1\n")


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


@pytest.mark.parametrize("value", ["0", "-1", "abc", "2.5", " 2"])
def test_thread_cap_rejects_anything_but_a_positive_integer(monkeypatch, value):
    """OpenBLAS reads 0 or a negative count as no cap at all."""
    monkeypatch.setenv("SLICESET_THREADS", value)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with pytest.raises(ValueError, match=f"SLICESET_THREADS must be a positive integer, got '{value}'$"):
        _cap_threads()
    assert "OPENBLAS_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
def test_invalid_thread_cap_exits_2_before_writing(tmp_path, monkeypatch, value):
    monkeypatch.setenv("SLICESET_THREADS", value)
    out = tmp_path / "data"
    code, _, err = run_cli("synth", "--out", str(out), "--count", "2",
                           "--extents", EXTENTS, "--blob-radius", "2")
    assert code == 2
    assert err == f"error: SLICESET_THREADS must be a positive integer, got '{value}'\n"
    assert not out.exists()
