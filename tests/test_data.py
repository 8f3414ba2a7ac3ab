"""Synthetic data generation, normalization, splits, and manifests."""

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliceset import data
from sliceset.data import (DatasetSplit, SyntheticSpec, Volume, generate_synthetic,
                           generate_synthetic_images, make_splits, manifest_task,
                           normalize, read_manifest, write_manifest)


def test_volume_coerces_dtype_and_validates_rank():
    v = Volume(voxels=np.ones((2, 3, 4), dtype=np.float64))
    assert v.voxels.dtype == np.float32
    assert v.extents == (2, 3, 4)
    with pytest.raises(ValueError):
        Volume(voxels=np.ones((2, 3)))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_zero_mean_unit_std():
    rng = np.random.default_rng(0)
    v = Volume(voxels=rng.normal(5.0, 3.0, (6, 7, 8)))
    out = normalize(v)
    assert float(out.voxels.mean()) == pytest.approx(0.0, abs=1e-5)
    assert float(out.voxels.std()) == pytest.approx(1.0, abs=1e-5)
    assert out.subject_id == v.subject_id


def test_normalize_idempotent_within_tolerance():
    rng = np.random.default_rng(1)
    v = Volume(voxels=rng.normal(-2.0, 0.5, (5, 6, 7)))
    once = normalize(v)
    twice = normalize(once)
    assert float(np.abs(twice.voxels - once.voxels).max()) < 1e-4


def test_normalize_constant_volume_maps_to_zeros():
    v = Volume(voxels=np.full((4, 4, 4), 7.0))
    out = normalize(v)
    assert not out.voxels.any()


def test_normalize_is_the_float64_z_score_rounded_once():
    vox = np.random.default_rng(2).normal(3.0, 2.0, (6, 7, 8)).astype(np.float32)
    v = vox.astype(np.float64)
    want = ((v - v.mean()) / v.std()).astype(np.float32)
    assert normalize(Volume(voxels=vox)).voxels.tobytes() == want.tobytes()


def test_normalize_peak_is_its_float64_copy_and_one_temporary():
    vox = np.random.default_rng(3).normal(0, 1, (96, 112, 96)).astype(np.float32)
    volume = Volume(voxels=vox)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        normalize(volume)
        added = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert added <= 4.25 * vox.nbytes, (added, vox.nbytes)


# ---------------------------------------------------------------------------
# synthetic volumes
# ---------------------------------------------------------------------------

def test_generate_synthetic_rerun_is_bit_identical():
    spec = SyntheticSpec(count=6, seed=7)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert len(a) == len(b) == 6
    for va, vb in zip(a, b):
        np.testing.assert_array_equal(va.voxels, vb.voxels)
        assert va.subject_id == vb.subject_id
        assert va.target == vb.target


def test_generate_synthetic_seed_changes_data():
    a = generate_synthetic(SyntheticSpec(count=2, seed=0))
    b = generate_synthetic(SyntheticSpec(count=2, seed=1))
    assert not np.array_equal(a[0].voxels, b[0].voxels)


def test_regression_targets_lie_in_declared_range():
    spec = SyntheticSpec(count=64, task="regression", signal_axis="coronal", seed=3)
    low, high = spec.position_range
    targets = [v.target for v in generate_synthetic(spec)]
    assert all(low <= t <= high for t in targets)
    assert all(isinstance(t, float) for t in targets)


def test_regression_targets_span_their_range():
    spec = SyntheticSpec(count=200, extents=(16, 20, 16), seed=0)
    low, high = spec.position_range
    targets = {int(v.target) for v in generate_synthetic(spec)}
    # 200 draws over a 10-wide range: both endpoints should appear
    assert min(targets) == low
    assert max(targets) == high


def test_classification_alternates_labels_evenly():
    spec = SyntheticSpec(count=10, task="classification", seed=0)
    vols = generate_synthetic(spec)
    labels = [v.target for v in vols]
    assert labels == [1, 0] * 5
    assert all(isinstance(t, int) for t in labels)


def test_classification_blob_raises_signal_energy():
    spec = SyntheticSpec(count=10, task="classification", noise_std=0.05, seed=0)
    vols = generate_synthetic(spec)
    blob_energy = np.mean([float((v.voxels ** 2).sum()) for v in vols if v.target == 1])
    noise_energy = np.mean([float((v.voxels ** 2).sum()) for v in vols if v.target == 0])
    assert blob_energy > 2.0 * noise_energy


def test_blob_peaks_at_target_slice():
    spec = SyntheticSpec(count=8, noise_std=0.0, signal_axis="axial", seed=4)
    for v in generate_synthetic(spec):
        profile = np.abs(v.voxels).sum(axis=(0, 1))
        assert int(np.argmax(profile)) == int(v.target)


def test_spec_rejects_oversized_blob_and_bad_fields():
    with pytest.raises(ValueError):
        SyntheticSpec(extents=(6, 20, 16), blob_radius=3)
    with pytest.raises(ValueError):
        SyntheticSpec(task="segmentation")
    with pytest.raises(ValueError):
        SyntheticSpec(count=0)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_std=-0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_synthetic_generators_reject_non_finite_noise_and_amplitude(bad):
    with pytest.raises(ValueError, match="noise_std must be finite"):
        SyntheticSpec(noise_std=bad)
    with pytest.raises(ValueError, match="amplitude must be finite"):
        SyntheticSpec(blob_amplitude=bad)
    with pytest.raises(ValueError, match="noise_std must be finite"):
        generate_synthetic_images(2, size=(8, 8), noise_std=bad)
    with pytest.raises(ValueError, match="amplitude must be finite"):
        generate_synthetic_images(2, size=(8, 8), amplitude=bad)


def test_synthetic_images_shapes_labels_and_determinism():
    imgs, labels = generate_synthetic_images(12, size=(16, 16), seed=5)
    assert imgs.shape == (12, 1, 16, 16)
    assert imgs.dtype == np.float32
    assert labels.tolist() == [1, 0] * 6
    imgs2, labels2 = generate_synthetic_images(12, size=(16, 16), seed=5)
    np.testing.assert_array_equal(imgs, imgs2)
    with pytest.raises(ValueError):
        generate_synthetic_images(4, size=(5, 5), blob_radius=3)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def make_volumes(n, scans_per_subject=1):
    vols = []
    for i in range(n):
        for s in range(scans_per_subject):
            vols.append(Volume(voxels=np.zeros((2, 2, 2)), subject_id=f"subj-{i:03d}",
                               target=float(i)))
    return vols


def test_make_splits_sizes_follow_floor_plus_remainder():
    train, val, test = make_splits(make_volumes(10), fractions=(0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (8, 1, 1)
    assert train.name == "train" and val.name == "validation" and test.name == "test"


def test_make_splits_deterministic_per_seed():
    vols = make_volumes(12)
    a = make_splits(vols, seed=3)
    b = make_splits(vols, seed=3)
    c = make_splits(vols, seed=4)
    assert [s.subject_ids for s in a] == [s.subject_ids for s in b]
    assert [s.subject_ids for s in a] != [s.subject_ids for s in c]


def test_make_splits_keeps_subject_scans_together():
    vols = make_volumes(6, scans_per_subject=3)
    train, val, test = make_splits(vols, fractions=(0.5, 0.25, 0.25), seed=1)
    for split in (train, val, test):
        for sid in split.subject_ids:
            assert sum(1 for v in split.records if v.subject_id == sid) == 3


def test_make_splits_rejects_empty_split_and_bad_fractions():
    with pytest.raises(ValueError):
        make_splits(make_volumes(3), fractions=(0.9, 0.05, 0.05), seed=0)
    with pytest.raises(ValueError):
        make_splits(make_volumes(10), fractions=(0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError):
        make_splits([], seed=0)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=4, max_value=60), seed=st.integers(0, 2**31 - 1))
def test_splits_partition_subjects(n, seed):
    """Union of the three splits is everything; pairwise intersections are empty."""
    vols = make_volumes(n)
    train, val, test = make_splits(vols, fractions=(0.6, 0.2, 0.2), seed=seed)
    ids = [s.subject_ids for s in (train, val, test)]
    assert ids[0] | ids[1] | ids[2] == {v.subject_id for v in vols}
    assert not ids[0] & ids[1]
    assert not ids[0] & ids[2]
    assert not ids[1] & ids[2]
    assert len(train) + len(val) + len(test) == n


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    entries = [
        {"path": "a.nii", "subject_id": "s1", "target": 0.5},
        {"path": "b.nii", "subject_id": "s2", "target": 1.25},
    ]
    path = tmp_path / "manifest.json"
    write_manifest(path, entries)
    assert read_manifest(path) == entries


def test_manifest_write_failure_keeps_old_manifest_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    write_manifest(path, [{"path": "a.nii", "subject_id": "s1", "target": 0.5}])
    before = path.read_bytes()

    def crash(fd):
        raise OSError("simulated crash while writing")

    monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError, match="simulated crash"):
        write_manifest(path, [{"path": "b.nii", "subject_id": "s2", "target": 1.5}])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_write_atomic_chunk_failure_keeps_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.bin"
    data.write_atomic(path, b"old contents")

    def chunks():
        yield b"first chunk"
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        data.write_atomic(path, chunks())
    assert path.read_bytes() == b"old contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    data.write_atomic(path, iter([b"new ", b"contents"]))
    assert path.read_bytes() == b"new contents"


def test_manifest_rejects_missing_or_extra_keys(tmp_path):
    with pytest.raises(ValueError):
        write_manifest(tmp_path / "m.json", [{"path": "a.nii", "subject_id": "s"}])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"path": "a.nii", "subject_id": "s", "target": 1, "extra": 2}]))
    with pytest.raises(ValueError):
        read_manifest(bad)
    notlist = tmp_path / "notlist.json"
    notlist.write_text(json.dumps({"path": "a.nii"}))
    with pytest.raises(ValueError):
        read_manifest(notlist)


@pytest.mark.parametrize("bad", [
    {"path": 5, "subject_id": None, "target": "x"},
    {"path": "", "subject_id": "s", "target": 1.0},
    {"path": "b.nii", "subject_id": None, "target": 1.0},
    {"path": "b.nii", "subject_id": "s", "target": True},
    {"path": "b.nii", "subject_id": "s", "target": float("nan")},
])
def test_write_manifest_rejects_what_read_manifest_rejects_before_writing(tmp_path, bad):
    good = {"path": "a.nii", "subject_id": "s1", "target": 0.5}
    fresh = tmp_path / "fresh.json"
    with pytest.raises(ValueError, match=f"bad manifest entry 1 in {fresh}"):
        write_manifest(fresh, [good, bad])
    assert not list(tmp_path.iterdir())
    kept = tmp_path / "kept.json"
    write_manifest(kept, [good])
    before = kept.read_bytes()
    with pytest.raises(ValueError, match="bad manifest entry 1"):
        write_manifest(kept, [good, bad])
    assert kept.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]


def test_manifest_task_from_target_types():
    as_int = [{"path": "", "subject_id": "", "target": t} for t in (0, 1, 1, 0)]
    as_float = [{"path": "", "subject_id": "", "target": t} for t in (0.0, 1.0)]
    mixed = [{"path": "", "subject_id": "", "target": t} for t in (0, 3)]
    assert manifest_task(as_int) == "classification"
    assert manifest_task(as_float) == "regression"
    assert manifest_task(mixed) == "regression"


def test_manifest_task_json_round_trip_preserves_typing(tmp_path):
    """A classification manifest stays classification after a write/read cycle."""
    path = tmp_path / "m.json"
    write_manifest(path, [{"path": "x.nii", "subject_id": "s", "target": 1},
                          {"path": "y.nii", "subject_id": "t", "target": 0}])
    assert manifest_task(read_manifest(path)) == "classification"
    write_manifest(path, [{"path": "x.nii", "subject_id": "s", "target": 1.0},
                          {"path": "y.nii", "subject_id": "t", "target": 0.0}])
    assert manifest_task(read_manifest(path)) == "regression"


def test_load_manifest_volumes_resolves_relative_paths(tmp_path):
    from sliceset.nifti import save_nifti

    vol = Volume(voxels=np.random.default_rng(0).normal(0, 1, (4, 5, 6)),
                 subject_id="rel")
    sub = tmp_path / "scans"
    sub.mkdir()
    save_nifti(sub / "rel.nii", vol)
    write_manifest(tmp_path / "m.json",
                   [{"path": "scans/rel.nii", "subject_id": "rel", "target": 2.0}])
    loaded = data.load_manifest_volumes(tmp_path / "m.json", normalize_volumes=False)
    assert len(loaded) == 1
    assert loaded[0].subject_id == "rel"
    assert loaded[0].target == 2.0
    np.testing.assert_allclose(loaded[0].voxels, vol.voxels, atol=1e-6)


def test_load_manifest_volumes_normalizes_by_default(tmp_path):
    from sliceset.nifti import save_nifti

    vol = Volume(voxels=np.random.default_rng(1).normal(10.0, 4.0, (4, 4, 4)))
    save_nifti(tmp_path / "v.nii", vol)
    write_manifest(tmp_path / "m.json",
                   [{"path": "v.nii", "subject_id": "s", "target": 0.0}])
    loaded = data.load_manifest_volumes(tmp_path / "m.json")
    assert abs(float(loaded[0].voxels.mean())) < 1e-4
