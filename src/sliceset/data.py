"""Volumes, intensity normalization, synthetic datasets, splits, manifests
and the package's one atomic file writer.

Synthetic volumes carry a smooth spherical blob whose slice position along a
chosen axis is the regression target (or whose presence is the
classification label), standing in for real scans at desk scale.  Targets in
JSON manifests are floats for regression and 0/1 integers for
classification; that type distinction is how downstream tools tell the two
apart.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

AXES = ("sagittal", "coronal", "axial")
TASKS = ("regression", "classification")


def axis_index(axis: str) -> int:
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; choose from {AXES}")
    return AXES.index(axis)


@dataclass
class Volume:
    """3D scalar grid with canonical sagittal x coronal x axial extents (``AXES``)."""

    voxels: np.ndarray
    subject_id: str = ""
    target: float | int | None = None

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.float32)
        if self.voxels.ndim != 3:
            raise ValueError(f"volume voxels must be 3-D, got shape {self.voxels.shape}")

    @property
    def extents(self) -> tuple[int, int, int]:
        return self.voxels.shape


def normalize(volume: Volume) -> Volume:
    """Per-volume z-score; a constant volume maps to all zeros."""
    v = volume.voxels.astype(np.float64)
    mean = v.mean()
    std = v.std()
    if std == 0.0:
        out = np.zeros_like(volume.voxels)
    else:
        out = ((v - mean) / std).astype(np.float32)
    return Volume(voxels=out, subject_id=volume.subject_id, target=volume.target)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic blob dataset.

    ``signal_axis`` is the axis whose slice index carries the regression
    target; classification volumes are blob-present (label 1) vs pure noise
    (label 0), alternating from index 0 so a count of 100 gives exactly
    50/50.  Regression targets span [blob_radius, extent - 1 - blob_radius]
    along the signal axis.
    """

    extents: tuple[int, int, int] = (16, 20, 16)
    task: str = "regression"
    signal_kind: str = "blob"
    noise_std: float = 0.1
    count: int = 16
    seed: int = 0
    blob_radius: int = 3
    blob_amplitude: float = 2.0
    signal_axis: str = "sagittal"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; choose from {TASKS}")
        if self.signal_kind != "blob":
            raise ValueError(f"unknown signal_kind {self.signal_kind!r}")
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.blob_radius < 1:
            raise ValueError("blob_radius must be >= 1")
        if len(self.extents) != 3 or any(e < 1 for e in self.extents):
            raise ValueError(f"extents must be three positive integers, got {self.extents}")
        low, high = self.position_range
        if any(e < 2 * self.blob_radius + 1 for e in self.extents) or high < low:
            raise ValueError(
                f"extents {self.extents} too small for blob radius {self.blob_radius}"
            )

    @property
    def axis_id(self) -> int:
        return axis_index(self.signal_axis)

    @property
    def position_range(self) -> tuple[int, int]:
        extent = self.extents[self.axis_id]
        return self.blob_radius, extent - 1 - self.blob_radius


def _blob(extents, center, radius, amplitude) -> np.ndarray:
    """Gaussian bump of scale radius/2 centered at ``center``."""
    grids = np.ogrid[tuple(slice(0, e) for e in extents)]
    dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    sigma = radius / 2.0
    return (amplitude * np.exp(-dist2 / (2.0 * sigma * sigma))).astype(np.float32)


def generate_synthetic(spec: SyntheticSpec) -> list[Volume]:
    """Deterministic synthetic dataset; identical (spec, seed) reruns are bit-identical."""
    rng = np.random.default_rng(spec.seed)
    axis = spec.axis_id
    low, high = spec.position_range
    volumes = []
    for i in range(spec.count):
        has_blob = spec.task == "regression" or i % 2 == 0
        r = spec.blob_radius
        centers = [int(rng.integers(r, e - r)) for e in spec.extents]
        vox = np.zeros(spec.extents, dtype=np.float32)
        if has_blob:
            vox += _blob(spec.extents, centers, spec.blob_radius, spec.blob_amplitude)
        if spec.noise_std > 0:
            vox += rng.normal(0.0, spec.noise_std, spec.extents).astype(np.float32)
        if spec.task == "regression":
            target: float | int = float(centers[axis])
        else:
            target = int(has_blob)
        volumes.append(Volume(voxels=vox, subject_id=f"synth-{i:05d}", target=target))
    return volumes


def generate_synthetic_images(count: int, size: tuple[int, int] = (32, 32),
                              noise_std: float = 0.1, blob_radius: int = 3,
                              amplitude: float = 2.0, seed: int = 0):
    """2D companion of :func:`generate_synthetic`: blob vs no-blob images.

    Returns (images, labels) with images of shape (count, 1, H, W).
    """
    rng = np.random.default_rng(seed)
    h, w = size
    if min(h, w) < 2 * blob_radius + 1:
        raise ValueError(f"image size {size} too small for blob radius {blob_radius}")
    images = np.zeros((count, 1, h, w), dtype=np.float32)
    labels = np.zeros(count, dtype=np.int64)
    for i in range(count):
        has_blob = i % 2 == 0
        cy = int(rng.integers(blob_radius, h - blob_radius))
        cx = int(rng.integers(blob_radius, w - blob_radius))
        img = np.zeros((h, w), dtype=np.float32)
        if has_blob:
            img += _blob((h, w), (cy, cx), blob_radius, amplitude)
        if noise_std > 0:
            img += rng.normal(0.0, noise_std, (h, w)).astype(np.float32)
        images[i, 0] = img
        labels[i] = int(has_blob)
    return images, labels


@dataclass
class DatasetSplit:
    name: str
    records: list[Volume] = field(default_factory=list)
    seed: int = 0

    def __len__(self):
        return len(self.records)

    @property
    def subject_ids(self) -> set[str]:
        return {v.subject_id for v in self.records}


def make_splits(volumes: list[Volume], fractions=(0.8, 0.1, 0.1),
                seed: int = 0) -> tuple[DatasetSplit, DatasetSplit, DatasetSplit]:
    """Subject-level train/validation/test split, disjoint and seed-deterministic.

    All scans of a subject land in the same split.  Split sizes are the
    floor of fraction * n_subjects with leftovers assigned by largest
    fractional remainder (ties to the earlier split).
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-6:
        raise ValueError(f"fractions must be three values summing to 1, got {fractions}")
    subjects = sorted({v.subject_id for v in volumes})
    if not subjects:
        raise ValueError("no volumes to split")
    rng = np.random.default_rng(seed)
    order = [subjects[i] for i in rng.permutation(len(subjects))]

    n = len(subjects)
    counts = [int(np.floor(f * n)) for f in fractions]
    remainders = [f * n - c for f, c in zip(fractions, counts)]
    for _ in range(n - sum(counts)):
        i = int(np.argmax(remainders))
        counts[i] += 1
        remainders[i] = -1.0
    if any(c == 0 for c in counts):
        raise ValueError(f"fractions {fractions} leave an empty split for {n} subjects")

    assignment: dict[str, int] = {}
    start = 0
    for split_idx, c in enumerate(counts):
        for s in order[start:start + c]:
            assignment[s] = split_idx
        start += c

    names = ("train", "validation", "test")
    splits = tuple(DatasetSplit(name=names[i], seed=seed) for i in range(3))
    for v in volumes:
        splits[assignment[v.subject_id]].records.append(v)
    return splits


# ---------------------------------------------------------------------------
# atomic writes: manifests, and the CLI's and archives' files
# ---------------------------------------------------------------------------

def write_atomic(path, data: bytes | str):
    """Write a temporary file, fsync it and rename it over ``path``.

    A crash leaves either the old file or the new one, never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode() if isinstance(data, str) else data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def write_manifest(path, entries: list[dict]):
    """Write a dataset manifest: a JSON array of {path, subject_id, target}."""
    for e in entries:
        if set(e) != {"path", "subject_id", "target"}:
            raise ValueError(f"manifest entry must have exactly path/subject_id/target, got {sorted(e)}")
    write_atomic(path, json.dumps(entries, indent=1) + "\n")


def read_manifest(path) -> list[dict]:
    entries = json.loads(Path(path).read_text())
    if not isinstance(entries, list):
        raise ValueError(f"manifest {path} must be a JSON array")
    for e in entries:
        if not isinstance(e, dict) or set(e) != {"path", "subject_id", "target"}:
            raise ValueError(f"bad manifest entry in {path}: {e!r}")
    return entries


def manifest_task(entries: list[dict]) -> str:
    """Infer the task from target JSON types: ints in {0,1} mean classification."""
    targets = [e["target"] for e in entries]
    if all(isinstance(t, int) and not isinstance(t, bool) and t in (0, 1) for t in targets):
        return "classification"
    return "regression"


def load_manifest_volumes(path, normalize_volumes: bool = True) -> list[Volume]:
    """Load every volume referenced by a manifest, resolving relative paths."""
    from .nifti import load_nifti

    base = Path(path).parent
    volumes = []
    for e in read_manifest(path):
        p = Path(e["path"])
        if not p.is_absolute():
            p = base / p
        vol = load_nifti(p)
        vol = Volume(voxels=vol.voxels, subject_id=e["subject_id"], target=e["target"])
        if normalize_volumes:
            vol = normalize(vol)
        volumes.append(vol)
    return volumes
