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
import math
import os
import sys
from collections.abc import Iterable, Iterator
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
    """Per-volume z-score in float64; a constant volume maps to all zeros.

    The float64 copy is centred and scaled in place, so the peak is that
    copy and ``std``'s temporary, 4× the float32 volume.
    """
    v = volume.voxels.astype(np.float64)
    mean = v.mean()
    std = v.std()
    if std == 0.0:
        out = np.zeros_like(volume.voxels)
    else:
        np.subtract(v, mean, out=v)
        np.divide(v, std, out=v)
        out = v.astype(np.float32)
    return Volume(voxels=out, subject_id=volume.subject_id, target=volume.target)


def _check_noise_and_amplitude(noise_std, amplitude):
    if not 0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    if not math.isfinite(amplitude):
        raise ValueError(f"blob amplitude must be finite, got {amplitude}")


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
    noise_std: float = 0.1
    count: int = 16
    seed: int = 0
    blob_radius: int = 3
    blob_amplitude: float = 2.0
    signal_axis: str = "sagittal"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; choose from {TASKS}")
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _check_noise_and_amplitude(self.noise_std, self.blob_amplitude)
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


def _blob_sample(rng, extents, has_blob: bool, radius: int, amplitude: float,
                 noise_std: float) -> tuple[np.ndarray, list[int]]:
    """One synthetic sample and its blob centre: a centre drawn per axis, the
    blob added if present, then the noise."""
    centers = [int(rng.integers(radius, e - radius)) for e in extents]
    out = np.zeros(extents, dtype=np.float32)
    if has_blob:
        out += _blob(extents, centers, radius, amplitude)
    if noise_std > 0:
        out += rng.normal(0.0, noise_std, extents).astype(np.float32)
    return out, centers


def generate_synthetic(spec: SyntheticSpec) -> list[Volume]:
    """Deterministic synthetic dataset; identical (spec, seed) reruns are bit-identical."""
    return list(_synthetic_volumes(spec))


def _synthetic_volumes(spec: SyntheticSpec) -> Iterator[Volume]:
    """The volumes of :func:`generate_synthetic`, drawn one at a time, so a
    caller that writes each one and drops it holds one volume, not the cohort."""
    rng = np.random.default_rng(spec.seed)
    for i in range(spec.count):
        has_blob = spec.task == "regression" or i % 2 == 0
        vox, centers = _blob_sample(rng, spec.extents, has_blob, spec.blob_radius,
                                    spec.blob_amplitude, spec.noise_std)
        target = float(centers[spec.axis_id]) if spec.task == "regression" else int(has_blob)
        yield Volume(voxels=vox, subject_id=f"synth-s{spec.seed}-{i:05d}", target=target)


def generate_synthetic_images(count: int, size: tuple[int, int] = (32, 32),
                              noise_std: float = 0.1, blob_radius: int = 3,
                              amplitude: float = 2.0, seed: int = 0):
    """2D companion of :func:`generate_synthetic`: blob vs no-blob images.

    Returns (images, labels) with images of shape (count, 1, H, W).
    """
    _check_noise_and_amplitude(noise_std, amplitude)
    rng = np.random.default_rng(seed)
    h, w = size
    if min(h, w) < 2 * blob_radius + 1:
        raise ValueError(f"image size {size} too small for blob radius {blob_radius}")
    images = np.zeros((count, 1, h, w), dtype=np.float32)
    labels = np.zeros(count, dtype=np.int64)
    for i in range(count):
        has_blob = i % 2 == 0
        images[i, 0], _ = _blob_sample(rng, (h, w), has_blob, blob_radius, amplitude, noise_std)
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
# atomic writes: manifests, NIfTI volumes, and the CLI's and archives' files
# ---------------------------------------------------------------------------

def write_atomic(path, data: bytes | str | Iterable[bytes]):
    """Write a temporary file, fsync it and rename it over ``path``.

    ``data`` may also be an iterable of byte chunks, written as they come.
    A crash, or an exception from that iterable, leaves either the old file
    or the new one, never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    if isinstance(data, str):
        data = data.encode()
    try:
        with open(tmp, "wb") as f:
            f.writelines([data] if isinstance(data, bytes) else data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def _check_manifest_entries(entries: list, path):
    """The manifest entry rule, on write and on read: exactly path/subject_id/
    target, a non-empty string path, a string subject_id and a finite JSON
    number target (an int or a float, not a bool)."""
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or set(e) != {"path", "subject_id", "target"}:
            raise ValueError(f"bad manifest entry {i} in {path}: {e!r}")
        target = e["target"]
        # The bound rejects NaN, ±Infinity and integers past the float range.
        if not (isinstance(e["path"], str) and e["path"] and isinstance(e["subject_id"], str)
                and isinstance(target, (int, float)) and not isinstance(target, bool)
                and abs(target) <= sys.float_info.max):
            raise ValueError(f"bad manifest entry {i} in {path}: path must be a non-empty "
                             f"string, subject_id a string and target a finite number, "
                             f"got {e!r}")


def write_manifest(path, entries: list[dict]):
    """Write a dataset manifest: a JSON array of {path, subject_id, target},
    each entry checked before anything is written."""
    _check_manifest_entries(entries, path)
    write_atomic(path, json.dumps(entries, indent=1) + "\n")


def read_manifest(path) -> list[dict]:
    entries = json.loads(Path(path).read_text())
    if not isinstance(entries, list):
        raise ValueError(f"manifest {path} must be a JSON array")
    _check_manifest_entries(entries, path)
    return entries


def manifest_task(entries: list[dict]) -> str:
    """Infer the task from target JSON types: ints in {0,1} mean classification."""
    targets = [e["target"] for e in entries]
    if all(isinstance(t, int) and not isinstance(t, bool) and t in (0, 1) for t in targets):
        return "classification"
    return "regression"


def load_manifest_volumes(path, normalize_volumes: bool = True,
                          entries: list[dict] | None = None) -> list[Volume]:
    """Load every volume referenced by a manifest, resolving relative paths;
    ``entries`` are the manifest's, when the caller has read it already."""
    from .nifti import load_nifti

    base = Path(path).parent
    volumes = []
    for e in read_manifest(path) if entries is None else entries:
        p = Path(e["path"])
        if not p.is_absolute():
            p = base / p
        vol = load_nifti(p)
        vol = Volume(voxels=vol.voxels, subject_id=e["subject_id"], target=e["target"])
        if normalize_volumes:
            vol = normalize(vol)
        volumes.append(vol)
    return volumes
