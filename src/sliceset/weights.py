"""Named-tensor weight archives and full/partial imports.

The archive container is deliberately simple and auditable: an 8-byte magic,
an 8-byte little-endian index size, a canonical JSON index mapping tensor
names to {shape, offset, length} plus a string→string metadata map, then the
raw little-endian float32 payloads concatenated in sorted-name order.  The
same bytes always come back out: serialization is bit-exact.  Writing joins
the header and views of the entries into the archive bytes, the one copy of
the payload; reading copies each entry once, out of a view of those bytes,
into an array of its own.

Partial import (``import_encoder``) carries a pretrained 2D encoder into a
slice-set model by name, skipping whatever else the archive holds (e.g. a
pretraining classification head) and reporting exactly which model tensors
were matched, which archive entries were skipped, and which model tensors
keep their fresh initialization.  What the model does with the imported
tensors, such as freezing batch-norm statistics, is the caller's choice.

No training code lives here, and nothing is loaded from :mod:`sliceset.train`,
which owns the epoch loop and 2D pretraining (``train.pretrain_2d``).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .data import write_atomic
from .model import SliceSetModel

MAGIC = b"SSNWGT01"
FORMAT_VERSION = 1
INDEX_KEYS = frozenset({"version", "entries", "metadata"})


class WeightArchiveError(ValueError):
    """Raised for malformed archive bytes or import mismatches."""


def _is_count(value) -> bool:
    """A JSON integer >= 0 (JSON true/false decode to bool, which is not one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass
class WeightArchive:
    """Immutable-by-convention map of tensor name → float32 array."""

    entries: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {str(k): np.ascontiguousarray(v, dtype=np.float32)
                        for k, v in self.entries.items()}
        for k, v in self.metadata.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise WeightArchiveError(f"metadata must map str to str, got {k!r}: {v!r}")

    def names(self) -> list[str]:
        return sorted(self.entries)

    def __contains__(self, name) -> bool:
        return name in self.entries

    def __getitem__(self, name) -> np.ndarray:
        return self.entries[name]

    def _chunks(self) -> list:
        """The archive's bytes in order: magic, index length, index and each
        entry's buffer, a view of the entry when it is contiguous float32."""
        index_entries = {}
        payloads = []
        offset = 0
        for name in self.names():
            arr = np.ascontiguousarray(self.entries[name], dtype="<f4")
            index_entries[name] = {"shape": list(arr.shape), "offset": offset,
                                   "length": arr.nbytes}
            payloads.append(memoryview(arr))
            offset += arr.nbytes
        index = {"version": FORMAT_VERSION, "entries": index_entries,
                 "metadata": dict(sorted(self.metadata.items()))}
        index_bytes = json.dumps(index, sort_keys=True, separators=(",", ":")).encode()
        return [MAGIC, struct.pack("<Q", len(index_bytes)), index_bytes, *payloads]

    def to_bytes(self) -> bytes:
        return b"".join(self._chunks())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "WeightArchive":
        if raw[:8] != MAGIC:
            raise WeightArchiveError(f"bad magic {raw[:8]!r}; not a weight archive")
        if len(raw) < 16:
            raise WeightArchiveError("archive truncated before index length")
        (index_len,) = struct.unpack("<Q", raw[8:16])
        if len(raw) < 16 + index_len:
            raise WeightArchiveError("archive truncated inside index")
        try:
            index = json.loads(raw[16:16 + index_len].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WeightArchiveError(f"archive index is not valid JSON: {exc}") from exc
        if not isinstance(index, dict):
            raise WeightArchiveError(
                f"archive index must be a JSON object, got {type(index).__name__}")
        if set(index) != INDEX_KEYS:
            raise WeightArchiveError(f"archive index keys must be exactly {sorted(INDEX_KEYS)}, "
                                     f"got {sorted(index)}")
        if index["version"] != FORMAT_VERSION:
            raise WeightArchiveError(f"unsupported archive version {index['version']!r}")
        index_entries = index["entries"]
        metadata = index["metadata"]
        if not isinstance(index_entries, dict) or not isinstance(metadata, dict):
            raise WeightArchiveError("archive index 'entries' and 'metadata' must be JSON objects")
        payload = memoryview(raw)[16 + index_len:]   # a view: entries are copied out once each
        entries = {}
        for name, meta in index_entries.items():
            if not (isinstance(meta, dict) and isinstance(meta.get("shape"), list)
                    and all(_is_count(s) for s in meta["shape"])
                    and _is_count(meta.get("offset")) and _is_count(meta.get("length"))):
                raise WeightArchiveError(
                    f"entry {name!r}: index needs a shape list of non-negative integers and "
                    f"non-negative integer offset and length, got {meta!r}")
            shape = tuple(meta["shape"])
            offset, length = meta["offset"], meta["length"]
            count = math.prod(shape)
            if length != 4 * count:
                raise WeightArchiveError(
                    f"entry {name!r}: length {length} != 4 x product{shape}")
            if offset < 0 or offset + length > len(payload):
                raise WeightArchiveError(f"entry {name!r}: payload out of bounds")
            arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
            entries[name] = arr.reshape(shape).astype(np.float32)
        return cls(entries=entries, metadata=dict(metadata))

    def save(self, path):
        """Write the archive to ``path`` atomically (see ``write_atomic``), a
        chunk at a time: no copy of the payload is made."""
        write_atomic(path, self._chunks())

    @classmethod
    def load(cls, path) -> "WeightArchive":
        return cls.from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# full export / strict import
# ---------------------------------------------------------------------------

def export_weights(module: nn.Module, metadata: dict[str, str] | None = None) -> WeightArchive:
    """Archive every parameter and buffer (running statistics included)."""
    entries = {name: arr.copy() for name, arr, _ in module.named_state()}
    return WeightArchive(entries=entries, metadata=dict(metadata or {}))


def import_strict(module: nn.Module, archive: WeightArchive) -> nn.Module:
    """Load an archive that must cover the model exactly (names and shapes)."""
    model_state = {name: arr for name, arr, _ in module.named_state()}
    missing = sorted(set(model_state) - set(archive.entries))
    extra = sorted(set(archive.entries) - set(model_state))
    if missing or extra:
        raise WeightArchiveError(
            f"strict import mismatch; missing from archive: {missing}; "
            f"unexpected in archive: {extra}")
    for name, arr in model_state.items():
        src = archive[name]
        if src.shape != arr.shape:
            raise WeightArchiveError(
                f"entry {name!r} has shape {src.shape}, model expects {arr.shape}")
        arr[...] = src
    return module


# ---------------------------------------------------------------------------
# partial encoder import
# ---------------------------------------------------------------------------

@dataclass
class LoadReport:
    """Accounting for a partial import.

    ``matched`` ∪ ``reinitialized`` covers every model tensor; ``skipped``
    lists archive entries that were not applied (foreign heads, shape
    mismatches).  ``adapted`` ⊆ ``matched`` flags tensors that went through
    the channel adapter rather than a straight copy.
    """

    matched: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    reinitialized: list[str] = field(default_factory=list)
    adapted: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"matched {len(self.matched)} tensors"
                 + (f" ({len(self.adapted)} channel-adapted)" if self.adapted else ""),
                 f"skipped {len(self.skipped)} archive entries",
                 f"kept fresh init for {len(self.reinitialized)} tensors"]
        if self.adapted:
            lines.append("adapted: " + ", ".join(self.adapted))
        if self.skipped:
            lines.append("skipped: " + ", ".join(self.skipped))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"matched": list(self.matched), "skipped": list(self.skipped),
                "reinitialized": list(self.reinitialized), "adapted": list(self.adapted)}


def _adapt_channels(src: np.ndarray, target_shape: tuple) -> np.ndarray | None:
    """Collapse a multi-channel conv stem to fewer channels by summing.

    Valid because summing kernel channels is exactly equivalent to running
    the original kernel on channel-replicated input.  Returns None when the
    shapes differ in any other way.
    """
    if len(src.shape) != 4 or len(target_shape) != 4:
        return None
    if src.shape[0] != target_shape[0] or src.shape[2:] != tuple(target_shape[2:]):
        return None
    if target_shape[1] != 1 or src.shape[1] <= 1:
        return None
    return src.sum(axis=1, keepdims=True).astype(np.float32)


def import_encoder(model: SliceSetModel, archive: WeightArchive) -> tuple[SliceSetModel, LoadReport]:
    """Load pretrained 2D-encoder tensors into a slice-set model by name.

    Archive entries outside the encoder (e.g. a pretraining head) are
    skipped; the model's own head, positional table, and aggregator keep
    their current initialization.  Fewer than half of the encoder's
    parameters matching is treated as an incompatible archive.
    """
    report = LoadReport()
    encoder_params = 0
    encoder_params_matched = 0

    for name, arr, is_param in model.named_state():
        in_encoder = name.startswith("encoder.")
        if in_encoder and is_param:
            encoder_params += 1
        src = archive.entries.get(name) if in_encoder else None
        value = src if src is None or src.shape == arr.shape else _adapt_channels(src, arr.shape)
        if value is None:
            report.reinitialized.append(name)
            continue
        arr[...] = value
        report.matched.append(name)
        if value is not src:
            report.adapted.append(name)
        if is_param:
            encoder_params_matched += 1

    report.skipped = sorted(set(archive.entries) - set(report.matched))

    if encoder_params == 0 or encoder_params_matched * 2 < encoder_params:
        raise WeightArchiveError(
            f"archive incompatible with encoder: only {encoder_params_matched} of "
            f"{encoder_params} encoder parameters matched (need at least half)")

    return model, report


def __getattr__(name):
    """``weights.pretrain_2d``, which the benchmark calls, resolves to ``train.pretrain_2d``."""
    if name == "pretrain_2d":
        from .train import pretrain_2d
        return pretrain_2d
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
