"""Weight archives, strict and partial imports, and 2D pretraining transfer."""

import hashlib
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliceset import nn
from sliceset.data import Volume, generate_synthetic_images
from sliceset.encoders import EncoderConfig, build_encoder
from sliceset.model import AggregatorConfig, ModelConfig, build_model, slice_volume
from sliceset.tensor import Tensor, no_grad
from sliceset.train import Classifier2D, TrainingDivergedError, he_init, pretrain_2d
from sliceset.weights import (MAGIC, LoadReport, WeightArchive, WeightArchiveError,
                              export_weights, import_encoder, import_strict)

ENC = EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=8)


def make_model(positional=False, channels=1, seed=0):
    cfg = ModelConfig(
        task="regression", axis="coronal",
        encoder=EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=8,
                              input_channels=channels),
        aggregator=AggregatorConfig(kind="mean"),
        positional_enabled=positional,
    )
    model = build_model(cfg, slice_count=10)
    he_init(model, seed=seed)
    return model


def rand_volume(seed=0):
    rng = np.random.default_rng(seed)
    return Volume(voxels=rng.normal(0, 1, (8, 10, 8)).astype(np.float32), subject_id="v")


# ---------------------------------------------------------------------------
# archive format
# ---------------------------------------------------------------------------

def test_archive_round_trip_is_byte_stable(tmp_path):
    model = make_model(seed=1)
    archive = export_weights(model, metadata={"note": "round-trip"})
    first = archive.to_bytes()
    reread = WeightArchive.from_bytes(first)
    assert reread.to_bytes() == first
    path = tmp_path / "w.ssnw"
    archive.save(path)
    assert WeightArchive.load(path).to_bytes() == first


def test_archive_preserves_every_tensor_exactly(tmp_path):
    model = make_model(seed=2)
    path = tmp_path / "w.ssnw"
    export_weights(model).save(path)
    loaded = WeightArchive.load(path)
    for name, arr, _ in model.named_state():
        np.testing.assert_array_equal(loaded[name], arr)


def test_reloaded_weights_give_identical_forward(tmp_path):
    model = make_model(seed=3)
    model.eval()
    vol = rand_volume(3)
    with no_grad():
        before = model.forward_volume(vol).numpy().copy()
    path = tmp_path / "w.ssnw"
    export_weights(model).save(path)

    fresh = make_model(seed=99)
    import_strict(fresh, WeightArchive.load(path))
    fresh.eval()
    with no_grad():
        after = fresh.forward_volume(vol).numpy()
    np.testing.assert_array_equal(before, after)


def test_archive_rejects_corrupt_bytes():
    model = make_model()
    raw = export_weights(model).to_bytes()
    with pytest.raises(WeightArchiveError):
        WeightArchive.from_bytes(b"WRONGMAG" + raw[8:])
    with pytest.raises(WeightArchiveError):
        WeightArchive.from_bytes(raw[:40])
    with pytest.raises(WeightArchiveError):
        WeightArchive.from_bytes(raw[:-16])  # payload shorter than the index claims


def test_archive_bytes_are_pinned():
    archive = WeightArchive(
        entries={"encoder.conv.weight": np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2) / 8 - 1,
                 "encoder.bn.running_var": np.asfortranarray(np.linspace(0.5, 2, 6).reshape(2, 3)),
                 "head.bias": np.float32(-0.25),
                 "head.empty": np.zeros((0, 4), dtype=np.float32)},
        metadata={"kind": "slice-set-checkpoint", "seed": "7"})
    assert hashlib.sha256(archive.to_bytes()).hexdigest() == (
        "04febbe8cb1c3e2a1af5ffeb3dc862c06a9af8d2b95d52ee6e9dbecb60b70a5a")


def traced_peak(fn) -> int:
    """Heap that ``fn()`` adds at its peak, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_archive_save_and_load_hold_one_copy_of_the_payload(tmp_path):
    rng = np.random.default_rng(0)
    archive = WeightArchive({f"layer{i}.w": rng.normal(size=(64, 64, 3, 3)) for i in range(8)})
    payload = sum(arr.nbytes for arr in archive.entries.values())
    path = tmp_path / "w.ssnw"
    saved = traced_peak(lambda: archive.save(path))
    loaded = traced_peak(lambda: WeightArchive.load(path))
    assert saved <= 1.1 * payload, (saved, payload)
    assert loaded <= 2.1 * payload, (loaded, payload)   # the file's bytes and the entries


def test_archive_save_writes_to_bytes_in_chunks_without_a_payload_copy(tmp_path):
    """``save`` hands the magic, the index and each entry's buffer to the
    atomic writer one chunk at a time: the file is ``to_bytes()`` exactly,
    and saving never holds a copy of the payload (it joined one before)."""
    rng = np.random.default_rng(1)
    archive = WeightArchive({f"layer{i}.w": rng.normal(size=(64, 64, 3, 3)) for i in range(8)},
                            metadata={"kind": "cnn5"})
    path = tmp_path / "w.ssnw"
    raw = archive.to_bytes()
    saved = traced_peak(lambda: archive.save(path))
    assert path.read_bytes() == raw
    assert saved < 0.5 * len(raw), (saved, len(raw))


def archive_with_index(index, payload=b"\0" * 16) -> bytes:
    """Archive bytes around an arbitrary JSON index, for schema tests."""
    raw_index = json.dumps(index).encode()
    return MAGIC + struct.pack("<Q", len(raw_index)) + raw_index + payload


GOOD_ENTRY = {"shape": [2, 2], "offset": 0, "length": 16}


@pytest.mark.parametrize("index", [
    [],
    "archive",
    {"version": 1, "entries": []},
    {"version": 1, "entries": {"w": {"offset": 0, "length": 16}}},
    {"version": 1, "entries": {"w": {"shape": [2, 2], "length": 16}}},
    {"version": 1, "entries": {"w": {"shape": [2, 2], "offset": 0}}},
    {"version": 1, "entries": {"w": {"shape": 4, "offset": 0, "length": 16}}},
    {"version": 1, "entries": {"w": {"shape": ["2", 2], "offset": 0, "length": 16}}},
    {"version": 1, "entries": {"w": {"shape": [-2, -2], "offset": 0, "length": 16}}},
    {"version": 1, "entries": {"w": {"shape": [2, 2], "offset": "0", "length": 16}}},
    {"version": 1, "entries": {"w": {"shape": [2, 2], "offset": 0, "length": 16.0}}},
    {"version": 1, "entries": {"w": {"shape": [True, 4], "offset": 0, "length": 16}}},
    {"version": 1, "entries": {"w": {"shape": [2 ** 70], "offset": 0, "length": 16}}},
    {"version": 1, "entries": {"w": [2, 2]}},
    {"version": 1, "entries": {"w": GOOD_ENTRY}, "metadata": [["a", "b"]]},
    {"version": 1, "entries": {"w": GOOD_ENTRY}, "metadata": {"epoch": 3}},
    {"version": 1, "entries": [], "metadata": {}},
    {"version": 1, "entries": {"w": GOOD_ENTRY}, "metadata": {}, "checksum": "0"},
])
def test_archive_rejects_malformed_index_with_typed_error(index):
    with pytest.raises(WeightArchiveError):
        WeightArchive.from_bytes(archive_with_index(index))


def test_archive_index_names_wrong_keys():
    raw = archive_with_index({"version": 1, "dntries": {"w": GOOD_ENTRY}, "metadata": {}})
    with pytest.raises(WeightArchiveError, match=r"\['dntries', 'metadata', 'version'\]"):
        WeightArchive.from_bytes(raw)


def test_archive_index_schema_accepts_a_well_formed_index():
    archive = WeightArchive.from_bytes(
        archive_with_index({"version": 1, "entries": {"w": GOOD_ENTRY}, "metadata": {"a": "b"}}))
    assert archive["w"].shape == (2, 2) and archive.metadata == {"a": "b"}


def test_archive_save_failure_keeps_old_archive_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.ssnw"
    old = export_weights(make_model(seed=1))
    old.save(path)
    before = path.read_bytes()

    def crash(fd):
        raise OSError("simulated crash while writing")

    monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError, match="simulated crash"):
        export_weights(make_model(seed=2)).save(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.ssnw"]


def test_archive_metadata_must_be_strings():
    with pytest.raises(WeightArchiveError):
        WeightArchive(entries={"w": np.zeros(2, dtype=np.float32)},
                      metadata={"epoch": 3})


def test_archive_entries_sorted_for_stable_layout():
    a = WeightArchive(entries={"b": np.ones(2, dtype=np.float32),
                               "a": np.zeros(3, dtype=np.float32)})
    b = WeightArchive(entries={"a": np.zeros(3, dtype=np.float32),
                               "b": np.ones(2, dtype=np.float32)})
    assert a.to_bytes() == b.to_bytes()
    assert a.names() == ["a", "b"]


# ---------------------------------------------------------------------------
# strict import
# ---------------------------------------------------------------------------

def test_import_strict_rejects_missing_and_extra_entries():
    model = make_model()
    archive = export_weights(model)
    incomplete = WeightArchive(
        entries={k: v for k, v in archive.entries.items() if k != "head.weight"})
    with pytest.raises(WeightArchiveError, match="head.weight"):
        import_strict(make_model(), incomplete)

    extra = WeightArchive(entries={**archive.entries,
                                   "rogue.weight": np.zeros(1, dtype=np.float32)})
    with pytest.raises(WeightArchiveError, match="rogue.weight"):
        import_strict(make_model(), extra)


def test_import_strict_rejects_shape_mismatch():
    model = make_model()
    archive = export_weights(model)
    archive.entries["head.weight"] = archive.entries["head.weight"].T.copy()
    with pytest.raises(WeightArchiveError, match="head.weight"):
        import_strict(make_model(), archive)


# ---------------------------------------------------------------------------
# partial encoder import
# ---------------------------------------------------------------------------

def test_import_encoder_accounting_is_complete():
    source = Classifier2D(ENC, n_classes=10)
    he_init(source, seed=4)
    archive = export_weights(source)  # includes the 10-way head

    model = make_model(positional=True)
    model_names = {n for n, _, _ in model.named_state()}
    model, report = import_encoder(model, archive)

    assert set(report.matched) | set(report.reinitialized) == model_names
    assert not set(report.matched) & set(report.reinitialized)
    assert set(report.adapted) <= set(report.matched)
    # archive names split exactly into applied and skipped
    assert set(report.skipped) == set(archive.entries) - set(report.matched)


def test_import_encoder_skips_foreign_head_and_keeps_own_init():
    source = Classifier2D(ENC, n_classes=10)
    he_init(source, seed=5)
    archive = export_weights(source)

    model = make_model(seed=6)
    own_head = model.head.weight.numpy().copy()
    model, report = import_encoder(model, archive)

    assert "head.weight" in report.skipped  # 10-way pretraining head not applied
    assert "head.weight" in report.reinitialized or "head.weight" not in report.matched
    np.testing.assert_array_equal(model.head.weight.numpy(), own_head)
    np.testing.assert_array_equal(model.encoder.block1.conv.weight.numpy(),
                                  source.encoder.block1.conv.weight.numpy())


def test_import_encoder_embeddings_match_standalone_encoder():
    imgs, labels = generate_synthetic_images(40, size=(8, 8), seed=7)
    result = pretrain_2d(ENC, imgs, labels, epochs=2, batch_size=8, seed=7)

    model = make_model(seed=8)
    model, _ = import_encoder(model, result.archive)
    model.eval()

    standalone = build_encoder(ENC)
    for name, arr, _ in standalone.named_state():
        arr[...] = result.archive["encoder." + name]
    standalone.eval()

    vol = rand_volume(9)
    slices = slice_volume(vol, "coronal")
    with no_grad():
        via_model = model.encoder(Tensor(slices)).numpy()
        direct = standalone(Tensor(slices)).numpy()
    assert np.abs(via_model - direct).max() < 1e-5


def test_three_channel_stem_adapts_to_single_channel_input():
    """Summed stem kernels equal the original kernels on replicated input."""
    rgb = EncoderConfig(kind="cnn5", width_multiplier=0.25, min_input=8, input_channels=3)
    source = Classifier2D(rgb, n_classes=2)
    he_init(source, seed=10)
    archive = export_weights(source)

    model = make_model(channels=1, seed=11)
    model, report = import_encoder(model, archive)
    assert "encoder.block1.conv.weight" in report.adapted

    model.eval()
    source.eval()
    vol = rand_volume(12)
    slices = slice_volume(vol, "coronal", input_channels=1)
    replicated = np.repeat(slices, 3, axis=1)
    with no_grad():
        adapted_emb = model.encoder(Tensor(slices)).numpy()
        original_emb = source.encoder(Tensor(replicated)).numpy()
    assert np.abs(adapted_emb - original_emb).max() < 1e-5


@pytest.mark.parametrize("name, shape", [
    ("encoder.block1.bn.weight", (9,)),
    ("encoder.block1.conv.weight", (9, 3, 3, 3)),
    ("encoder.block2.conv.weight", (16, 4, 3, 3)),
], ids=["not-a-4d-kernel", "other-filter-count", "several-target-channels"])
def test_import_encoder_keeps_the_fresh_init_of_an_entry_it_cannot_adapt(name, shape):
    entries = dict(export_weights(make_model(seed=20)).entries)
    entries[name] = np.ones(shape, dtype=np.float32)
    model = make_model(seed=21)
    fresh = {n: a.copy() for n, a, _ in model.named_state()}
    model, report = import_encoder(model, WeightArchive(entries=entries))
    assert name in report.reinitialized and name in report.skipped
    assert name not in report.matched and name not in report.adapted
    state = {n: a for n, a, _ in model.named_state()}
    np.testing.assert_array_equal(state[name], fresh[name])


def test_import_encoder_rejects_incompatible_archive():
    other = Classifier2D(EncoderConfig(kind="resnet18", width_multiplier=0.125,
                                       min_input=8))
    he_init(other, seed=13)
    with pytest.raises(WeightArchiveError, match="incompatible"):
        import_encoder(make_model(), export_weights(other))


def test_freezing_statistics_after_import_encoder_pins_running_stats():
    imgs, labels = generate_synthetic_images(20, size=(8, 8), seed=14)
    result = pretrain_2d(ENC, imgs, labels, epochs=1, batch_size=10, seed=14)
    model = make_model(seed=15)
    model, _ = import_encoder(model, result.archive)
    for mod in model.encoder.modules():
        if isinstance(mod, nn.BatchNorm2d):
            mod.freeze_stats = True

    bn = model.encoder.block1.bn
    assert bn.freeze_stats
    before = bn._buffers["running_mean"].copy()
    model.train()
    with no_grad():
        model.forward_volume(rand_volume(16))
    np.testing.assert_array_equal(bn._buffers["running_mean"], before)


def test_load_report_serializes():
    report = LoadReport(matched=["a"], skipped=["b"], reinitialized=["c"], adapted=["a"])
    d = report.to_dict()
    assert d == {"matched": ["a"], "skipped": ["b"], "reinitialized": ["c"], "adapted": ["a"]}
    text = report.summary()
    assert "matched 1" in text and "skipped 1" in text


# ---------------------------------------------------------------------------
# 2D pretraining
# ---------------------------------------------------------------------------

def test_pretrain_archive_contains_only_encoder_entries():
    imgs, labels = generate_synthetic_images(20, size=(8, 8), seed=17)
    result = pretrain_2d(ENC, imgs, labels, epochs=1, batch_size=10, seed=17)
    assert all(name.startswith("encoder.") for name in result.archive.names())
    assert result.archive.metadata["contents"] == "2d-encoder"
    assert result.archive.metadata["encoder_kind"] == "cnn5"


def test_pretrain_same_seed_gives_identical_bytes():
    imgs, labels = generate_synthetic_images(20, size=(8, 8), seed=18)
    a = pretrain_2d(ENC, imgs, labels, epochs=2, batch_size=10, seed=18)
    b = pretrain_2d(ENC, imgs, labels, epochs=2, batch_size=10, seed=18)
    assert a.archive.to_bytes() == b.archive.to_bytes()
    assert a.train_accuracy == b.train_accuracy


def test_pretrain_archive_and_losses_are_pinned():
    """One tiny config's archive digest and loss list: a refactor of pretraining
    that moves a single bit of either fails here."""
    imgs, labels = generate_synthetic_images(16, size=(8, 8), blob_radius=2, seed=3)
    result = pretrain_2d(ENC, imgs, labels, epochs=2, batch_size=8, learning_rate=1e-3, seed=1)
    assert hashlib.sha256(result.archive.to_bytes()).hexdigest() == (
        "16b4315362ddf46f69c2e5670227e09b974c7938840b7780cd275571d97564af")
    assert result.losses == [0.48149415850639343, 0.2931322306394577]


def test_pretrain_learns_blob_detection():
    imgs, labels = generate_synthetic_images(60, size=(10, 10), seed=19)
    result = pretrain_2d(ENC, imgs, labels, epochs=10, batch_size=12, seed=19)
    assert result.train_accuracy > 0.9
    assert len(result.losses) == 10
    assert result.losses[-1] < result.losses[0]


def test_pretrain_validates_inputs():
    with pytest.raises(ValueError):
        pretrain_2d(ENC, np.zeros((4, 8, 8), dtype=np.float32),
                    np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        pretrain_2d(ENC, np.zeros((4, 1, 8, 8), dtype=np.float32),
                    np.zeros(3, dtype=np.int64))


def test_pretrain_nan_image_raises_divergence_with_location():
    imgs, labels = generate_synthetic_images(8, size=(8, 8), seed=20)
    imgs[3, 0, 4, 4] = np.nan
    with pytest.raises(TrainingDivergedError, match=r"epoch 1, batch 0"):
        pretrain_2d(ENC, imgs, labels, epochs=2, batch_size=8, seed=20)


def test_pretrain_rejects_zero_images():
    with pytest.raises(ValueError, match="at least one image"):
        pretrain_2d(ENC, np.zeros((0, 1, 8, 8), dtype=np.float32), np.zeros(0, dtype=np.int64))


# ---------------------------------------------------------------------------
# fuzzing: truncated or byte-flipped archives load or raise WeightArchiveError
# ---------------------------------------------------------------------------

SMALL_ARCHIVE = WeightArchive(
    entries={"encoder.w": np.arange(6, dtype=np.float32).reshape(2, 3),
             "head.b": np.ones(1, dtype=np.float32)},
    metadata={"kind": "slice-set-checkpoint", "seed": "0"}).to_bytes()


def mutations(raw: bytes):
    """Every truncation of ``raw`` and every single-byte flip."""
    def flip(i, mask):
        out = bytearray(raw)
        out[i] ^= mask
        return bytes(out)
    return (st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
            | st.builds(flip, st.integers(0, len(raw) - 1), st.integers(1, 255)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutations(SMALL_ARCHIVE))
def test_fuzz_archive_from_bytes_loads_or_raises_archive_error(raw):
    try:
        archive = WeightArchive.from_bytes(raw)
    except WeightArchiveError:
        return
    assert all(arr.dtype == np.float32 for arr in archive.entries.values())
