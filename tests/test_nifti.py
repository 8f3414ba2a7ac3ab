"""NIfTI-1 reader/writer against a header oracle built with raw struct packing."""

import gzip
import hashlib
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sliceset.data import Volume
from sliceset.nifti import (HEADER_SIZE, NiftiFormatError, NiftiUnsupportedError,
                            load_nifti, save_nifti)


def craft_nifti_bytes(voxels, datatype_code, np_dtype, endian="<",
                      dim0=3, vox_offset=352.0, scl_slope=1.0, scl_inter=0.0,
                      magic=b"n+1\x00"):
    """Assemble NIfTI-1 bytes field by field, independent of the library writer.

    Field offsets follow the published C struct: sizeof_hdr at byte 0, dim[8]
    at 40, datatype/bitpix at 70/72, vox_offset at 108, scl_slope/scl_inter
    at 112/116, magic at 344.
    """
    header = bytearray(348)
    struct.pack_into(endian + "i", header, 0, 348)
    dims = [dim0, *voxels.shape] + [1] * (8 - 1 - voxels.ndim)
    struct.pack_into(endian + "8h", header, 40, *dims)
    struct.pack_into(endian + "h", header, 70, datatype_code)
    struct.pack_into(endian + "h", header, 72, np.dtype(np_dtype).itemsize * 8)
    struct.pack_into(endian + "f", header, 108, vox_offset)
    struct.pack_into(endian + "f", header, 112, scl_slope)
    struct.pack_into(endian + "f", header, 116, scl_inter)
    header[344:348] = magic
    body = voxels.astype(np.dtype(np_dtype).newbyteorder(endian)).tobytes(order="F")
    pad = b"\x00" * (int(vox_offset) - 348)
    return bytes(header) + pad + body


def test_crafted_4x4x4_float32_loads_exactly(tmp_path):
    rng = np.random.default_rng(0)
    vox = rng.normal(0, 1, (4, 4, 4)).astype(np.float32)
    path = tmp_path / "crafted.nii"
    path.write_bytes(craft_nifti_bytes(vox, 16, np.float32))
    vol = load_nifti(path)
    np.testing.assert_array_equal(vol.voxels, vox)
    assert vol.subject_id == "crafted"


def test_crafted_int16_and_uint8_cast_to_float32(tmp_path):
    vox16 = np.arange(-30, 30, dtype=np.int16).reshape(3, 4, 5)
    p16 = tmp_path / "i16.nii"
    p16.write_bytes(craft_nifti_bytes(vox16, 4, np.int16))
    v = load_nifti(p16)
    assert v.voxels.dtype == np.float32
    np.testing.assert_array_equal(v.voxels, vox16.astype(np.float32))

    vox8 = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    p8 = tmp_path / "u8.nii"
    p8.write_bytes(craft_nifti_bytes(vox8, 2, np.uint8))
    np.testing.assert_array_equal(load_nifti(p8).voxels, vox8.astype(np.float32))


def test_big_endian_file_loads_identically(tmp_path):
    rng = np.random.default_rng(1)
    vox = rng.normal(0, 1, (5, 4, 3)).astype(np.float32)
    little = tmp_path / "le.nii"
    big = tmp_path / "be.nii"
    little.write_bytes(craft_nifti_bytes(vox, 16, np.float32, endian="<"))
    big.write_bytes(craft_nifti_bytes(vox, 16, np.float32, endian=">"))
    np.testing.assert_array_equal(load_nifti(little).voxels, load_nifti(big).voxels)


def test_gzip_variant_loads_identically(tmp_path):
    rng = np.random.default_rng(2)
    vox = rng.normal(0, 1, (4, 6, 5)).astype(np.float32)
    raw = craft_nifti_bytes(vox, 16, np.float32)
    plain = tmp_path / "v.nii"
    zipped = tmp_path / "v.nii.gz"
    plain.write_bytes(raw)
    zipped.write_bytes(gzip.compress(raw))
    np.testing.assert_array_equal(load_nifti(plain).voxels, load_nifti(zipped).voxels)
    assert load_nifti(zipped).subject_id == "v"


def test_scale_slope_and_intercept_are_applied(tmp_path):
    vox = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    path = tmp_path / "scaled.nii"
    path.write_bytes(craft_nifti_bytes(vox, 4, np.int16, scl_slope=2.5, scl_inter=-1.0))
    got = load_nifti(path).voxels
    np.testing.assert_allclose(got, vox.astype(np.float32) * 2.5 - 1.0, rtol=1e-6)


def test_fortran_order_mapping(tmp_path):
    # Voxel (i, j, k) must come back from the x-fastest on-disk layout.
    vox = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / "order.nii"
    path.write_bytes(craft_nifti_bytes(vox, 16, np.float32))
    got = load_nifti(path).voxels
    np.testing.assert_array_equal(got, vox)


# ---------------------------------------------------------------------------
# malformed and unsupported files
# ---------------------------------------------------------------------------

def test_truncated_header_is_a_format_error(tmp_path):
    path = tmp_path / "short.nii"
    path.write_bytes(b"\x00" * (HEADER_SIZE - 1))
    with pytest.raises(NiftiFormatError):
        load_nifti(path)


def test_truncated_body_is_a_format_error(tmp_path):
    vox = np.zeros((4, 4, 4), dtype=np.float32)
    raw = craft_nifti_bytes(vox, 16, np.float32)
    path = tmp_path / "cut.nii"
    path.write_bytes(raw[:-10])
    with pytest.raises(NiftiFormatError):
        load_nifti(path)


def test_bad_magic_is_a_format_error(tmp_path):
    vox = np.zeros((2, 2, 2), dtype=np.float32)
    path = tmp_path / "magic.nii"
    path.write_bytes(craft_nifti_bytes(vox, 16, np.float32, magic=b"ni1\x00"))
    with pytest.raises(NiftiFormatError):
        load_nifti(path)


def test_bad_sizeof_hdr_is_a_format_error(tmp_path):
    vox = np.zeros((2, 2, 2), dtype=np.float32)
    raw = bytearray(craft_nifti_bytes(vox, 16, np.float32))
    struct.pack_into("<i", raw, 0, 123)
    path = tmp_path / "hdr.nii"
    path.write_bytes(bytes(raw))
    with pytest.raises(NiftiFormatError):
        load_nifti(path)


def _with_vox_offset(value):
    raw = bytearray(craft_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32), 16, np.float32))
    struct.pack_into("<f", raw, 108, value)
    return bytes(raw)


def _with_nan_voxel():
    vox = np.zeros((2, 2, 2), dtype=np.float32)
    vox[1, 0, 1] = np.nan
    return craft_nifti_bytes(vox, 16, np.float32)


@pytest.mark.parametrize("raw", [
    _with_vox_offset(float("inf")),
    _with_vox_offset(float("-inf")),
    _with_vox_offset(float("nan")),
    _with_nan_voxel(),
    craft_nifti_bytes(np.ones((2, 2, 2), dtype=np.int16), 4, np.int16, scl_slope=float("nan")),
    craft_nifti_bytes(np.ones((2, 2, 2), dtype=np.int16), 4, np.int16, scl_inter=float("inf")),
], ids=["vox_offset-inf", "vox_offset-neg-inf", "vox_offset-nan", "nan-voxel",
        "scl_slope-nan", "scl_inter-inf"])
def test_non_finite_header_or_voxels_are_a_format_error(tmp_path, raw):
    path = tmp_path / "nonfinite.nii"
    path.write_bytes(raw)
    with pytest.raises(NiftiFormatError, match="nonfinite.nii"):
        load_nifti(path)


def test_non_3d_is_unsupported(tmp_path):
    vox = np.zeros((2, 2, 2), dtype=np.float32)
    path = tmp_path / "4d.nii"
    path.write_bytes(craft_nifti_bytes(vox, 16, np.float32, dim0=4))
    with pytest.raises(NiftiUnsupportedError):
        load_nifti(path)


def test_unknown_datatype_is_unsupported(tmp_path):
    vox = np.zeros((2, 2, 2), dtype=np.float64)
    path = tmp_path / "f64.nii"
    path.write_bytes(craft_nifti_bytes(vox, 64, np.float64))
    with pytest.raises(NiftiUnsupportedError):
        load_nifti(path)


def test_writer_rejects_unsupported_dtype(tmp_path):
    vol = Volume(voxels=np.zeros((2, 2, 2)))
    with pytest.raises(NiftiUnsupportedError):
        save_nifti(tmp_path / "bad.nii", vol, dtype=np.float64)


# ---------------------------------------------------------------------------
# writer round trips
# ---------------------------------------------------------------------------

def test_save_load_round_trip_exact_float32(tmp_path):
    rng = np.random.default_rng(3)
    vox = rng.normal(0, 1, (7, 5, 6)).astype(np.float32)
    vol = Volume(voxels=vox, subject_id="rt")
    save_nifti(tmp_path / "rt.nii", vol)
    np.testing.assert_array_equal(load_nifti(tmp_path / "rt.nii").voxels, vox)


def test_save_gz_round_trip_and_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(4)
    vox = rng.normal(0, 1, (4, 4, 4)).astype(np.float32)
    vol = Volume(voxels=vox)
    a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    save_nifti(a, vol)
    save_nifti(b, vol)
    np.testing.assert_array_equal(load_nifti(a).voxels, vox)
    assert a.read_bytes() == b.read_bytes()  # gzip mtime pinned


def test_written_file_parses_with_crafted_reader_fields(tmp_path):
    """The writer's header fields must agree with the independent layout oracle."""
    vox = np.arange(12, dtype=np.float32).reshape(3, 2, 2)
    save_nifti(tmp_path / "w.nii", Volume(voxels=vox))
    raw = (tmp_path / "w.nii").read_bytes()
    assert struct.unpack("<i", raw[:4])[0] == 348
    assert struct.unpack("<8h", raw[40:56])[:4] == (3, 3, 2, 2)
    assert struct.unpack("<h", raw[70:72])[0] == 16  # float32 code
    assert struct.unpack("<h", raw[72:74])[0] == 32  # bitpix
    assert int(struct.unpack("<f", raw[108:112])[0]) == 352
    assert raw[344:348] == b"n+1\x00"
    body = np.frombuffer(raw, dtype="<f4", count=12, offset=352)
    np.testing.assert_array_equal(body.reshape((3, 2, 2), order="F"), vox)


@pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
def test_save_failure_keeps_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, name):
    path = tmp_path / name
    save_nifti(path, Volume(voxels=np.zeros((2, 3, 4), dtype=np.float32)))
    before = path.read_bytes()

    def crash(fd):
        raise OSError("simulated crash while writing")

    monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError, match="simulated crash"):
        save_nifti(path, Volume(voxels=np.ones((2, 3, 4), dtype=np.float32)))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


@settings(deadline=None, max_examples=25)
@given(hnp.arrays(dtype=np.float32,
                  shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
                  elements=st.floats(-1e4, 1e4, width=32)))
def test_round_trip_property(tmp_path_factory, vox):
    tmp = tmp_path_factory.mktemp("rt")
    save_nifti(tmp / "p.nii", Volume(voxels=vox))
    np.testing.assert_array_equal(load_nifti(tmp / "p.nii").voxels, vox)


# A fixed volume in each writable dtype: x·37 mod 251 over 4×5×6 voxels,
# fractional floats, negative int16 and the whole uint8 range in use.
_PIN_BASE = np.arange(4 * 5 * 6).reshape(4, 5, 6) * 37 % 251
PINNED = {
    "float32": (_PIN_BASE / 4.0 - 20.0, np.float32,
                "770b21de26d1ff192b02eddf895a7acd1af59db04083eeaae6ade2967f56610f"),
    "int16": ((_PIN_BASE - 125) * 100, np.int16,
              "deb5d4b167e169cf79c871ad450fe332b7d7f01ef9ea23b58b1c15e45c07f8b5"),
    "uint8": (_PIN_BASE, np.uint8,
              "6acb7ff35eedffddff4d477bd2ca02195763259ad3f2196df4918c2fbe7c1051"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_plain_file_bytes_are_pinned(tmp_path, name):
    vox, dtype, digest = PINNED[name]
    save_nifti(tmp_path / "v.nii", Volume(voxels=vox), dtype=dtype)
    assert hashlib.sha256((tmp_path / "v.nii").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED))
def test_gzip_file_is_the_plain_file_compressed(tmp_path, name):
    vox, dtype, _ = PINNED[name]
    plain, zipped = tmp_path / "v.nii", tmp_path / "v.nii.gz"
    for path in (plain, zipped):
        save_nifti(path, Volume(voxels=vox), dtype=dtype)
    assert gzip.decompress(zipped.read_bytes()) == plain.read_bytes()
    np.testing.assert_array_equal(load_nifti(zipped).voxels, load_nifti(plain).voxels)
    np.testing.assert_array_equal(load_nifti(plain).voxels, vox.astype(np.float32))


def test_fortran_ordered_volume_writes_the_same_bytes(tmp_path):
    vox = PINNED["float32"][0].astype(np.float32)
    c, f = tmp_path / "c.nii.gz", tmp_path / "f.nii.gz"
    save_nifti(c, Volume(voxels=vox))
    save_nifti(f, Volume(voxels=np.asfortranarray(vox)))
    assert c.read_bytes() == f.read_bytes()


@pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
def test_save_holds_no_volume_sized_copy(tmp_path, name):
    vox = np.random.default_rng(5).normal(0, 1, (96, 112, 96)).astype(np.float32)
    volume = Volume(voxels=vox)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_nifti(tmp_path / name, volume)
        added = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert added <= 0.25 * vox.nbytes, (added, vox.nbytes)


@pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
def test_load_holds_no_volume_sized_copy(tmp_path, name):
    vox = np.random.default_rng(5).normal(0, 1, (96, 112, 96)).astype(np.float32)
    save_nifti(tmp_path / name, Volume(voxels=vox))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        volume = load_nifti(tmp_path / name)
        added = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(volume.voxels, vox)
    assert added <= 1.25 * vox.nbytes, (added, vox.nbytes)


def test_gzip_members_split_inside_the_payload_load_as_one_stream(tmp_path):
    vox = np.random.default_rng(6).normal(0, 1, (5, 6, 7)).astype(np.float32)
    raw = craft_nifti_bytes(vox, 16, np.float32)
    cut = 352 + vox.nbytes // 3
    path = tmp_path / "two.nii.gz"
    path.write_bytes(gzip.compress(raw[:cut], mtime=0) + gzip.compress(raw[cut:], mtime=0))
    np.testing.assert_array_equal(load_nifti(path).voxels, vox)


@pytest.mark.parametrize("offset", [348, 349, 350, 351])
@pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
def test_vox_offset_348_to_351_loads_the_same_voxels(tmp_path, offset, name):
    vox = np.arange(3 * 4 * 5, dtype=np.int16).reshape(3, 4, 5) - 30
    raw = craft_nifti_bytes(vox, 4, np.int16, vox_offset=float(offset))
    (tmp_path / name).write_bytes(gzip.compress(raw) if name.endswith(".gz") else raw)
    np.testing.assert_array_equal(load_nifti(tmp_path / name).voxels, vox.astype(np.float32))


def test_corrupt_gzip_is_reported_before_a_bad_header(tmp_path):
    raw = craft_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32), 16, np.float32,
                            magic=b"ni1\x00")
    zipped = bytearray(gzip.compress(raw, mtime=0))
    zipped[-8] ^= 0x01                    # CRC32 trailer
    path = tmp_path / "both.nii.gz"
    path.write_bytes(bytes(zipped))
    with pytest.raises(NiftiFormatError, match="corrupt gzip stream"):
        load_nifti(path)


def _nan_voxel():
    vox = np.zeros((2, 3, 4), dtype=np.float32)
    vox[1, 2, 3] = np.nan
    return vox


@pytest.mark.parametrize("vox, dtype, error, message", [
    (_nan_voxel(), np.float32, NiftiFormatError, "not all finite"),
    (np.full((2, 3, 4), -np.inf, dtype=np.float32), np.float32, NiftiFormatError, "not all finite"),
    (np.zeros((0, 2, 2), dtype=np.float32), np.float32, NiftiFormatError, "extents"),
    (np.zeros((40000, 1, 1), dtype=np.float32), np.float32, NiftiFormatError, "extents"),
    (np.full((2, 3, 4), 40000.0), np.int16, NiftiUnsupportedError, "does not fit int16"),
    (_nan_voxel(), np.int16, NiftiFormatError, "not all finite"),
    (np.full((2, 3, 4), -3.0), np.uint8, NiftiUnsupportedError, "does not fit uint8"),
    (np.full((2, 3, 4), 300.0), np.uint8, NiftiUnsupportedError, "does not fit uint8"),
], ids=["nan", "neg-inf", "empty-extent", "extent-40000", "int16-40000", "int16-nan",
        "uint8-minus-3", "uint8-300"])
@pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
def test_save_rejects_what_load_would_not_read_back(tmp_path, vox, dtype, error, message, name):
    path = tmp_path / name
    save_nifti(path, Volume(voxels=np.ones((2, 2, 2), dtype=np.float32)))
    before = path.read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy cast warning on the way
        with pytest.raises(error, match=message) as info:
            save_nifti(path, Volume(voxels=vox), dtype=dtype)
    assert name in str(info.value)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_save_accepts_the_ends_of_the_integer_ranges(tmp_path):
    for dtype in (np.int16, np.uint8):
        info = np.iinfo(dtype)
        vox = np.array([info.min, info.max], dtype=np.float32).reshape(2, 1, 1)
        save_nifti(tmp_path / "ends.nii.gz", Volume(voxels=vox), dtype=dtype)
        np.testing.assert_array_equal(load_nifti(tmp_path / "ends.nii.gz").voxels, vox)


# ---------------------------------------------------------------------------
# corrupt gzip and fuzzing
# ---------------------------------------------------------------------------

PLAIN = craft_nifti_bytes(np.arange(24, dtype=np.float32).reshape(2, 3, 4), 16, np.float32)
ZIPPED = gzip.compress(PLAIN, mtime=0)


def _flip(raw, i, mask=0x01):
    out = bytearray(raw)
    out[i] ^= mask
    return bytes(out)


@pytest.mark.parametrize("raw", [
    ZIPPED[:len(ZIPPED) // 2],
    _flip(ZIPPED, 10, 0xFF),              # first deflate byte: a zlib error
    _flip(ZIPPED, len(ZIPPED) - 8),       # CRC32 trailer
], ids=["truncated", "flipped-body-byte", "bad-crc"])
def test_corrupt_gzip_is_a_format_error_naming_the_file(tmp_path, raw):
    path = tmp_path / "corrupt.nii.gz"
    path.write_bytes(raw)
    with pytest.raises(NiftiFormatError, match="corrupt.nii.gz"):
        load_nifti(path)


def mutations(raw: bytes):
    """Every truncation of ``raw`` and every single-byte flip."""
    return (st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
            | st.builds(_flip, st.just(raw), st.integers(0, len(raw) - 1), st.integers(1, 255)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([("m.nii", PLAIN), ("m.nii.gz", ZIPPED)]).flatmap(
    lambda named: st.tuples(st.just(named[0]), mutations(named[1]))))
def test_fuzz_load_nifti_loads_or_raises_nifti_error(tmp_path_factory, case):
    name, raw = case
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(raw)
    try:
        volume = load_nifti(path)
    except (NiftiFormatError, NiftiUnsupportedError):
        return
    assert volume.voxels.ndim == 3 and np.isfinite(volume.voxels).all()
