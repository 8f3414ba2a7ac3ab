"""Minimal single-file NIfTI-1 reader/writer.

Covers exactly what the rest of the package needs: 3-D volumes in uint8,
int16, or float32, plain or gzip-compressed, either byte order (sniffed from
the header-size field).  Orientation metadata is read but not acted on —
inputs are assumed already resampled to a common grid.  Files are written
little-endian with data at offset 352 (header + empty extension flag),
streamed one z-plane at a time so that a save holds no volume-sized copy;
``.nii.gz`` files are run-length deflated (see ``_gzip_chunks``).

A load reads one stream, gzip if the file starts with the gzip magic and
plain otherwise, in chunks straight into the voxel array, so it too holds
one volume.  Any gzip stream loads, several members included, and it is
read to its end, so its CRC and length are always checked: a corrupt stream
is reported before anything wrong in the header.
"""

from __future__ import annotations

import gzip
import itertools
import struct
import zlib
from pathlib import Path

import numpy as np

from .data import Volume, write_atomic

HEADER_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"
VOX_OFFSET = 352
_MAX_EXTENT = 32767   # dim[] is int16

# NIfTI-1 datatype codes we accept.
_DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32}
_DTYPE_CODES = {np.dtype(np.uint8): (2, 8), np.dtype(np.int16): (4, 16),
                np.dtype(np.float32): (16, 32)}

_GZIP_MAGIC = b"\x1f\x8b"


class NiftiFormatError(ValueError):
    """Raised when bytes are not a valid single-file NIfTI-1."""


class NiftiUnsupportedError(ValueError):
    """Raised for well-formed NIfTI-1 files outside the supported subset."""


_CHUNK = 256 * 1024   # bytes per read: bounds the decompressed chunk a gzip read makes


def _read_into(stream, view) -> int:
    """Fill the byte memoryview ``view`` from ``stream`` in chunks; return the
    bytes read, fewer than ``len(view)`` only at the end of the stream."""
    filled = 0
    while filled < len(view):
        n = stream.readinto(view[filled:filled + _CHUNK])
        if not n:
            break
        filled += n
    return filled


def _discard(stream, limit=None) -> int:
    """Read and drop up to ``limit`` bytes (all, by default); return how many
    there were.  Reading a gzip stream to its end checks its CRC and length."""
    dropped = 0
    while limit is None or dropped < limit:
        chunk = stream.read(_CHUNK if limit is None else min(_CHUNK, limit - dropped))
        if not chunk:
            break
        dropped += len(chunk)
    return dropped


def _parse_header(head: bytes, path):
    """The extents, the voxel dtype in the file's byte order, the payload
    offset and the scaling that the header ``head`` describes."""
    if len(head) < HEADER_SIZE:
        raise NiftiFormatError(
            f"{path}: file has {len(head)} bytes, shorter than the {HEADER_SIZE}-byte header")

    # The header-size field doubles as an endianness marker.
    (sizeof_hdr,) = struct.unpack("<i", head[:4])
    if sizeof_hdr == HEADER_SIZE:
        end = "<"
    elif struct.unpack(">i", head[:4])[0] == HEADER_SIZE:
        end = ">"
    else:
        raise NiftiFormatError(f"{path}: header size field is {sizeof_hdr}, expected {HEADER_SIZE}")

    magic = head[344:348]
    if magic != MAGIC_SINGLE:
        raise NiftiFormatError(f"{path}: magic {magic!r} is not single-file NIfTI-1 {MAGIC_SINGLE!r}")

    dim = struct.unpack(end + "8h", head[40:56])
    if dim[0] != 3:
        raise NiftiUnsupportedError(f"{path}: {dim[0]}-D image; only 3-D volumes are supported")
    extents = dim[1], dim[2], dim[3]
    if any(e < 1 for e in extents):
        raise NiftiFormatError(f"{path}: non-positive extents {extents}")

    (datatype,) = struct.unpack(end + "h", head[70:72])
    if datatype not in _DTYPES:
        raise NiftiUnsupportedError(
            f"{path}: datatype code {datatype} not in supported set {sorted(_DTYPES)}")
    dtype = np.dtype(_DTYPES[datatype]).newbyteorder(end)

    (vox_offset,) = struct.unpack(end + "f", head[108:112])
    if not np.isfinite(vox_offset):
        raise NiftiFormatError(f"{path}: vox_offset {vox_offset} is not finite")
    offset = int(vox_offset)
    if offset < HEADER_SIZE:
        offset = VOX_OFFSET
    scl_slope, scl_inter = struct.unpack(end + "2f", head[112:120])
    return extents, dtype, offset, scl_slope, scl_inter


def _read_voxels(stream, path) -> np.ndarray:
    head = stream.read(HEADER_SIZE)
    try:
        extents, dtype, offset, scl_slope, scl_inter = _parse_header(head, path)
    except (NiftiFormatError, NiftiUnsupportedError):
        _discard(stream)   # a corrupt gzip stream is reported first, as by a whole-file read
        raise
    count = extents[0] * extents[1] * extents[2]
    need = offset + count * dtype.itemsize

    def short(read):
        return NiftiFormatError(
            f"{path}: need {need} bytes for {extents} voxels at offset {offset}, file has {read}")

    try:
        flat = np.empty(count, dtype=dtype)
    except MemoryError:   # more voxels than memory holds: a short file is still a format error
        read = len(head) + _discard(stream)
        if read < need:
            raise short(read) from None
        raise
    payload = memoryview(flat.view(np.uint8))
    skipped = _discard(stream, offset - HEADER_SIZE)
    filled = _read_into(stream, payload)
    if filled < len(payload):
        raise short(HEADER_SIZE + skipped + filled)
    _discard(stream)

    voxels = flat.reshape(extents, order="F").astype(np.float32, copy=False)
    if scl_slope not in (0.0, 1.0) or scl_inter != 0.0:
        voxels *= np.float32(scl_slope)
        voxels += np.float32(scl_inter)
    # min and max propagate NaN and show ±inf, with no volume-sized temporary.
    if not (np.isfinite(voxels.min()) and np.isfinite(voxels.max())):
        raise NiftiFormatError(f"{path}: voxel values are not all finite after scaling")
    return voxels


def load_nifti(path) -> Volume:
    """Read a 3-D single-file NIfTI-1 (.nii or .nii.gz) into a Volume.

    Voxels come back as float32 in Fortran (column-major) axis order, so
    index [i, j, k] matches the on-disk (x, y, z) convention.
    """
    with open(path, "rb") as file:
        zipped = file.read(2) == _GZIP_MAGIC
        file.seek(0)
        stream = gzip.GzipFile(fileobj=file) if zipped else file
        try:
            voxels = _read_voxels(stream, path)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise NiftiFormatError(f"{path}: corrupt gzip stream: {exc}") from None
    return Volume(voxels=voxels, subject_id=Path(path).stem.removesuffix(".nii"))


def save_nifti(path, volume: Volume, dtype=np.float32):
    """Write a Volume as a little-endian single-file NIfTI-1, atomically; .gz paths are compressed.

    Only what :func:`load_nifti` reads back is written: extents in 1..32767,
    finite voxels, and for an integer ``dtype`` values inside its range
    (fractions are truncated toward zero).  Anything else raises before the
    file at ``path`` changes.
    """
    np_dtype = np.dtype(dtype)
    if np_dtype not in _DTYPE_CODES:
        raise NiftiUnsupportedError(
            f"{path}: cannot write dtype {np_dtype}; "
            f"supported: {sorted(str(d) for d in _DTYPE_CODES)}")
    code, bitpix = _DTYPE_CODES[np_dtype]
    voxels = volume.voxels
    extents = voxels.shape
    if not all(1 <= e <= _MAX_EXTENT for e in extents):
        raise NiftiFormatError(f"{path}: extents {extents} outside 1..{_MAX_EXTENT}")
    # min and max propagate NaN and show ±inf, with no volume-sized temporary.
    low, high = voxels.min(), voxels.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise NiftiFormatError(f"{path}: voxel values are not all finite")
    if np_dtype.kind in "iu":
        info = np.iinfo(np_dtype)
        if low < info.min or high > info.max:
            raise NiftiUnsupportedError(
                f"{path}: voxel range [{low}, {high}] does not fit {np_dtype} "
                f"[{info.min}, {info.max}]")

    header = bytearray(VOX_OFFSET)   # the 348-byte header, then an empty extension flag
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, *extents, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, code, bitpix)
    struct.pack_into("<8f", header, 76, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", header, 108, float(VOX_OFFSET))
    struct.pack_into("<2f", header, 112, 1.0, 0.0)  # scl_slope, scl_inter
    header[344:348] = MAGIC_SINGLE

    # The file stores x fastest: each z-plane in Fortran order, planes in z order.
    le_dtype = np_dtype.newbyteorder("<")
    chunks = itertools.chain([bytes(header)], (
        voxels[:, :, k].astype(le_dtype, copy=False).tobytes(order="F")
        for k in range(extents[2])))
    if Path(path).name.endswith(".gz"):
        chunks = _gzip_chunks(chunks)
    write_atomic(path, chunks)


def _gzip_chunks(chunks):
    """Gzip-frame byte chunks (``wbits=31``: mtime 0, so equal volumes give
    equal files) with run-length deflate, which on float noise keeps level
    9's ratio at a third of its time; zero backgrounds still shrink."""
    compressor = zlib.compressobj(9, zlib.DEFLATED, 31, zlib.DEF_MEM_LEVEL, zlib.Z_RLE)
    for chunk in chunks:
        out = compressor.compress(chunk)
        if out:
            yield out
    yield compressor.flush()
