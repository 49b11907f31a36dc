"""Binary array container used by the command line tool.

Layout, all little-endian:

    bytes 0-3   magic "AENT"
    bytes 4-5   format version (u16), currently 1
    bytes 6-7   dtype code (u16): 0 = float32, 1 = float64
    bytes 8-9   ndim (u16)
    then        ndim dims, u64 each
    then        payload, row-major, exactly prod(dims) elements

The payload is written from the array's own buffer, copied only to make
it C-contiguous and little-endian.  A regular file's float64 payload is
read straight into the result and a float32 one widened into it through
one 64 KiB block; other files (pipes) are read whole first.
"""

from __future__ import annotations

import math
import os
import stat
import struct

import numpy as np

from .errors import FormatError, InvalidArgumentError

MAGIC = b"AENT"
VERSION = 1
_HEADER = struct.Struct("<4sHHH")
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_MAX_NDIM = 32
_WIDEN_BLOCK = 1 << 14  # float32 elements, 64 KiB


def write_matrix(path, array) -> None:
    """Serialize an array; float32 input stays float32, all else is float64."""
    arr = np.asarray(array)
    if arr.ndim < 1 or arr.ndim > _MAX_NDIM:
        raise InvalidArgumentError(f"ndim must be in [1, {_MAX_NDIM}], got {arr.ndim}")
    if np.iscomplexobj(arr):
        raise InvalidArgumentError("complex arrays are not supported")
    if arr.dtype.kind == "f" and arr.dtype.itemsize == 4:  # either byte order
        code, dtype = 0, _DTYPE_CODES[0]
    else:
        code, dtype = 1, _DTYPE_CODES[1]
    payload = np.ascontiguousarray(arr, dtype=dtype)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(payload.data)


def read_matrix(path) -> np.ndarray:
    """Read a serialized array back as float64 (see the module docstring)."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        regular = stat.S_ISREG(info.st_mode)
        blob = fh.read(_HEADER.size + 8 * _MAX_NDIM if regular else -1)
        size = info.st_size if regular else len(blob)
        if len(blob) < _HEADER.size:
            raise FormatError("file too short for a header")
        magic, version, code, ndim = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported format version {version}")
        if code not in _DTYPE_CODES:
            raise FormatError(f"unknown dtype code {code}")
        if not 1 <= ndim <= _MAX_NDIM:
            raise FormatError(f"ndim {ndim} out of range")
        offset = _HEADER.size + 8 * ndim
        if len(blob) < offset:
            raise FormatError("file too short for its dims")
        dims = struct.unpack_from(f"<{ndim}Q", blob, _HEADER.size)
        dtype = _DTYPE_CODES[code]
        expected = offset + dtype.itemsize * math.prod(dims)
        if size != expected:
            raise FormatError(f"payload length mismatch: file has {size} bytes, expected {expected}")
        if not regular:
            return np.frombuffer(blob, dtype=dtype, offset=offset).reshape(dims).astype(np.float64)
        out = np.empty(dims)
        flat = out.reshape(-1)
        fh.seek(offset)
        if dtype == out.dtype:
            if fh.readinto(flat.view(np.uint8)) != out.nbytes:
                raise FormatError("file shrank while it was read")
            return out
        block = np.empty(_WIDEN_BLOCK, dtype=dtype)
        for lo in range(0, flat.size, _WIDEN_BLOCK):
            part = block[: flat.size - lo]
            if fh.readinto(part.view(np.uint8)) != part.nbytes:
                raise FormatError("file shrank while it was read")
            flat[lo : lo + part.size] = part
    return out
