import hashlib
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from aent import FormatError, InvalidArgumentError, read_matrix, write_matrix
from aent.matrixfile import _HEADER, _WIDEN_BLOCK, MAGIC, VERSION


def _write_raw(path, magic=MAGIC, version=VERSION, code=1, ndim=2, dims=(2, 2), payload=None):
    if payload is None:
        payload = np.zeros(int(np.prod(dims)), dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, version, code, ndim))
        fh.write(struct.pack(f"<{len(dims)}Q", *dims))
        fh.write(payload)


class TestRoundTrip:
    def test_float64(self, tmp_path):
        path = tmp_path / "m.aent"
        arr = np.random.default_rng(0).standard_normal((3, 5))
        write_matrix(path, arr)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)

    @pytest.mark.parametrize(
        "shape", [(4, 2), (0, 5), (1,), (_WIDEN_BLOCK - 1,), (_WIDEN_BLOCK,), (2, _WIDEN_BLOCK + 7), (3, 7, 11)]
    )
    def test_float32_widened(self, tmp_path, shape):
        path = tmp_path / "m.aent"
        arr = np.random.default_rng(1).standard_normal(shape).astype(np.float32)
        write_matrix(path, arr)
        back = read_matrix(path)
        assert back.dtype == np.float64 and back.shape == shape
        assert np.array_equal(back, arr.astype(np.float64))

    @pytest.mark.parametrize("dtype", ["<f4", ">f4"])
    def test_float32_in_either_byte_order_stays_float32(self, tmp_path, dtype):
        path = tmp_path / "m.aent"
        arr = np.random.default_rng(3).standard_normal((3, 5)).astype(dtype)
        write_matrix(path, arr)
        assert _HEADER.unpack_from(path.read_bytes())[2] == 0
        assert path.stat().st_size == _HEADER.size + 2 * 8 + arr.size * 4
        assert np.array_equal(read_matrix(path), arr.astype(np.float64))

    def test_integer_input_stored_as_float64(self, tmp_path):
        path = tmp_path / "m.aent"
        write_matrix(path, np.arange(6).reshape(2, 3))
        assert np.array_equal(read_matrix(path), np.arange(6.0).reshape(2, 3))

    def test_one_dimensional(self, tmp_path):
        path = tmp_path / "v.aent"
        write_matrix(path, np.array([1.5, -2.5]))
        assert np.array_equal(read_matrix(path), np.array([1.5, -2.5]))

    def test_non_contiguous_input(self, tmp_path):
        path = tmp_path / "m.aent"
        arr = np.random.default_rng(2).standard_normal((4, 4))[::2, ::2]
        write_matrix(path, arr)
        assert np.array_equal(read_matrix(path), arr)


_BASE = np.arange(35.0).reshape(5, 7) / 7.0 - 2.0


class TestWrittenBytes:
    # sha256 of each file as written before the payload was written from the array's own buffer
    @pytest.mark.parametrize(
        ("arr", "digest"),
        [
            (_BASE.astype(np.float32), "89afef06e2404700da165c37ed17f174c68ba5e77385ffe6927c464547c333f6"),
            (_BASE, "2ab2a32127616bedd85272e73b114815dacff18cb777d7fff98b46703881c34b"),
            (_BASE[1], "91f3b6899bf96d2daf4f1b8d45f9af46ee93a86392d08f2c17729c2d11b4e150"),
            (np.arange(120.0).reshape(10, 12)[::3, 1::4] / 3.0,
             "3e3f1300c0df347d83fdc7b7e5bd779ee79524dd85c4b7ea8780368c0a063ae5"),
            (_BASE.astype(">f8"), "2ab2a32127616bedd85272e73b114815dacff18cb777d7fff98b46703881c34b"),
            # stored as float32 like a native one, so the same file
            (_BASE.astype(">f4"), "89afef06e2404700da165c37ed17f174c68ba5e77385ffe6927c464547c333f6"),
            (np.zeros((0, 4), np.float32), "bc2dd17a0e914b7f8637cc9dca9154dba2675ed4fa688f48855268d47e4875ac"),
        ],
        ids=["float32", "float64", "one-d", "non-contiguous", "big-endian-f8", "big-endian-f4", "zero-size"],
    )
    def test_file_digest(self, tmp_path, arr, digest):
        path = tmp_path / "m.aent"
        write_matrix(path, arr)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_write_makes_no_copy_of_its_payload(self, tmp_path, dtype):
        path = tmp_path / "m.aent"
        arr = np.random.default_rng(6).standard_normal((1024, 512)).astype(dtype)
        write_matrix(path, arr)
        tracemalloc.start()
        try:
            write_matrix(path, arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * arr.nbytes


class TestWriteValidation:
    def test_complex_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            write_matrix(tmp_path / "c.aent", np.array([[1j]]))

    def test_scalar_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            write_matrix(tmp_path / "s.aent", np.float64(3.0))


class TestReadValidation:
    def test_short_header(self, tmp_path):
        path = tmp_path / "bad.aent"
        path.write_bytes(b"AEN")
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.aent"
        _write_raw(path, magic=b"NOPE")
        with pytest.raises(FormatError, match="magic"):
            read_matrix(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.aent"
        _write_raw(path, version=2)
        with pytest.raises(FormatError, match="version"):
            read_matrix(path)

    def test_bad_dtype_code(self, tmp_path):
        path = tmp_path / "bad.aent"
        _write_raw(path, code=7)
        with pytest.raises(FormatError, match="dtype"):
            read_matrix(path)

    def test_bad_ndim(self, tmp_path):
        path = tmp_path / "bad.aent"
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, 1, 0))
        with pytest.raises(FormatError, match="ndim"):
            read_matrix(path)

    def test_truncated_dims(self, tmp_path):
        path = tmp_path / "bad.aent"
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, 1, 4))
            fh.write(struct.pack("<2Q", 2, 2))
        with pytest.raises(FormatError, match="dims"):
            read_matrix(path)

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.aent"
        payload = np.zeros(3, dtype="<f8").tobytes()
        _write_raw(path, dims=(2, 2), payload=payload)
        with pytest.raises(FormatError, match="length"):
            read_matrix(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "does-not-exist.aent")


class TestReadPath:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_read_peaks_at_its_result(self, tmp_path, dtype):
        # float64 goes straight into the result and float32 is widened into it a block at a time:
        # no bytes blob and no whole float32 array
        path = tmp_path / "m.aent"
        write_matrix(path, np.random.default_rng(3).standard_normal((512, 384)).astype(dtype))
        read_matrix(path)
        tracemalloc.start()
        try:
            back = read_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * back.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_pipe_is_read_whole(self, tmp_path, dtype):
        src, fifo = tmp_path / "m.aent", tmp_path / "fifo"
        arr = np.random.default_rng(4).standard_normal((6, 10)).astype(dtype)
        write_matrix(src, arr)
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(src.read_bytes()))
        writer.start()
        try:
            back = read_matrix(fifo)
        finally:
            writer.join()
        assert back.dtype == np.float64 and back.flags.writeable
        assert np.array_equal(back, arr.astype(np.float64))
