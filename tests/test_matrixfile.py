import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from aent import FormatError, InvalidArgumentError, read_matrix, write_matrix
from aent.matrixfile import _HEADER, MAGIC, VERSION


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

    def test_float32_widened(self, tmp_path):
        path = tmp_path / "m.aent"
        arr = np.random.default_rng(1).standard_normal((4, 2)).astype(np.float32)
        write_matrix(path, arr)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr.astype(np.float64))

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
    def test_an_f8_read_peaks_at_its_result(self, tmp_path):
        # the payload goes straight into the result: no bytes blob, no copy
        path = tmp_path / "m.aent"
        write_matrix(path, np.random.default_rng(3).standard_normal((512, 384)))
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
