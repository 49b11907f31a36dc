import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aent import InvalidArgumentError, prime_factorize, tensorize


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    q = 2
    while q * q <= p:
        if p % q == 0:
            return False
        q += 1
    return True


class TestPrimeFactorize:
    def test_known_values(self):
        assert prime_factorize(1) == []
        assert prime_factorize(2) == [2]
        assert prime_factorize(12) == [2, 2, 3]
        assert prime_factorize(2048) == [2] * 11
        assert prime_factorize(360) == [2, 2, 2, 3, 3, 5]
        assert prime_factorize(97) == [97]

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidArgumentError):
            prime_factorize(0)
        with pytest.raises(InvalidArgumentError):
            prime_factorize(-5)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_product_primality_order(self, n):
        factors = prime_factorize(n)
        assert int(np.prod(factors, dtype=np.int64)) == n
        assert all(_is_prime(p) for p in factors)
        assert factors == sorted(factors)

    @given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
    def test_multiplicative(self, a, b):
        combined = sorted(prime_factorize(a) + prime_factorize(b))
        assert combined == prime_factorize(a * b)


class TestSiteLayout:
    def test_four_by_four(self):
        layout, tensor = tensorize(np.arange(16.0).reshape(4, 4))
        assert layout.out_sites == (2, 2)
        assert layout.in_sites == (2, 2)
        assert tensor.shape == (2, 2, 2, 2)
        assert layout.n == 2 and layout.m == 2
        assert layout.num_cuts == 3

    def test_six_by_one(self):
        layout, tensor = tensorize(np.arange(6.0).reshape(6, 1))
        assert layout.out_sites == (2, 3)
        assert layout.in_sites == ()
        assert tensor.shape == (2, 3)

    def test_large_power_of_two(self):
        layout, tensor = tensorize(np.zeros((2048, 2048)) + 1.0)
        assert layout.sites == (2,) * 22
        assert tensor.shape == (2,) * 22

    def test_products_reconstruct_dims(self):
        layout, _ = tensorize(np.ones((12, 45)))
        assert int(np.prod(layout.out_sites)) == 12 == layout.d_out
        assert int(np.prod(layout.in_sites)) == 45 == layout.d_in

    def test_cut_dims(self):
        layout, _ = tensorize(np.ones((4, 4)))
        assert layout.cut_dims(1) == (2, 8)
        assert layout.cut_dims(2) == (4, 4)
        assert layout.cut_dims(3) == (8, 2)
        with pytest.raises(InvalidArgumentError):
            layout.cut_dims(0)
        with pytest.raises(InvalidArgumentError):
            layout.cut_dims(4)

    def test_one_by_one_has_no_cuts(self):
        layout, tensor = tensorize(np.array([[3.0]]))
        assert layout.sites == ()
        assert layout.num_cuts == 0
        assert tensor.shape == ()

    def test_row_column_cut_is_n(self):
        layout, _ = tensorize(np.ones((6, 10)))
        d_left, d_right = layout.cut_dims(layout.n)
        assert (d_left, d_right) == (6, 10)


class TestTensorize:
    def test_rejects_non_matrix(self):
        with pytest.raises(InvalidArgumentError):
            tensorize(np.ones(4))
        with pytest.raises(InvalidArgumentError):
            tensorize(np.ones((2, 2, 2)))

    def test_reshape_only_no_permutation(self):
        matrix = np.arange(24.0).reshape(4, 6)
        _, tensor = tensorize(matrix)
        assert np.array_equal(tensor.ravel(), matrix.ravel())

    def test_row_major_offsets(self):
        matrix = np.arange(6.0).reshape(3, 2)
        _, tensor = tensorize(matrix)
        for i in range(3):
            for j in range(2):
                assert tensor.ravel()[2 * i + j] == matrix[i, j]

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40)
    def test_flatten_round_trip(self, rows, cols, seed):
        matrix = np.random.default_rng(seed).standard_normal((rows, cols))
        _, tensor = tensorize(matrix)
        assert np.array_equal(tensor.ravel(), matrix.ravel())


class TestFlattenRowMajor:
    def test_two_by_two(self):
        _, tensor = tensorize(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(tensor.ravel(), [1.0, 2.0, 3.0, 4.0])

    def test_eight_by_eight_round_trip(self):
        matrix = np.random.default_rng(8).standard_normal((8, 8))
        _, tensor = tensorize(matrix)
        assert np.array_equal(tensor.ravel(), matrix.ravel())
