import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aent import (
    DegenerateInputError,
    InvalidArgumentError,
    cut_spectrum,
    decompose,
    reconstruct,
    tensorize,
)
from aent.mps import schmidt_values


def _random_tensor(dims, seed):
    return np.random.default_rng(seed).standard_normal(dims)


# Site dims drawn from the primes the tensorization actually produces.
site_dims = st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=6).filter(
    lambda dims: int(np.prod(dims)) <= 2000
)


class TestDecompose:
    def test_rank_one_product_state(self):
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 2.0, 2.0])
        _, tensor = tensorize(np.outer(u, v))
        chain = decompose(tensor)
        assert chain.bond_dims == (1, 1, 1)
        sigmas = chain.bond_spectra[0]
        assert sigmas.shape == (1,)
        assert sigmas[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))

    def test_generic_matrix_reaches_full_mid_bond(self):
        _, tensor = tensorize(_random_tensor((32, 32), 5))
        chain = decompose(tensor)
        # cut 5 of the 10-site chain is the original row-column split
        assert chain.bond_dims[5] == 32

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            decompose(np.zeros((2, 2, 2)))

    def test_bad_chi_rejected(self):
        with pytest.raises(InvalidArgumentError):
            decompose(np.ones((2, 2)), chi_max=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        tensor = np.ones((2, 3, 2))
        tensor[1, 2, 0] = value
        with pytest.raises(InvalidArgumentError):
            decompose(tensor)

    def test_chi_cap_respected(self):
        _, tensor = tensorize(_random_tensor((16, 16), 1))
        chain = decompose(tensor, chi_max=3)
        assert max(chain.bond_dims) <= 3
        assert chain.chi_max == 3

    def test_core_shapes_chain_up(self):
        dims = (2, 3, 2, 5)
        chain = decompose(_random_tensor(dims, 3))
        assert chain.site_dims == dims
        assert chain.cores[0].shape[0] == 1
        assert chain.cores[-1].shape[2] == 1
        for left, right in zip(chain.cores[:-1], chain.cores[1:]):
            assert left.shape[2] == right.shape[0]

    def test_bond_dims_bounded_by_bipartition(self):
        dims = (2, 3, 2, 5)
        chain = decompose(_random_tensor(dims, 3))
        for k in range(1, len(dims)):
            d_left = int(np.prod(dims[:k]))
            d_right = int(np.prod(dims[k:]))
            assert chain.bond_dims[k] <= min(d_left, d_right)

    def test_spectra_lengths_match_bond_dims(self):
        chain = decompose(_random_tensor((2, 2, 3), 9))
        for k, sigmas in enumerate(chain.bond_spectra, start=1):
            assert sigmas.size == chain.bond_dims[k]
            assert np.all(np.diff(sigmas) <= 0)
            assert np.all(sigmas > 0)


class TestReconstruct:
    def test_single_core_chain(self):
        tensor = np.array([1.0, -2.0, 0.5])
        chain = decompose(tensor)
        assert len(chain.cores) == 1
        assert chain.bond_spectra == []
        assert np.allclose(reconstruct(chain), tensor, atol=1e-12)

    def test_four_by_six_round_trip(self):
        _, tensor = tensorize(_random_tensor((4, 6), 7))
        chain = decompose(tensor)
        err = np.linalg.norm(reconstruct(chain) - tensor) / np.linalg.norm(tensor)
        assert err <= 1e-10

    def test_chi_one_cannot_beat_best_rank_one(self):
        matrix = _random_tensor((4, 4), 11)
        u, s, vh = np.linalg.svd(matrix)
        best = s[0] * np.outer(u[:, 0], vh[0])
        _, tensor = tensorize(matrix)
        approx = reconstruct(decompose(tensor, chi_max=1)).reshape(4, 4)
        # chi 1 at the row-column bond makes approx rank one, and no
        # rank-one matrix is closer than the leading SVD term
        assert np.linalg.matrix_rank(approx, tol=1e-10) == 1
        assert np.linalg.norm(matrix - approx) >= np.linalg.norm(matrix - best) - 1e-12

    def test_chi_one_exact_on_full_product_state(self):
        rng = np.random.default_rng(13)
        a, b, c, d = (rng.standard_normal(2) for _ in range(4))
        matrix = np.outer(np.kron(a, b), np.kron(c, d))
        _, tensor = tensorize(matrix)
        chain = decompose(tensor, chi_max=1)
        assert chain.bond_dims == (1, 1, 1, 1, 1)
        err = np.linalg.norm(reconstruct(chain) - tensor)
        assert err <= 1e-12 * np.linalg.norm(tensor)

    @given(site_dims, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, dims, seed):
        tensor = _random_tensor(dims, seed)
        chain = decompose(tensor)
        err = np.linalg.norm(reconstruct(chain) - tensor) / np.linalg.norm(tensor)
        assert err <= 1e-10


class TestCutSpectrum:
    def test_identity_bell_spectrum(self):
        _, tensor = tensorize(np.eye(2))
        spectrum = cut_spectrum(tensor, 1)
        assert np.allclose(spectrum.sigmas, [1.0, 1.0])
        assert (spectrum.d_left, spectrum.d_right) == (2, 2)

    def test_outer_product_single_value(self):
        tensor = np.outer([1.0, 1.0], [2.0, 1.0, 2.0])
        spectrum = cut_spectrum(tensor, 1)
        assert np.sum(spectrum.sigmas > 1e-12) == 1

    def test_out_of_range_cut(self):
        _, tensor = tensorize(np.eye(4))
        with pytest.raises(InvalidArgumentError):
            cut_spectrum(tensor, 0)
        with pytest.raises(InvalidArgumentError):
            cut_spectrum(tensor, 4)

    def test_needs_two_axes(self):
        with pytest.raises(InvalidArgumentError):
            cut_spectrum(np.ones(4), 1)

    @given(site_dims, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sweep_matches_direct_unfolding(self, dims, seed):
        tensor = _random_tensor(dims, seed)
        chain = decompose(tensor)
        for k in range(1, len(dims)):
            direct = cut_spectrum(tensor, k).sigmas
            direct = direct[direct > 1e-12 * direct[0]]
            swept = chain.bond_spectra[k - 1]
            assert swept.size == direct.size
            assert np.allclose(swept, direct, rtol=1e-8, atol=1e-8 * direct[0])

    @given(site_dims, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_frobenius_conservation(self, dims, seed):
        tensor = _random_tensor(dims, seed)
        total = float(np.linalg.norm(tensor) ** 2)
        chain = decompose(tensor)
        for sigmas in chain.bond_spectra:
            assert float(np.sum(sigmas**2)) == pytest.approx(total, rel=1e-10)


class TestSchmidtValues:
    @given(site_dims.filter(lambda dims: len(dims) >= 2), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_direct_unfolding(self, dims, seed):
        tensor = _random_tensor(dims, seed)
        spectra = schmidt_values(tensor)
        assert len(spectra) == len(dims) - 1
        for k, sigmas in enumerate(spectra, start=1):
            direct = cut_spectrum(tensor, k)
            assert sigmas.size == min(direct.d_left, direct.d_right)
            assert np.all(np.diff(sigmas) <= 0)
            assert np.allclose(sigmas, direct.sigmas, rtol=1e-8, atol=1e-8 * direct.sigmas[0])

    def _svd_calls(self, monkeypatch, tensor):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: calls.append(m.shape) or svd(m, **kw))
        spectra = schmidt_values(tensor)
        return spectra, calls

    def test_gaussian_cuts_use_the_gram_spectrum(self, monkeypatch):
        _, tensor = tensorize(_random_tensor((64, 48), 2))
        _, calls = self._svd_calls(monkeypatch, tensor)
        assert calls == []

    def test_rank_deficient_cut_falls_back_to_svd(self, monkeypatch):
        rng = np.random.default_rng(4)
        _, tensor = tensorize(np.outer(rng.standard_normal(8), rng.standard_normal(8)))
        spectra, calls = self._svd_calls(monkeypatch, tensor)
        # cut 2 (4 x 16) has rank 2, so it falls back and is compressed to two
        # rows; the row-column cut, now 4 x 8, has rank 1 and is compressed to
        # one row; the right half is then full rank and read from the Gram
        assert calls == [(4, 16), (4, 16), (4, 8), (4, 8)]
        assert np.count_nonzero(spectra[2] > 1e-12 * spectra[2][0]) == 1
        for k, sigmas in enumerate(spectra, start=1):
            direct = cut_spectrum(tensor, k).sigmas
            direct = direct[direct > 1e-12 * direct[0]]
            assert np.allclose(sigmas[: direct.size], direct, rtol=1e-12)
            assert np.all(sigmas[direct.size :] <= 1e-12 * sigmas[0])

    def test_single_axis_has_no_cuts(self):
        assert schmidt_values(np.array([1.0, -2.0, 0.5])) == []

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError, match="all-zero"):
            schmidt_values(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            schmidt_values(np.array([[1.0, np.nan], [0.0, 1.0]]))
