import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aent import (
    DegenerateInputError,
    InvalidArgumentError,
    decompose,
    profile,
    reconstruct,
    tensorize,
)
from aent import mps
from aent.mps import _PROBE, _rescaled, _sigmas, _svd_compressed, schmidt_values
from svd_reference import cut_spectrum


def _random_tensor(dims, seed):
    return np.random.default_rng(seed).standard_normal(dims)


# Site dims drawn from the primes the tensorization actually produces.
site_dims = st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=6).filter(
    lambda dims: int(np.prod(dims)) <= 2000
)


def _svd_call_log(monkeypatch, name="svd"):
    """The shapes of all later calls of np.linalg.<name>, in order."""
    calls = []
    fn = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda m, **kw: calls.append(m.shape) or fn(m, **kw))
    return calls


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


def _low_rank_tensor(dims, cut, rank, seed):
    """A tensor whose unfolding at ``cut`` is a Gaussian product of rank ``rank``."""
    rng = np.random.default_rng(seed)
    left = int(np.prod(dims[:cut]))
    right = int(np.prod(dims)) // left
    return (rng.standard_normal((left, rank)) @ rng.standard_normal((rank, right))).reshape(dims)


def _resolved_by_gram(tensor, cut):
    """The resolution test of _sigmas, applied to the direct singular values."""
    spectrum = cut_spectrum(tensor, cut)
    lam = spectrum.sigmas**2
    return lam[-1] > 100 * lam.size * np.finfo(np.float64).eps * lam[0]


def _apexes(dims):
    """The cuts where the smaller side flips from left to right."""
    apex = sum(int(np.prod(dims[:cut])) ** 2 <= int(np.prod(dims)) for cut in range(1, len(dims)))
    return apex, apex + 1


@st.composite
def low_rank_cuts(draw):
    """(dims, cut, rank) with rank below the smaller side of that cut."""
    dims = draw(site_dims.filter(lambda dims: len(dims) >= 2))
    cut = draw(st.integers(min_value=1, max_value=len(dims) - 1))
    small = min(int(np.prod(dims[:cut])), int(np.prod(dims[cut:])))
    return dims, cut, draw(st.integers(min_value=1, max_value=max(small - 1, 1)))


class TestSchmidtValues:
    @given(site_dims.filter(lambda dims: len(dims) >= 2), st.integers(min_value=0, max_value=2**31 - 1))
    @example(dims=(2,) * 10, seed=0)
    @example(dims=(3,) * 6, seed=1)
    @example(dims=(5,) * 4, seed=2)
    @example(dims=(3,) * 6 + (5,) * 4, seed=3)  # 729 x 625
    @example(dims=(2,) * 18 + (3,), seed=4)  # 2048 x 384, apexes past the probe size
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

    @given(low_rank_cuts(), st.integers(min_value=0, max_value=2**31 - 1))
    @example(case=((2,) * 9, 5, 8), seed=0)  # the left apex resolves, the right one does not
    @example(case=((3, 5, 2, 3, 5), 2, 12), seed=0)  # the right apex resolves, the left one does not
    @settings(max_examples=40, deadline=None)
    def test_low_rank_matches_direct_unfolding(self, case, seed):
        tensor = _low_rank_tensor(*case, seed)
        for k, sigmas in enumerate(schmidt_values(tensor), start=1):
            # the carried loop may drop values below 1e-2 SIGMA_FLOOR
            direct = cut_spectrum(tensor, k).sigmas
            assert sigmas.size <= direct.size
            assert np.all(np.diff(sigmas) <= 0)
            padded = np.concatenate([sigmas, np.zeros(direct.size - sigmas.size)])
            assert np.allclose(padded, direct, rtol=1e-8, atol=1e-8 * direct[0])

    @pytest.mark.parametrize(
        "dims,cut,rank",
        [((2,) * 9, 5, 8), ((2,) * 10, 5, 16), ((3, 5, 2, 3, 5), 3, 10), ((3, 5, 2, 3, 5), 2, 12)],
    )
    def test_one_unresolved_apex_sends_the_tensor_to_the_carried_loop(self, monkeypatch, dims, cut, rank):
        tensor = _low_rank_tensor(dims, cut, rank, seed=5)
        assert sorted(_resolved_by_gram(tensor, apex) for apex in _apexes(dims)) == [False, True]
        spectra = schmidt_values(tensor)
        monkeypatch.setattr(mps, "_ladder", lambda arr: (None, None))
        carried = schmidt_values(tensor)
        assert all(np.array_equal(a, b) for a, b in zip(spectra, carried, strict=True))

    def test_unresolved_walked_cut_sends_the_tensor_to_the_carried_loop(self, monkeypatch):
        # every 8 x 8 Gram matrix is made to fail the test: the left walk
        # reaches one first, at cut 3, after both apexes (32 and 16) resolved
        tensor = _random_tensor((2,) * 10, 11)
        resolved = mps._resolved
        monkeypatch.setattr(mps, "_resolved", lambda lam, k: k != 8 and resolved(lam, k))
        svd_calls = _svd_call_log(monkeypatch)
        assert mps._ladder(mps._rescaled(tensor)[0]) == (None, 3)
        spectra = schmidt_values(tensor)
        assert svd_calls == [(8, 8)] * 2  # cuts 3 and 7, each of its QR factor
        monkeypatch.setattr(mps, "_ladder", lambda arr: (None, None))
        carried = schmidt_values(tensor)
        assert all(np.array_equal(a, b) for a, b in zip(spectra, carried, strict=True))

    def test_unresolved_apex_gram_is_formed_once(self, monkeypatch):
        # the noise keeps every cut above the compression cutoff, so the
        # carried loop reaches the apex (cut 5, 32 x 32) uncompressed
        dims = (2,) * 10
        tensor = _low_rank_tensor(dims, 5, 4, seed=1) + 1e-7 * _random_tensor(dims, 2)
        assert not _resolved_by_gram(tensor, 5)
        products, gram = [], mps._gram
        monkeypatch.setattr(mps, "_gram", lambda g: products.append(g.shape) or gram(g))
        spectra = schmidt_values(tensor)
        assert products.count((32, 32)) == 1
        assert [sigmas.size for sigmas in spectra] == [min(2**k, 2 ** (10 - k)) for k in range(1, 10)]
        monkeypatch.setattr(mps, "_ladder", lambda arr: (None, None))
        carried = schmidt_values(tensor)
        assert all(np.array_equal(a, b) for a, b in zip(spectra, carried, strict=True))

    @pytest.mark.parametrize("dims", [(2, 3, 2, 5, 3, 2), (2,) * 16, (5, 3, 2, 2)])
    def test_full_rank_tensor_is_multiplied_at_most_twice(self, monkeypatch, dims):
        tensor = _random_tensor(dims, 8)
        products, gram = [], mps._gram
        monkeypatch.setattr(mps, "_gram", lambda g: products.append(g.size) or gram(g))
        svd_calls = _svd_call_log(monkeypatch)
        schmidt_values(tensor)
        assert products == [tensor.size] * 2
        assert svd_calls == []

    def _svd_calls(self, monkeypatch, tensor):
        calls = _svd_call_log(monkeypatch)
        spectra = schmidt_values(tensor)
        return spectra, calls

    def test_gaussian_cuts_use_the_gram_spectrum(self, monkeypatch):
        _, tensor = tensorize(_random_tensor((64, 48), 2))
        _, calls = self._svd_calls(monkeypatch, tensor)
        assert calls == []

    def test_rank_deficient_cut_falls_back_to_svd(self, monkeypatch):
        rng = np.random.default_rng(4)
        _, tensor = tensorize(np.outer(rng.standard_normal(8), rng.standard_normal(8)))
        qr_calls = _svd_call_log(monkeypatch, "qr")
        spectra, calls = self._svd_calls(monkeypatch, tensor)
        # cut 2 (4 x 16) has rank 2: one QR reduces it to a 4 x 4 factor, whose
        # values are the spectrum and whose vectors compress it to two rows; the
        # row-column cut, now 4 x 8, has rank 1 and is compressed to one row the
        # same way; the right half is then full rank and read from the Gram
        assert qr_calls == [(16, 4), (8, 4)]
        assert calls == [(4, 4)] * 4
        assert np.count_nonzero(spectra[2] > 1e-12 * spectra[2][0]) == 1
        for k, sigmas in enumerate(spectra, start=1):
            direct = cut_spectrum(tensor, k).sigmas
            direct = direct[direct > 1e-12 * direct[0]]
            assert np.allclose(sigmas[: direct.size], direct, rtol=1e-12)
            assert np.all(sigmas[direct.size :] <= 1e-12 * sigmas[0])

    def test_single_axis_has_no_cuts(self):
        assert schmidt_values(np.array([1.0, -2.0, 0.5])) == []

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError, match="all zero"):
            schmidt_values(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            schmidt_values(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_named_before_all_zero(self, value):
        tensor = np.zeros((2, 3, 2))
        tensor[1, 2, 0] = value
        with pytest.raises(InvalidArgumentError, match="tensor has NaN or infinite entries"):
            schmidt_values(tensor)


class TestGramLayout:
    """Gram matrices reach LAPACK exactly symmetric, and F-ordered beyond the probe size."""

    def _arguments(self, monkeypatch, name):
        seen, fn = [], getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, **kw: seen.append(m) or fn(m, **kw))
        return seen

    def _assert_layout(self, grams):
        # an apex probe (at most _PROBE x _PROBE) is a fresh product in C order
        assert any(g.shape[0] > _PROBE for g in grams)
        for g in grams:
            assert np.array_equal(g, g.T)
            assert g.flags.f_contiguous or g.shape[0] <= _PROBE

    # apexes 512 and walks from 256 down; apexes 729 x 625; apexes 256 x 216
    @pytest.mark.parametrize("dims", [(2,) * 18, (3,) * 6 + (5,) * 4, (2,) * 8 + (3,) * 3 + (2,) * 3])
    def test_schmidt_values(self, monkeypatch, dims):
        grams = self._arguments(monkeypatch, "eigvalsh")
        schmidt_values(_random_tensor(dims, 9))
        self._assert_layout(grams)

    @pytest.mark.parametrize("shape", [(4 * _PROBE, 5 * _PROBE), (5 * _PROBE, 4 * _PROBE), (_PROBE + 1, 3 * _PROBE)])
    def test_sigmas(self, monkeypatch, shape):
        m = _random_tensor(shape, 10)
        grams = self._arguments(monkeypatch, "eigvalsh")
        _sigmas(m)
        self._assert_layout(grams)
        grams = self._arguments(monkeypatch, "eigh")
        _sigmas(m, vectors=True)
        if shape[0] <= shape[1]:
            self._assert_layout(grams)


def _svd_sweep(tensor, chi_max=None):
    """Bond spectra of the sequential sweep with an economy SVD at every bond."""
    spectra, carried, chi = [], tensor.reshape(1, -1), 1
    for d in tensor.shape[:-1]:
        _, s, vh = np.linalg.svd(carried.reshape(chi * d, -1), full_matrices=False)
        chi = int(np.count_nonzero(s > 1e-12 * s[0]))
        chi = chi if chi_max is None else min(chi, chi_max)
        spectra.append(s[:chi])
        carried = s[:chi, None] * vh[:chi]
    return spectra


def _bond_entropy_bits(sigmas):
    p = sigmas**2 / np.dot(sigmas, sigmas)
    return float(-(p * np.log2(p)).sum())


class TestGramSweep:
    """decompose splits wide bonds by eigh of the Gram matrix; an SVD-only sweep is the reference."""

    @given(
        site_dims.filter(lambda dims: len(dims) >= 2),
        st.none() | st.integers(min_value=1, max_value=8),
        st.none() | st.integers(min_value=1, max_value=4),
        st.sampled_from([0.0, 1e-3, 1e-6]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_svd_sweep(self, dims, chi_max, rank, noise, seed):
        rng = np.random.default_rng(seed)
        tensor = rng.standard_normal(dims)
        if rank is not None:
            rows = int(np.prod(dims[: len(dims) // 2]))
            product = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, tensor.size // rows))
            tensor = product.reshape(dims) + noise * tensor
        chain = decompose(tensor, chi_max=chi_max)
        reference = _svd_sweep(tensor, chi_max)
        assert len(chain.bond_spectra) == len(reference)
        for swept, direct in zip(chain.bond_spectra, reference):
            assert swept.size == direct.size
            assert np.allclose(swept, direct, rtol=1e-8, atol=1e-8 * direct[0])
            assert abs(_bond_entropy_bits(swept) - _bond_entropy_bits(direct)) <= 1e-10

    def test_gaussian_wide_cuts_use_the_gram_matrix(self, monkeypatch):
        _, tensor = tensorize(_random_tensor((64, 48), 2))
        calls = _svd_call_log(monkeypatch)
        decompose(tensor, chi_max=8)
        # the right end of a capped sweep is tall: 16 x 12, 16 x 6, 12 x 3
        assert calls
        assert all(rows > cols for rows, cols in calls)

    def test_rank_one_wide_cut_falls_back_to_svd(self, monkeypatch):
        rng = np.random.default_rng(4)
        _, tensor = tensorize(np.outer(rng.standard_normal(8), rng.standard_normal(8)))
        calls = _svd_call_log(monkeypatch)
        decompose(tensor, chi_max=4)
        assert any(rows <= cols for rows, cols in calls)

    def test_degenerate_spectrum_is_capped_and_deterministic(self):
        # every Schmidt value of the identity ties, so which ones a cap of 4
        # keeps is arbitrary and later cuts may differ from an SVD sweep's;
        # only the cap and the repeat are checked
        first, again = profile(np.eye(64), chi_max=4), profile(np.eye(64), chi_max=4)
        assert first == again
        for rec in first.records:
            assert rec.chi <= 4
            assert rec.entropy <= 2.0 + 1e-12


class TestSigmas:
    """_sigmas tests the leading Gram block before forming the whole Gram matrix."""

    def _low_rank(self, rows, cols, rank, seed=3):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))

    @pytest.mark.parametrize("shape", [(4 * _PROBE, 5 * _PROBE), (5 * _PROBE, 4 * _PROBE)])
    def test_rank_deficient_probe_skips_the_gram_matrix(self, monkeypatch, shape):
        m = self._low_rank(*shape, rank=_PROBE // 2)
        eig_calls = _svd_call_log(monkeypatch, "eigvalsh")
        svd_calls = _svd_call_log(monkeypatch)
        sigmas = _sigmas(m)
        assert eig_calls == [(_PROBE, _PROBE)]
        assert svd_calls == [shape]
        assert np.array_equal(sigmas, np.linalg.svd(m, compute_uv=False))

    def test_rank_deficient_probe_skips_eigh_with_vectors(self, monkeypatch):
        m = self._low_rank(4 * _PROBE, 5 * _PROBE, rank=4)
        eigh_calls = _svd_call_log(monkeypatch, "eigh")
        u, s, vh = _sigmas(m, vectors=True)
        assert eigh_calls == [] and vh is not None
        assert np.allclose((u * s) @ vh, m, atol=1e-12 * s[0])

    def test_full_rank_probe_goes_on_to_the_gram_matrix(self, monkeypatch):
        m = np.random.default_rng(5).standard_normal((4 * _PROBE, 5 * _PROBE))
        eig_calls = _svd_call_log(monkeypatch, "eigvalsh")
        svd_calls = _svd_call_log(monkeypatch)
        sigmas = _sigmas(m)
        assert eig_calls == [(_PROBE, _PROBE), (4 * _PROBE, 4 * _PROBE)]
        assert svd_calls == []
        direct = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(sigmas, direct, rtol=1e-10)

    def test_full_rank_probe_over_a_rank_deficient_whole_falls_back(self, monkeypatch):
        # the first _PROBE rows are independent, the rest repeat them
        top = np.random.default_rng(6).standard_normal((_PROBE, 5 * _PROBE))
        m = np.vstack([top, top[::-1], top, top])
        svd_calls = _svd_call_log(monkeypatch)
        sigmas = _sigmas(m)
        assert svd_calls == [m.shape]
        assert np.count_nonzero(sigmas > 1e-12 * sigmas[0]) == _PROBE

    def test_small_gram_matrix_is_not_probed(self, monkeypatch):
        m = self._low_rank(4 * _PROBE - 1, 5 * _PROBE, rank=4)
        eig_calls = _svd_call_log(monkeypatch, "eigvalsh")
        _sigmas(m)
        assert eig_calls == [(4 * _PROBE - 1, 4 * _PROBE - 1)]

    def test_tall_unfolding_with_vectors_goes_straight_to_the_svd(self, monkeypatch):
        m = np.random.default_rng(7).standard_normal((3 * _PROBE, 2))
        eig_calls = _svd_call_log(monkeypatch, "eigh") + _svd_call_log(monkeypatch, "eigvalsh")
        svd_calls = _svd_call_log(monkeypatch)
        _sigmas(m, vectors=True)
        assert svd_calls == [m.shape] and eig_calls == []


class TestSvdCompressed:
    """_svd_compressed: the values of a failed cut and the rows the later cuts need."""

    @pytest.mark.parametrize("shape", [(8, 64), (64, 8), (16, 24), (24, 16)])
    def test_low_rank_unfolding_is_compressed_to_its_rank(self, shape):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
        sigmas, compressed = _svd_compressed(m)
        direct = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(sigmas, direct, rtol=1e-12, atol=1e-12 * direct[0])
        # the same Gram on the columns side leaves every later cut's values unchanged
        assert compressed.shape == (3, shape[1])
        assert np.allclose(compressed.T @ compressed, m.T @ m, rtol=0, atol=1e-12 * direct[0] ** 2)

    def test_unfolding_above_half_rank_is_kept(self):
        m = np.random.default_rng(3).standard_normal((8, 64))
        m[-1] = m[0]
        sigmas, kept = _svd_compressed(m)
        assert kept is m
        assert np.count_nonzero(sigmas > 1e-12 * sigmas[0]) == 7


class TestRescaled:
    base = np.array([[0.75, -0.5], [0.25, 0.1]])

    @pytest.mark.parametrize("power", [100, 0, -100])
    def test_safe_range_returns_the_tensor_itself(self, power):
        arr = np.ldexp(self.base, power)
        out, exponent = _rescaled(arr)
        assert exponent == 0
        assert np.shares_memory(out, arr)

    @pytest.mark.parametrize("power", [101, -101, 531, -565])
    def test_outside_it_the_top_entry_moves_into_half_to_one(self, power):
        out, exponent = _rescaled(np.ldexp(self.base, power))
        assert exponent == power
        assert np.array_equal(out, self.base)

    def test_a_stack_scales_each_tensor_on_its_own(self):
        stack = np.stack([np.ldexp(self.base, 200), self.base, np.ldexp(self.base, -200)])
        out, exponent = _rescaled(stack, stack=1)
        assert exponent.tolist() == [200, 0, -200]
        assert np.array_equal(out, np.stack([self.base] * 3))
        out, exponent = _rescaled(stack[1:2], stack=1)
        assert exponent.tolist() == [0] and np.shares_memory(out, stack)

    @pytest.mark.parametrize(
        "value, error, what",
        [(0.0, DegenerateInputError, "is all zero"), (np.nan, InvalidArgumentError, "has NaN or infinite entries")],
    )
    def test_a_bad_tensor_of_a_stack_is_named_by_its_index(self, value, error, what):
        stack = np.ones((2, 3, 2, 2))
        stack[1, 2] = value
        with pytest.raises(error, match=rf"^factor B\[1, 2\] {what}$"):
            _rescaled(stack, stack=2, name="factor B")
