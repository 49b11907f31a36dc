import tracemalloc
import weakref

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
from aent.mps import _PROBE, MpsChain, _rescaled, _sigmas, _svd_compressed, schmidt_values
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


def _eigvalsh_log(monkeypatch):
    """The shapes of all later Gram matrices handed to mps._eigvalsh, in order."""
    calls, fn = [], mps._eigvalsh
    monkeypatch.setattr(mps, "_eigvalsh", lambda m: calls.append(m.shape) or fn(m))
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

    def test_empty_chain_refused(self):
        with pytest.raises(InvalidArgumentError, match="cannot reconstruct an empty chain"):
            reconstruct(MpsChain())

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
        # reaches one first, at cut 3, before the right apex (16) is formed
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

    def test_gram_below_four_probes_is_read_whole_without_a_probe(self, monkeypatch):
        # the left apex (cut 5) is 32 x 32, fewer than 4 _PROBE rows, so it is
        # not probed; its rank-4 Gram matrix fails and the carried loop skips it
        tensor = _low_rank_tensor((2,) * 10, 5, 4, seed=3)
        eig_calls = _eigvalsh_log(monkeypatch)
        spectra = schmidt_values(tensor)
        assert eig_calls[0] == (32, 32)
        assert eig_calls.count((32, 32)) == 1
        monkeypatch.setattr(mps, "_ladder", lambda arr: (None, None))
        carried = schmidt_values(tensor)
        assert all(np.array_equal(a, b) for a, b in zip(spectra, carried, strict=True))

    def test_failed_probe_reports_its_cut(self, monkeypatch):
        # the left apex (cut 9, 512 x 512) has rank 32, so its _PROBE-row probe
        # fails and the ladder returns that cut, forming no Gram matrix
        tensor = _low_rank_tensor((2,) * 18, 9, 32, seed=4)
        eig_calls = _eigvalsh_log(monkeypatch)
        assert mps._ladder(mps._rescaled(tensor)[0]) == (None, 9)
        assert eig_calls == [(_PROBE, _PROBE)]
        spectra = schmidt_values(tensor)
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

    def test_left_apex_gram_is_freed_before_the_right_one_is_formed(self, monkeypatch):
        # the left walk's traced Grams are views of its apex Gram, which
        # CPython frees as the walk returns
        grams, gram = [], mps._gram

        def tracked(g):
            assert all(ref() is None for ref in grams), "an earlier apex Gram is still referenced"
            product = gram(g)
            grams.append(weakref.ref(product))
            return product

        monkeypatch.setattr(mps, "_gram", tracked)
        profile(_random_tensor((1024, 1024), 12))
        assert len(grams) == 2

    def test_profile_peak_is_the_apex_gram(self):
        # every traced Gram lies in the 8 MiB apex Gram's lower block, so
        # beyond it only LAPACK's workspace (about 34n doubles) is allocated
        matrix = _random_tensor((1024, 1024), 16)
        profile(matrix)
        tracemalloc.start()
        try:
            profile(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8 * 2**20

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

    @pytest.mark.parametrize("call", [schmidt_values, decompose])
    def test_a_scalar_is_refused(self, call):
        with pytest.raises(InvalidArgumentError, match="expected a tensor with at least one axis"):
            call(3.0)

    def test_empty_tensor_refused(self):
        with pytest.raises(InvalidArgumentError, match="expected a non-empty tensor"):
            schmidt_values(np.empty(0))

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


def _reference_trace(gram, d, rows):
    """The Gram matrix of the next cut as a fresh C array: ``gram`` reshaped and traced over the site between."""
    after = gram.shape[0] // d
    if rows:
        return gram.reshape(after, d, after, d).trace(axis1=1, axis2=3)
    return gram.reshape(d, after, d, after).trace(axis1=0, axis2=2)


def _reference_walk(g, dims, cuts, rows):
    """{cut: Schmidt values} of a walk from the unfolding ``g`` that traces each Gram matrix into a new array."""
    gram, spectra = g @ g.T, {}
    for cut in cuts:
        if spectra:  # trace out the site between the last cut and this one
            gram = _reference_trace(gram, dims[cut] if rows else dims[cut - 1], rows)
        spectra[cut] = np.sqrt(np.linalg.eigvalsh(gram.T)[::-1])
    return spectra


class TestWalkBits:
    """Traces written into the parent's lower block give the spectra of fresh reshape-traces, bit for bit."""

    # 2-, 3-, 5- and 7-sites traced in blocks of 64 rows and fewer; size-1 sites (a trace is a copy),
    # and an 11-site traced to 1 x 1 on each side (a trace numpy sums pairwise)
    DIMS = [
        (2,) * 18,
        (3,) * 6 + (5,) * 4,
        (5,) * 8,
        (3, 3, 3, 3, 7, 3, 3, 3, 3, 7),
        (7,) * 5,
        (2, 1, 3, 1, 2, 2),
        (1, 11, 13, 17),
        (13, 11, 1),
    ]

    @pytest.mark.parametrize("dims", DIMS)
    def test_schmidt_values(self, dims):
        tensor = _random_tensor(dims, 17)
        apex = _apexes(dims)[0]
        expected = {}
        if apex >= 1:
            expected |= _reference_walk(tensor.reshape(int(np.prod(dims[:apex])), -1), dims, range(apex, 0, -1), True)
        if apex + 1 < len(dims):
            m = tensor.reshape(int(np.prod(dims[: apex + 1])), -1).T
            expected |= _reference_walk(m, dims, range(apex + 1, len(dims)), False)
        spectra = schmidt_values(tensor)
        assert len(spectra) == len(expected) == len(dims) - 1
        for cut, sigmas in enumerate(spectra, start=1):
            assert np.array_equal(sigmas, expected[cut]), cut

    @pytest.mark.parametrize("chi_max", [1, 9, 64, 1000])
    @pytest.mark.parametrize("dims", DIMS)
    def test_decompose_prefix(self, dims, chi_max):
        tensor = _random_tensor(dims, 18)
        lefts = [int(np.prod(dims[:cut])) for cut in range(1, len(dims))]
        prefix = sum(left * left <= tensor.size and left <= chi_max for left in lefts)
        chain = decompose(tensor, chi_max=chi_max)
        if prefix:
            expected = _reference_walk(tensor.reshape(lefts[prefix - 1], -1), dims, range(prefix, 0, -1), True)
            for cut in range(1, prefix + 1):
                assert np.array_equal(chain.bond_spectra[cut - 1], expected[cut]), cut


class TestGramLayout:
    """Gram products and probes reach mps._eigvalsh C-ordered, exactly symmetric and fresh; each traced Gram is the
    strictly lower block of its parent, and eigh gets F-ordered Grams beyond the probe size."""

    def _eigvalsh_arguments(self, monkeypatch, source):
        # _eigvalsh overwrites its argument, so each is recorded before the call
        seen, fn = [], mps._eigvalsh

        def spy(m):
            seen.append((m.copy(), m.flags.c_contiguous, np.may_share_memory(m, source)))
            return fn(m)

        monkeypatch.setattr(mps, "_eigvalsh", spy)
        return seen

    def _assert_layout(self, seen):
        assert any(g.shape[0] > _PROBE for g, _, _ in seen)
        for g, c_order, shared in seen:
            assert np.array_equal(g, g.T)
            assert c_order and not shared

    # apexes 512 and walks from 256 down; apexes 729 x 625; apexes 256 x 216
    @pytest.mark.parametrize("dims", [(2,) * 18, (3,) * 6 + (5,) * 4, (2,) * 8 + (3,) * 3 + (2,) * 3])
    def test_schmidt_values(self, monkeypatch, dims):
        tensor = _random_tensor(dims, 9)
        # the upper triangle of each Gram matrix not yet solved, by address; what else was solved
        unsolved, products, solved, others = {}, [], [], []
        gram, traced, eigvalsh = mps._gram, mps._traced, mps._eigvalsh

        def product(g):
            m = gram(g)
            products.append((m.copy(), m.flags.c_contiguous, np.may_share_memory(m, tensor)))
            unsolved[m.ctypes.data] = np.triu(m)
            return m

        def trace(parent, d, rows):
            view = traced(parent, d, rows)
            k, after = parent.shape[0], view.shape[0]
            # the parent's strictly lower block: its address and strides
            assert after * d == k and after <= k - after
            assert (view.ctypes.data, view.strides) == (parent[k - after :, :after].ctypes.data, parent.strides)
            # summed from the parent's upper triangle and diagonal alone
            upper = np.triu(parent)
            assert np.array_equal(np.triu(view), np.triu(_reference_trace(upper + np.triu(upper, 1).T, d, rows)))
            unsolved[view.ctypes.data] = np.triu(view)
            return view

        def solve(m):
            upper = unsolved.pop(m.ctypes.data, None)
            if upper is None:
                others.append((m.copy(), m.flags.c_contiguous, np.may_share_memory(m, tensor)))
            else:  # a trace may lie below the diagonal
                assert np.array_equal(np.triu(m), upper)
                solved.append(m.shape[0])
            return eigvalsh(m)

        monkeypatch.setattr(mps, "_gram", product)
        monkeypatch.setattr(mps, "_traced", trace)
        monkeypatch.setattr(mps, "_eigvalsh", solve)
        schmidt_values(tensor)
        assert not unsolved and len(products) == 2 and len(solved) == len(dims) - 1
        self._assert_layout(products)
        for g, c_order, shared in others:  # the probes
            assert g.shape == (_PROBE, _PROBE)
            assert np.array_equal(g, g.T) and c_order and not shared

    @pytest.mark.parametrize("shape", [(4 * _PROBE, 5 * _PROBE), (5 * _PROBE, 4 * _PROBE), (_PROBE + 1, 3 * _PROBE)])
    def test_sigmas(self, monkeypatch, shape):
        m = _random_tensor(shape, 10)
        seen = self._eigvalsh_arguments(monkeypatch, m)
        _sigmas(m)
        self._assert_layout(seen)
        grams, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda g: grams.append(g) or eigh(g))
        _sigmas(m, vectors=True)
        if shape[0] <= shape[1]:
            assert any(g.shape[0] > _PROBE for g in grams)
            for g in grams:
                assert np.array_equal(g, g.T)
                assert g.flags.f_contiguous or g.shape[0] <= _PROBE


class TestEigvalsh:
    """mps._eigvalsh: numpy's eigvalsh of gram.T, bit for bit, with LAPACK run on the Gram's own buffer."""

    @staticmethod
    def _gram(n, kind):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n + 3))
        if kind == "rank-deficient":
            g = rng.standard_normal((n, n // 2)) @ rng.standard_normal((n // 2, n + 3))
        gram = g @ g.T
        if kind == "asymmetric":  # LAPACK reads gram.T's lower triangle, gram's upper one
            gram += np.triu(1e-9 * rng.standard_normal((n, n)), 1)
        return gram

    @pytest.mark.parametrize("lapack", [True, False], ids=["lapack", "fallback"])
    @pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "asymmetric"])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 256, 257, 512])
    def test_bit_identical_to_numpy(self, monkeypatch, lapack, kind, n):
        if not lapack:
            monkeypatch.setattr(mps, "_DSYEVD", None)
        gram = self._gram(n, kind)
        expected = np.linalg.eigvalsh(gram.T)
        # a block with LDA n + 1 and 2n, solved where it lies, NaN below its diagonal and beside it
        for lda in (n + 1, 2 * n):
            buffer = np.full((n, lda), np.nan)
            block = buffer[:, :n]
            block[np.triu_indices(n)] = gram[np.triu_indices(n)]
            assert np.array_equal(mps._eigvalsh(block), expected), lda
            assert np.isnan(buffer[np.tril_indices(n, -1)]).all() and np.isnan(buffer[:, n:]).all()
            assert not lapack or n <= 2 or not np.array_equal(np.triu(block), np.triu(gram))
        assert np.array_equal(mps._eigvalsh(gram), expected)

    @pytest.mark.parametrize("lapack", [True, False], ids=["lapack", "fallback"])
    @pytest.mark.parametrize("view", ["column-stride-2", "read-only", "f-order"])
    def test_other_layouts_are_copied(self, monkeypatch, lapack, view):
        if not lapack:
            monkeypatch.setattr(mps, "_DSYEVD", None)
        gram = self._gram(64, "asymmetric")
        if view == "column-stride-2":
            arg = np.zeros((64, 128))[:, ::2]
            arg[...] = gram
        elif view == "read-only":
            arg = gram.copy()
            arg.flags.writeable = False
        else:
            arg = np.asfortranarray(gram)
        assert np.array_equal(mps._eigvalsh(arg), np.linalg.eigvalsh(gram.T))
        assert np.array_equal(arg, gram)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_a_non_square_gram_is_refused(self, shape):
        with pytest.raises(np.linalg.LinAlgError, match="expected a square Gram matrix"):
            mps._eigvalsh(np.ones(shape))

    def test_non_convergence_is_a_linalg_error(self, monkeypatch):
        def unconverged(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, *lengths):
            if lwork.value == -1:  # the workspace query succeeds
                work.value, iwork.value = 1.0, 1
            else:
                info.value = 1

        monkeypatch.setattr(mps, "_DSYEVD", unconverged)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            mps._eigvalsh(np.eye(3))

    def test_scipy_openblas_builds_share_their_dsyevd(self):
        # a silent fallback would bring back eigvalsh's copy of every Gram matrix
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        assert lapack["name"] != "scipy-openblas" or mps._DSYEVD is not None

    @pytest.mark.skipif(mps._DSYEVD is None, reason="numpy has no dsyevd to share")
    def test_no_gram_beyond_the_probe_goes_to_numpy(self, monkeypatch):
        eig_calls = _svd_call_log(monkeypatch, "eigvalsh")
        _, tensor = tensorize(_random_tensor((512, 512), 13))
        schmidt_values(tensor)
        assert all(shape[0] <= _PROBE for shape in eig_calls)


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

    # (dims, chi_max, P): P is the last cut whose left side is at most its right side and chi_max if set
    PREFIXES = [
        ((2,) * 10, 32, 5),
        ((2,) * 10, 8, 3),
        ((3, 5, 2, 3, 5), 4, 1),
        ((3, 5, 2, 3, 5), 15, 2),
        ((2,) * 9 + (3,) + (2,) * 5, 32, 5),
        ((2,) * 10, None, 5),
        ((3, 5, 2, 3, 5), None, 2),
    ]

    @pytest.mark.parametrize("dims,chi_max,prefix", PREFIXES)
    def test_full_rank_prefix_takes_one_gram_product_and_no_rotation(self, monkeypatch, dims, chi_max, prefix):
        tensor = _random_tensor(dims, 12)
        calls, gram, sigmas = [], mps._gram, mps._sigmas
        monkeypatch.setattr(mps, "_gram", lambda g: calls.append(("gram", g.shape)) or gram(g))
        monkeypatch.setattr(mps, "_sigmas", lambda m, **kw: calls.append(("sweep", m.shape)) or sigmas(m, **kw))
        decompose(tensor, chi_max=chi_max)
        left = int(np.prod(dims[:prefix]))
        # the sweep, and with it every rotation of the carried tensor, starts at cut P+1
        swept = [shape for what, shape in calls if what == "sweep"]
        assert calls[: calls.index(("sweep", swept[0]))] == [("gram", (left, tensor.size // left))]
        assert swept[0][0] == left * dims[prefix]
        assert len(swept) == len(dims) - 1 - prefix

    @pytest.mark.parametrize("dims,chi_max,prefix", PREFIXES)
    def test_prefix_is_exact_with_identity_isometries(self, dims, chi_max, prefix):
        tensor = _random_tensor(dims, 13)
        chain = decompose(tensor, chi_max=chi_max)
        exact = schmidt_values(tensor)
        for cut in range(1, prefix + 1):
            np.testing.assert_allclose(chain.bond_spectra[cut - 1], exact[cut - 1], rtol=1e-12, atol=0)
            # uncapped, the prefix is read by schmidt_values' own left walk
            assert chi_max is not None or np.array_equal(chain.bond_spectra[cut - 1], exact[cut - 1])
            core = chain.cores[cut - 1]
            assert np.array_equal(core.reshape(-1, core.shape[2]), np.eye(core.shape[2]))

    @pytest.mark.parametrize("dims,chi_max", [((2,) * 10, 32), ((3, 5, 2, 3, 5), 15)])
    def test_uncapped_bonds_round_trip(self, dims, chi_max):
        # no bond of these tensors has more than chi_max values
        tensor = _random_tensor(dims, 14)
        residual = np.linalg.norm(reconstruct(decompose(tensor, chi_max=chi_max)) - tensor)
        assert residual <= 1e-12 * np.linalg.norm(tensor)

    def test_rank_deficient_prefix_sweeps_from_cut_one(self, monkeypatch):
        # the prefix Gram matrix (cut 5, 32 x 32) has rank 4 and fails the resolution test
        tensor = _low_rank_tensor((2,) * 10, 5, 4, seed=3)
        swept, sigmas = [], mps._sigmas
        monkeypatch.setattr(mps, "_sigmas", lambda m, **kw: swept.append(m.shape) or sigmas(m, **kw))
        chain = decompose(tensor, chi_max=32)
        assert swept[0] == (2, 512)
        for kept, direct in zip(chain.bond_spectra, _svd_sweep(tensor, 32), strict=True):
            assert kept.size == direct.size
            assert np.allclose(kept, direct, rtol=1e-8, atol=1e-8 * direct[0])

    def test_capped_profile_peak_stays_below_the_input(self):
        # the sweep reads cuts 1..5 from one 32 x 32 Gram matrix and carries
        # the input itself to cut 6, so no full-size copy is made
        matrix = _random_tensor((1024, 768), 15)
        profile(matrix, chi_max=32)
        tracemalloc.start()
        try:
            profile(matrix, chi_max=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= matrix.nbytes

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
        eig_calls = _eigvalsh_log(monkeypatch)
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
        eig_calls = _eigvalsh_log(monkeypatch)
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
        eig_calls = _eigvalsh_log(monkeypatch)
        _sigmas(m)
        assert eig_calls == [(4 * _PROBE - 1, 4 * _PROBE - 1)]

    def test_tall_unfolding_with_vectors_goes_straight_to_the_svd(self, monkeypatch):
        m = np.random.default_rng(7).standard_normal((3 * _PROBE, 2))
        eigh_calls, eig_calls = _svd_call_log(monkeypatch, "eigh"), _eigvalsh_log(monkeypatch)
        svd_calls = _svd_call_log(monkeypatch)
        _sigmas(m, vectors=True)
        assert svd_calls == [m.shape] and eigh_calls == [] and eig_calls == []


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

    @pytest.mark.parametrize("run", [schmidt_values, decompose, lambda t: decompose(t, chi_max=8)],
                             ids=["schmidt_values", "decompose", "decompose-capped"])
    def test_values_that_overflow_once_scaled_back_are_refused(self, run):
        # finite entries near float64's maximum; their largest Schmidt values are not
        tensor = np.random.default_rng(0).standard_normal((64, 64)).reshape(8, 8, 8, 8) * 2.0**1021
        with pytest.raises(InvalidArgumentError, match=r"Schmidt values overflow float64 at its scale 2\*\*1023"):
            run(tensor)

    @pytest.mark.parametrize("run", [schmidt_values, lambda t, **kw: decompose(t, chi_max=8, **kw).bond_spectra],
                             ids=["schmidt_values", "decompose-capped"])
    def test_without_scale_back_the_values_are_those_of_the_rescaled_tensor(self, run):
        # scaled so that its largest entry is in [0.5, 1), where no tensor is rescaled
        tensor = np.random.default_rng(0).standard_normal((64, 64)).reshape(8, 8, 8, 8)
        unit = np.ldexp(tensor, -np.frexp(np.abs(tensor).max())[1])
        for given, want in ((tensor * 2.0**1021, unit), (tensor, tensor)):
            got = run(given, scale_back=False)
            assert [s.tolist() for s in got] == [s.tolist() for s in run(want)]
