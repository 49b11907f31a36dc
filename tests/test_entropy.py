import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aent import (
    DegenerateInputError,
    InvalidArgumentError,
    binary_entropy,
    decompose,
    normalize_spectrum,
    page_entropy,
    profile,
    renyi,
    tensorize,
    von_neumann,
)
from aent.mps import SIGMA_FLOOR
from svd_reference import cut_spectrum

spectra = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=64),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
).filter(lambda a: a.max() > 1e-6)


class TestNormalizeSpectrum:
    def test_three_four_five(self):
        assert np.allclose(normalize_spectrum([3.0, 4.0]), [0.6, 0.8])

    def test_single_value_any_scale(self):
        for c in (1e-300, 1.0, 7.25, 1e200):
            assert np.allclose(normalize_spectrum([c]), [1.0])

    def test_uniform_four(self):
        assert np.allclose(normalize_spectrum([1.0, 1.0, 1.0, 1.0]), [0.5] * 4)

    def test_noise_floor_zeroed(self):
        lam = normalize_spectrum([1.0, 1e-15])
        assert lam[1] == 0.0
        assert lam[0] == 1.0

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            normalize_spectrum([1.0, -0.5])

    def test_rejects_all_zero(self):
        with pytest.raises(DegenerateInputError):
            normalize_spectrum([0.0, 0.0])

    def test_rejects_empty_and_2d(self):
        with pytest.raises(InvalidArgumentError):
            normalize_spectrum([])
        with pytest.raises(InvalidArgumentError):
            normalize_spectrum(np.ones((2, 2)))

    @given(spectra)
    @settings(max_examples=60, deadline=None)
    def test_unit_two_norm(self, sigmas):
        lam = normalize_spectrum(sigmas)
        assert float(np.dot(lam, lam)) == pytest.approx(1.0, abs=1e-12)


class TestVonNeumann:
    def test_pure_state_is_positive_zero(self):
        s = von_neumann([1.0])
        assert s == 0.0
        assert math.copysign(1.0, s) == 1.0

    def test_uniform_32_is_five_bits(self):
        lam = normalize_spectrum(np.ones(32))
        assert von_neumann(lam) == pytest.approx(5.0, abs=1e-12)

    def test_three_four_five_value(self):
        assert von_neumann([0.6, 0.8]) == pytest.approx(0.9426831892554921, abs=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tiny", [1e-170, 5e-324])
    def test_value_whose_square_underflows_counts_as_zero(self, tiny):
        # tiny**2 is 0.0, so tiny adds 0 log 0 = 0, not NaN
        assert von_neumann([0.6, 0.8, tiny]) == von_neumann([0.6, 0.8])
        assert von_neumann([tiny, 1.0]) == 0.0

    def test_base_e(self):
        lam = normalize_spectrum(np.ones(32))
        assert von_neumann(lam, base=math.e) == pytest.approx(math.log(32), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidArgumentError):
            von_neumann([0.6, 0.7])

    @pytest.mark.parametrize("entropy", [von_neumann, lambda lam: renyi(lam, 2.0)])
    def test_rejects_negative_values(self, entropy):
        # normalized, but not a spectrum: both entropies refuse it alike
        with pytest.raises(InvalidArgumentError, match="singular values must be non-negative"):
            entropy([-0.6, 0.8])

    @given(spectra)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_log_dim(self, sigmas):
        lam = normalize_spectrum(sigmas)
        s = von_neumann(lam)
        assert 0.0 <= s <= math.log2(lam.size) + 1e-9


class TestRenyi:
    def test_uniform_matches_log_dim(self):
        lam = normalize_spectrum(np.ones(8))
        assert renyi(lam, 2.0) == pytest.approx(3.0, abs=1e-12)

    def test_pure_state_is_positive_zero(self):
        s = renyi([1.0], 2.0)
        assert s == 0.0
        assert math.copysign(1.0, s) == 1.0

    def test_alpha_validation(self):
        for alpha in (1.0, 0.0, -2.0):
            with pytest.raises(InvalidArgumentError):
                renyi([1.0], alpha)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -math.inf])
    def test_a_non_finite_alpha_is_refused(self, alpha):
        with pytest.raises(InvalidArgumentError, match="finite"):
            renyi(normalize_spectrum([3.0, 2.0, 1.0]), alpha)

    @pytest.mark.parametrize("alpha", [2000.0, 1e6, 1e300])
    def test_a_power_sum_that_underflows_is_read_from_the_largest_weight(self, alpha):
        # (9/14)^2000 underflows float64; S_alpha = alpha/(alpha-1) log2(14/9) + O(2^-alpha)
        s = renyi(normalize_spectrum([3.0, 2.0, 1.0]), alpha)
        assert s == pytest.approx(alpha / (alpha - 1.0) * math.log2(14.0 / 9.0), rel=1e-12)
        # no larger than at an alpha whose sum does not underflow, no smaller than the min-entropy
        assert renyi(normalize_spectrum([3.0, 2.0, 1.0]), 1000.0) >= s >= math.log2(14.0 / 9.0) - 1e-12

    @given(spectra)
    @settings(max_examples=60, deadline=None)
    def test_renyi2_below_von_neumann(self, sigmas):
        lam = normalize_spectrum(sigmas)
        assert renyi(lam, 2.0) <= von_neumann(lam) + 1e-9


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-14)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-14)

    def test_symmetry(self):
        for u in (0.1, 0.3, 0.487):
            assert binary_entropy(u) == pytest.approx(binary_entropy(1.0 - u))

    def test_domain_check(self):
        with pytest.raises(InvalidArgumentError):
            binary_entropy(-0.01)
        with pytest.raises(InvalidArgumentError):
            binary_entropy(1.01)


class TestPageEntropy:
    def test_square_values(self):
        assert page_entropy(32, 32) == pytest.approx(4.278652479555518, abs=1e-12)
        assert page_entropy(2048, 2048) == pytest.approx(10.278652479555518, abs=1e-12)

    def test_thin_subsystem_near_saturation(self):
        assert page_entropy(2, 2**21) == pytest.approx(0.9999993120693965, abs=1e-15)

    def test_trivial_subsystem_clamps_to_zero(self):
        assert page_entropy(1, 8) == 0.0

    def test_orientation_enforced(self):
        with pytest.raises(InvalidArgumentError):
            page_entropy(8, 4)
        with pytest.raises(InvalidArgumentError):
            page_entropy(0, 4)

    def test_nats(self):
        got = page_entropy(16, 64, base=math.e)
        assert got == pytest.approx(math.log(16) - 16 / 128.0, abs=1e-12)


class TestProfile:
    def test_identity_four(self):
        prof = profile(np.eye(4))
        assert [rec.cut for rec in prof.records] == [1, 2, 3]
        assert np.allclose(prof.entropies, [1.0, 2.0, 1.0], atol=1e-10)
        mid = prof.records[2 - 1]
        assert (mid.d_left, mid.d_right, mid.chi) == (4, 4, 4)
        assert mid.normalized == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_vanishes_at_row_column_cut(self):
        # rank one concerns the matrix split only; interior cuts still
        # see structure inside the row and column factors
        rng = np.random.default_rng(3)
        matrix = np.outer(rng.standard_normal(8), rng.standard_normal(8))
        rec = profile(matrix).records[3 - 1]
        assert (rec.d_left, rec.d_right) == (8, 8)
        assert rec.entropy == 0.0
        assert math.copysign(1.0, rec.entropy) == 1.0
        assert rec.renyi2 == 0.0
        assert rec.chi == 1

    def test_full_product_state_is_flat_zero(self):
        rng = np.random.default_rng(6)
        row = np.kron(np.kron(rng.standard_normal(2), rng.standard_normal(2)), rng.standard_normal(2))
        col = np.kron(rng.standard_normal(2), rng.standard_normal(2))
        prof = profile(np.outer(row, col))
        assert len(prof.records) == 4
        for rec in prof.records:
            assert rec.entropy == 0.0
            assert rec.chi == 1

    def test_base_change_is_uniform_rescale(self):
        matrix = np.random.default_rng(8).standard_normal((12, 6))
        bits = profile(matrix)
        nats = profile(matrix, base=math.e)
        assert np.allclose(nats.entropies, bits.entropies * math.log(2.0), atol=1e-10)

    def test_normalized_in_unit_interval(self):
        matrix = np.random.default_rng(4).standard_normal((16, 16))
        for rec in profile(matrix).records:
            assert 0.0 <= rec.normalized <= 1.0 + 1e-12

    def test_truncated_profile_entropy_capped(self):
        matrix = np.random.default_rng(5).standard_normal((32, 32))
        prof = profile(matrix, chi_max=3)
        assert prof.chi_max == 3
        for rec in prof.records:
            assert rec.chi <= 3
            assert rec.entropy <= math.log2(3) + 1e-9

    def test_one_by_one_has_no_cuts(self):
        prof = profile(np.array([[2.5]]))
        assert prof.records == []


def _noisy_product(rows, cols, rank, noise, seed):
    """Gaussian matrix when rank is None, else a rank-r product plus noise."""
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.standard_normal((rows, cols))
    product = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    return product + noise * rng.standard_normal((rows, cols))


def _assert_untruncated_profile_matches(matrix):
    """Entropies agree with the sweep; chi is the per-cut count above the floor."""
    _, tensor = tensorize(matrix)
    prof = profile(matrix)
    for rec, sigmas in zip(prof.records, decompose(tensor).bond_spectra, strict=True):
        lambdas = normalize_spectrum(sigmas)
        assert abs(rec.entropy - von_neumann(lambdas)) <= 1e-10
        assert abs(rec.renyi2 - renyi(lambdas, 2.0)) <= 1e-10
        direct = cut_spectrum(tensor, rec.cut).sigmas
        assert rec.chi == np.count_nonzero(direct > SIGMA_FLOOR * direct.max())


prime_products = st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=3).map(math.prod)


class TestProfilePaths:
    """The untruncated profile reads per-cut spectra; the sweep is the reference."""

    @given(
        prime_products,
        prime_products,
        st.none() | st.integers(min_value=1, max_value=4),
        st.sampled_from([0.0, 1e-6]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(rows=32, cols=64, rank=None, noise=0.0, seed=0)
    @example(rows=27, cols=81, rank=None, noise=0.0, seed=1)
    @example(rows=25, cols=125, rank=None, noise=0.0, seed=2)
    @example(rows=729, cols=625, rank=None, noise=0.0, seed=3)
    @example(rows=2048, cols=384, rank=None, noise=0.0, seed=4)
    @example(rows=16, cols=32, rank=8, noise=0.0, seed=5)  # only the right apex resolves
    @example(rows=32, cols=16, rank=8, noise=0.0, seed=6)  # only the left apex resolves
    @settings(max_examples=60, deadline=None)
    def test_untruncated_matches_sweep(self, rows, cols, rank, noise, seed):
        _assert_untruncated_profile_matches(_noisy_product(rows, cols, rank, noise, seed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noise_near_the_floor_counts_per_cut(self, seed):
        # the sweep's cascaded cutoff keeps fewer values at some interior
        # cuts of these matrices; chi follows each cut's own unfolding
        _assert_untruncated_profile_matches(_noisy_product(64, 64, 4, 1e-11, seed))

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170])
    def test_extreme_scales_match_unit_scale(self, scale):
        # squared entries of 1e160 overflow and of 1e-170 underflow float64
        matrix = np.random.default_rng(11).standard_normal((32, 16))
        unit, scaled = profile(matrix), profile(matrix * scale)
        assert [r.chi for r in scaled.records] == [r.chi for r in unit.records]
        assert np.allclose(scaled.entropies, unit.entropies, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_truncated_extreme_scales_match_unit_scale(self, scale):
        # the capped sweep squares entries in its Gram matrices too
        matrix = np.random.default_rng(11).standard_normal((64, 48))
        unit, scaled = profile(matrix, chi_max=4), profile(matrix * scale, chi_max=4)
        assert [r.chi for r in scaled.records] == [r.chi for r in unit.records]
        assert np.allclose(scaled.entropies, unit.entropies, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("chi_max", [None, 8])
    @pytest.mark.parametrize("power", [-1000, 1019, 1021])
    def test_power_of_two_scales_at_the_float64_edges_match_unit_scale(self, power, chi_max):
        # at 2**1019 the largest Schmidt values overflow float64 once scaled back
        matrix = np.random.default_rng(0).standard_normal((64, 64))
        unit, scaled = profile(matrix, chi_max=chi_max), profile(matrix * 2.0**power, chi_max=chi_max)
        assert [r.chi for r in scaled.records] == [r.chi for r in unit.records]
        for name in ("entropy", "renyi2"):
            values = [getattr(r, name) for r in scaled.records]
            assert values == pytest.approx([getattr(r, name) for r in unit.records], rel=0.0, abs=1e-12)
        assert [round(s, 6) for s in scaled.entropies[:3]] == [0.997062, 1.992342, 2.983074]

    def test_all_zero_still_rejected(self):
        with pytest.raises(DegenerateInputError, match="^tensor is all zero$"):
            profile(np.zeros((4, 6)))

    def test_rank_one_row_column_cut_is_pure(self):
        rng = np.random.default_rng(9)
        matrix = np.outer(rng.standard_normal(45), rng.standard_normal(12))
        rec = profile(matrix).records[3 - 1]
        assert (rec.d_left, rec.d_right, rec.chi) == (45, 12, 1)
        assert rec.entropy == 0.0
        assert rec.renyi2 == 0.0

    def test_truncated_profile_is_the_sweep_bit_for_bit(self):
        matrix = np.random.default_rng(10).standard_normal((32, 48))
        _, tensor = tensorize(matrix)
        prof = profile(matrix, chi_max=5)
        for rec, sigmas in zip(prof.records, decompose(tensor, chi_max=5).bond_spectra, strict=True):
            lambdas = normalize_spectrum(sigmas)
            assert rec.chi == sigmas.size
            assert rec.entropy == von_neumann(lambdas)
            assert rec.renyi2 == renyi(lambdas, 2.0)
