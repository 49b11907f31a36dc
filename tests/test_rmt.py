import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aent import (
    CardyFit,
    DegenerateInputError,
    InvalidArgumentError,
    MarchenkoPastur,
    cardy_fit,
    entropy_bounds,
    estimate_sigma2,
    ks_distance,
    output_collapse_check,
    sample_gaussian_matrix,
)
from aent import rmt
from aent.entropy import _shannon, normalize_spectrum
from aent.experiments import _cardy_sample
from aent.rmt import _stochastic_spectrum, check_row_stochastic
from attention_reference import whole_attention
from entropy_reference import collapse_entropy
from entropy_reference import spectrum_entropies as reference_entropies

sorted_spectra = st.lists(
    st.floats(min_value=1e-6, max_value=1e3), min_size=2, max_size=40
).map(lambda xs: np.sort(np.asarray(xs))[::-1])


class TestReferenceLaws:
    def test_mp_support_edges(self):
        assert MarchenkoPastur(1.0).support == (0.0, 4.0)
        assert MarchenkoPastur(0.25).support == (0.25, 2.25)

    def test_mp_support_domain(self):
        for c in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidArgumentError):
                MarchenkoPastur(c)

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
    def test_mp_moments(self, c):
        # integrate with x = lo + (hi-lo) sin^2(theta) to tame the edges
        lo, hi = MarchenkoPastur(c).support
        theta = np.linspace(0.0, np.pi / 2, 200001)
        x = lo + (hi - lo) * np.sin(theta) ** 2
        w = (hi - lo) * np.sin(2 * theta)
        f = MarchenkoPastur(c).pdf(x)
        assert np.trapezoid(f * w, theta) == pytest.approx(1.0, abs=1e-5)
        assert np.trapezoid(x * f * w, theta) == pytest.approx(1.0, abs=1e-6)
        assert np.trapezoid(x**2 * f * w, theta) == pytest.approx(1.0 + c, abs=1e-6)

    def test_mp_density_zero_off_support(self):
        assert MarchenkoPastur(1.0).pdf(5.0) == 0.0
        assert MarchenkoPastur(1.0).pdf(-1.0) == 0.0
        assert MarchenkoPastur(0.25).pdf(0.1) == 0.0

    def test_mp_cdf_square_case_midpoint(self):
        # for c = 1 the point mass below 2 is 1/2 + 1/pi
        law = MarchenkoPastur(1.0)
        assert law.cdf(2.0) == pytest.approx(0.5 + 1.0 / math.pi, abs=1e-6)
        assert law.cdf(-0.5) == 0.0
        assert law.cdf(4.5) == 1.0

    def test_mp_cdf_monotone(self):
        law = MarchenkoPastur(0.5)
        xs = np.linspace(-1.0, 4.0, 500)
        assert np.all(np.diff(law.cdf(xs)) >= 0.0)

class TestKsDistance:
    def test_quantile_samples_are_close(self):
        law = MarchenkoPastur(0.5)
        grid = np.linspace(*law.support, 20001)
        u = (np.arange(10000) + 0.5) / 10000
        samples = np.interp(u, law.cdf(grid), grid)
        assert ks_distance(samples, law) <= 0.03

    def test_gaussian_singulars_match_quartercircle(self):
        t = 512
        g = sample_gaussian_matrix(t, t, seed=0) / math.sqrt(t)
        s = np.linalg.svd(g, compute_uv=False)
        # s follows the quartercircle law exactly when s^2 follows MP(1)
        assert ks_distance(s**2, MarchenkoPastur(1.0)) <= 0.05
        assert np.mean(s**2) == pytest.approx(1.0, abs=0.05)

    def test_point_mass_far_from_mp(self):
        assert ks_distance(np.full(50, 1.0), MarchenkoPastur(1.0)) >= 0.5

    def test_disjoint_support_saturates(self):
        assert ks_distance([100.0, 101.0], MarchenkoPastur(1.0)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ks_distance([], MarchenkoPastur(1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="^ks_distance samples must be finite$"):
            ks_distance([bad, 1.0], MarchenkoPastur(0.5))


class TestStableRank:
    def test_uniform_is_dimension(self):
        assert entropy_bounds([1.0] * 5).eta + 1 == pytest.approx(5.0, abs=1e-12)

    def test_rank_one(self):
        assert entropy_bounds([3.0, 0.0, 0.0]).eta + 1 == pytest.approx(1.0, abs=1e-12)

    def test_mixed_value(self):
        assert entropy_bounds([2.0, 1.0, 1.0]).eta + 1 == pytest.approx(1.5, abs=1e-12)

    def test_requires_sorted_nonnegative(self):
        with pytest.raises(InvalidArgumentError):
            entropy_bounds([1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            entropy_bounds([1.0, -1.0])
        with pytest.raises(DegenerateInputError):
            entropy_bounds([0.0, 0.0])
        with pytest.raises(InvalidArgumentError, match="expected a non-empty 1-d spectrum"):
            entropy_bounds([])

    @given(sorted_spectra)
    @settings(max_examples=60, deadline=None)
    def test_between_one_and_dimension(self, eig):
        r = entropy_bounds(eig).eta + 1
        assert 1.0 - 1e-12 <= r <= eig.size + 1e-9


class TestEntropyBounds:
    def test_rank_one_all_zero(self):
        b = entropy_bounds([5.0, 0.0, 0.0, 0.0])
        assert b.eta == 0.0
        assert b.delta1 == 0.0
        assert b.vn_bound == 0.0
        assert b.renyi2_bound == 0.0

    @pytest.mark.parametrize("t", [2, 4, 8, 16, 32, 64])
    def test_uniform_bound_is_tight(self, t):
        b = entropy_bounds([1.0] * t)
        # uniform is the max-entropy spectrum at its own tail mass, so the
        # certified bound lands exactly on log T
        assert b.vn_bound == pytest.approx(math.log(t), abs=1e-12)

    def test_flat_tail_saturates_cauchy_schwarz(self):
        t, eps = 17, 1e-3
        b = entropy_bounds([1.0] + [eps] * (t - 1))
        assert b.delta1 == pytest.approx(math.sqrt((t - 1) * b.eta), rel=1e-12)

    def test_base_conversion(self):
        nats = entropy_bounds([2.0, 1.0, 0.5])
        bits = entropy_bounds([2.0, 1.0, 0.5], base=2.0)
        assert bits.vn_bound == pytest.approx(nats.vn_bound / math.log(2.0), rel=1e-12)
        assert bits.renyi2_bound == pytest.approx(
            nats.renyi2_bound / math.log(2.0), rel=1e-12
        )

    @pytest.mark.parametrize("eigenvalues", [[math.inf, 1.0], [math.nan, 1.0], [1.0, math.nan]])
    def test_non_finite_eigenvalues_rejected(self, eigenvalues):
        with pytest.raises(InvalidArgumentError, match="^eigenvalues must be finite$"):
            entropy_bounds(eigenvalues)
        with pytest.raises(InvalidArgumentError, match="^eigenvalues must be finite$"):
            output_collapse_check([np.array(eigenvalues)])

    def test_a_spectrum_whose_sum_overflows_stays_in_range(self):
        with np.errstate(all="raise"):
            b = entropy_bounds([1e308] * 3)
        assert (b.eta, b.delta1) == (2.0, 2.0)
        assert b.vn_bound == pytest.approx(math.log(3.0), rel=1e-15)

    def test_base_one_rejected(self):
        with pytest.raises(InvalidArgumentError):
            entropy_bounds([0.5, 0.3, 0.2], base=1)
        with pytest.raises(InvalidArgumentError):
            _shannon(np.array([0.5, 0.3, 0.2]), 1.0)

    @given(sorted_spectra)
    @settings(max_examples=80, deadline=None)
    def test_bounds_certify_actual_entropies(self, eig):
        b = entropy_bounds(eig)
        probs = eig / eig.sum()
        pos = probs[probs > 0.0]
        s_vn = float(-(pos * np.log(pos)).sum())
        s_r2 = float(-np.log((probs**2).sum()))
        assert s_vn <= b.vn_bound + 1e-9
        assert s_r2 <= b.renyi2_bound + 1e-9
        # compare squared so cancellation in eta near rank one cannot
        # flip the Cauchy-Schwarz inequality by an ulp
        assert b.delta1**2 <= (eig.size - 1) * b.eta * (1.0 + 1e-9) + 1e-12


class TestRowStochastic:
    def test_uniform_passes(self):
        a = np.full((6, 6), 1.0 / 6.0)
        assert check_row_stochastic(a).shape == (6, 6)

    def test_shape_and_sum_validation(self):
        with pytest.raises(InvalidArgumentError):
            check_row_stochastic(np.ones((2, 3)))
        with pytest.raises(InvalidArgumentError):
            check_row_stochastic(np.ones((3, 3)))
        bad = np.full((3, 3), 1.0 / 3.0)
        bad[0, 0] = np.nan
        with pytest.raises(InvalidArgumentError):
            check_row_stochastic(bad)

    def test_estimate_sigma2_uniform_is_zero(self):
        assert estimate_sigma2(np.full((8, 8), 0.125)) == 0.0

    def test_estimate_sigma2_identity(self):
        # bulk of I_T has squared Frobenius norm T - 1
        assert estimate_sigma2(np.eye(8)) == pytest.approx(7.0, abs=1e-12)

    @pytest.mark.parametrize("t", [4, 16, 64, 256])
    def test_estimate_sigma2_is_the_cardy_fits_bulk_bit_for_bit(self, t):
        for seed, scale in enumerate((0.3, 1.0, 3.0)):
            x = scale * sample_gaussian_matrix(t, t, [seed, t])
            a = np.exp(x - x.max(axis=1, keepdims=True))
            a /= a.sum(axis=1, keepdims=True)
            before = a.copy()
            assert estimate_sigma2(a).hex() == _stochastic_spectrum(a.copy)[2].hex()
            assert np.array_equal(a, before)  # the bulk is written over a copy, not over A


def _draw(a):
    """A draw of the contract of cardy_fit: a new copy of ``a`` on every call."""
    return lambda: a.copy()


class TestCardyFit:
    def test_uniform_scenes_give_zero_slope_and_charge(self):
        samples = [_draw(np.full((t, t), 1.0 / t)) for t in (4, 8, 16, 32)]
        fit = cardy_fit(samples)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.sigma2 == 0.0
        assert fit.predicted_charge == 0.0
        assert fit.relative_slope_deviation == pytest.approx(0.0, abs=1e-12)
        assert fit.s1_largest_t == pytest.approx(1.0)
        assert fit.p1_largest_t == pytest.approx(1.0)
        assert fit.renyi2_largest_t == 0.0

    def test_identity_scenes_exact_line(self):
        sizes = (4, 8, 16, 32)
        fit = cardy_fit([_draw(np.eye(t)) for t in sizes])
        # S(I_T) = ln T exactly, so the fit recovers slope 1, intercept 0
        assert fit.slope == pytest.approx(1.0, abs=1e-10)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)
        assert fit.sigma2 == pytest.approx(31.0, abs=1e-9)
        assert fit.predicted_charge == pytest.approx(31.0 / 32.0, rel=1e-9)
        assert fit.relative_slope_deviation == pytest.approx(1.0 / 31.0, rel=1e-6)
        assert fit.p1_largest_t == pytest.approx(1.0 / 32.0, rel=1e-12)
        assert fit.renyi2_largest_t == pytest.approx(math.log(32.0), rel=1e-12)
        assert fit.renyi2_predicted == pytest.approx(2.0 * math.log(32.0), rel=1e-9)
        assert [t for t, _ in fit.points] == list(sizes)
        assert [s for _, s in fit.points] == pytest.approx(
            [math.log(t) for t in sizes]
        )

    def test_needs_four_distinct_sizes(self):
        samples = [_draw(np.full((t, t), 1.0 / t)) for t in (4, 8, 16, 16)]
        with pytest.raises(InvalidArgumentError):
            cardy_fit(samples)

    def test_rejects_non_stochastic(self):
        samples = [_draw(np.eye(t) * 2.0) for t in (4, 8, 16, 32)]
        with pytest.raises(InvalidArgumentError):
            cardy_fit(samples)


def _svd_call_log(monkeypatch):
    """The shapes of all later np.linalg.svd calls, in order."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: calls.append(m.shape) or svd(m, **kw))
    return calls


def _svd_cardy_fields(samples) -> dict:
    """The fields of cardy_fit, from a direct SVD of each A."""
    t_largest = max(t for t, _ in samples)
    points, s1, p1, renyi2, sigma2 = [], [], [], [], []
    for t, a in samples:
        sigmas = np.linalg.svd(a, compute_uv=False)
        _, s, s_r2 = reference_entropies(sigmas, math.e)
        points.append(s)
        if t == t_largest:
            s1.append(sigmas[0])
            p1.append(sigmas[0] ** 2 / np.dot(sigmas, sigmas))
            renyi2.append(s_r2)
            sigma2.append(estimate_sigma2(a))
    slope, intercept = np.polyfit(np.log([t for t, _ in samples]), points, 1)
    s2 = float(np.mean(sigma2))
    charge = s2 / (1.0 + s2)
    return {
        "points": points,
        "slope": slope,
        "intercept": intercept,
        "sigma2": s2,
        "predicted_charge": charge,
        "s1_largest_t": float(np.mean(s1)),
        "p1_largest_t": float(np.mean(p1)),
        "renyi2_largest_t": float(np.mean(renyi2)),
        "renyi2_predicted": 2.0 * math.log1p(s2),
    }


def _scenes(qk_std, causal, sizes=(16, 32, 64, 128, 256), seeds=2):
    samples = []
    for t in sizes:
        for s in range(seeds):
            samples.append((t, whole_attention(t, [s, t], qk_std, causal=causal)))
    return samples


def _duplicated_rows(t, seed):
    """Row-stochastic t x t matrix of rank t/2: each row appears twice."""
    return np.repeat(whole_attention(t, [seed, t])[: t // 2], 2, axis=0)


def _one_duplicated_row(t):
    """A cardy sample of rank T - 1: row 1 is row 0."""
    a = _cardy_sample(t, 0.65, [0, t])
    a[1] = a[0]
    return a


class TestStreamedFit:
    def test_generator_fit_is_bit_identical_to_the_list_fit(self):
        samples = _scenes(0.65, False, sizes=(16, 32, 64, 128), seeds=2)[::-1]
        listed = cardy_fit([_draw(a) for _, a in samples])
        streamed = cardy_fit(_draw(a) for _, a in samples)
        for name in (f.name for f in dataclasses.fields(CardyFit)):
            assert getattr(streamed, name) == getattr(listed, name), name

    def test_any_order_gives_the_same_fit_with_points_sorted_by_t(self):
        samples = _scenes(0.65, False, sizes=(16, 32, 64, 128), seeds=2)
        ascending = cardy_fit(_draw(a) for _, a in samples)
        shuffled = [samples[i] for i in np.random.default_rng(0).permutation(len(samples))]
        fit = cardy_fit(_draw(a) for _, a in shuffled)
        assert [t for t, _ in fit.points] == sorted(t for t, _ in samples)
        assert sorted(fit.points) == sorted(ascending.points)
        for name in (f.name for f in dataclasses.fields(CardyFit)):
            if name != "points":
                assert getattr(fit, name) == pytest.approx(getattr(ascending, name), abs=1e-12, rel=0), name

    def test_each_t_is_read_from_its_matrix(self):
        fit = cardy_fit(_draw(np.eye(t)) for t in (32, 4, 16, 8))
        assert fit.points == [(t, pytest.approx(math.log(t), abs=1e-12)) for t in (4, 8, 16, 32)]
        assert all(type(t) is int for t, _ in fit.points)

    @pytest.mark.parametrize("sizes", [(16, 8, 4, 8), ()])
    def test_a_stream_of_fewer_than_four_sizes_is_refused(self, sizes):
        samples = (_draw(np.full((t, t), 1.0 / t)) for t in sizes)
        with pytest.raises(InvalidArgumentError, match="need >= 4 distinct T"):
            cardy_fit(samples)


class TestGramSpectra:
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("qk_std", [1e-8, 0.1, 0.65, 5.0])
    def test_cardy_fit_matches_svd_reference(self, qk_std, causal):
        samples = _scenes(qk_std, causal)
        fit = cardy_fit(_draw(a) for _, a in samples)
        ref = _svd_cardy_fields(samples)
        assert [t for t, _ in fit.points] == [t for t, _ in samples]
        assert [s for _, s in fit.points] == pytest.approx(ref.pop("points"), abs=1e-12, rel=1e-9)
        for name, expected in ref.items():
            assert getattr(fit, name) == pytest.approx(expected, abs=1e-12, rel=1e-9), name

    def test_rank_deficient_sample_takes_the_svd_and_keeps_its_zeros(self, monkeypatch):
        a = _duplicated_rows(32, 1)
        draws, seen, direct = [], [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: seen.append(m) or direct(m, **kw))
        sigmas, svd, _ = _stochastic_spectrum(lambda: draws.append(a.copy()) or draws[-1])
        assert svd
        assert [m.shape for m in seen] == [(32, 32)]
        # A is drawn a second time, for the SVD alone, which sees that array;
        # the first draw holds the bulk A - 1/T, written over it
        assert len(draws) == 2 and seen[0] is draws[1]
        assert np.array_equal(draws[1], a)
        assert np.array_equal(draws[0], a - 1.0 / 32)
        assert np.count_nonzero(normalize_spectrum(sigmas)) == 16
        # the Gram alone would leave values near sqrt(eps) above the floor
        lam = np.linalg.eigvalsh(a @ a.T)
        assert lam[0] <= 32 * np.finfo(np.float64).eps * lam[-1]

    def test_svd_fallbacks_counted(self):
        samples = [(t, _duplicated_rows(t, 2)) for t in (8, 16, 32, 64)]
        samples += _scenes(0.65, False, sizes=(64,), seeds=1)
        fit = cardy_fit(_draw(a) for _, a in samples)
        assert fit.svd_fallbacks == 4
        assert [s for _, s in fit.points] == pytest.approx(
            _svd_cardy_fields(samples)["points"], abs=1e-12, rel=1e-9
        )

    # cardy_experiment's draws whose Gram spectra each have exactly one value
    # at or below x = T eps lam_max (lam_min / x = 0.023 and 0.052)
    ONE_UNRESOLVED = ((32, [357, 32]), (128, [255, 128]))

    @pytest.mark.parametrize("make", [
        *(functools.partial(_cardy_sample, t, 0.65, seed) for t, seed in ONE_UNRESOLVED),
        functools.partial(_one_duplicated_row, 64),
    ], ids=["cardy-32", "cardy-128", "duplicated-row-64"])
    def test_one_unresolved_value_keeps_the_gram_spectrum(self, monkeypatch, make):
        a = make()
        t = a.shape[0]
        direct = np.linalg.svd(a, compute_uv=False)
        calls, draws = _svd_call_log(monkeypatch), []
        sigmas, svd, _ = _stochastic_spectrum(lambda: draws.append(t) or a.copy())
        assert (calls, draws, svd) == ([], [t], False)
        # the unresolved value reads 0, and every value is the SVD's within x
        x = t * np.finfo(np.float64).eps * sigmas[0] ** 2
        assert sigmas[-1] == 0.0 and sigmas[-2] ** 2 > x
        assert sigmas**2 == pytest.approx(direct**2, abs=x, rel=0)
        # S within the certified x^ (1 + ln(1/x^)), x^ = x / sum(lam)
        x_hat = x / np.dot(sigmas, sigmas)
        s = reference_entropies(sigmas, math.e)[1]
        s_direct = reference_entropies(direct, math.e)[1]
        assert abs(s - s_direct) <= x_hat * (1.0 + math.log(1.0 / x_hat))

    def test_cardy_fit_over_one_unresolved_samples_matches_svd_reference(self, monkeypatch):
        # T = 128, the largest, is an unresolved sample, so s1, p1 and Renyi-2 are its own
        samples = [(t, _cardy_sample(t, 0.65, seed)) for t, seed in self.ONE_UNRESOLVED]
        samples = sorted(samples + _scenes(0.65, False, sizes=(16, 64), seeds=1), key=lambda sample: sample[0])
        ref = _svd_cardy_fields(samples)
        calls = _svd_call_log(monkeypatch)
        fit = cardy_fit(_draw(a) for _, a in samples)
        assert (calls, fit.svd_fallbacks) == ([], 0)
        assert [s for _, s in fit.points] == pytest.approx(ref.pop("points"), abs=1e-12, rel=1e-9)
        for name, expected in ref.items():
            assert getattr(fit, name) == pytest.approx(expected, abs=1e-12, rel=1e-9), name

    def test_gaussian_scene_makes_no_svd_call(self, monkeypatch):
        samples = _scenes(0.65, False, sizes=(32, 64, 128, 256), seeds=1)
        calls, draws = _svd_call_log(monkeypatch), []
        fit = cardy_fit((lambda t=t, a=a: draws.append(t) or a.copy()) for t, a in samples)
        assert calls == []
        assert fit.svd_fallbacks == 0
        # each Gaussian sample is drawn once
        assert draws == [t for t, _ in samples]

    def test_bulk_identity_holds_off_stochastic(self):
        t = 64
        (_, a), = _scenes(0.65, False, sizes=(t,), seeds=1)
        # rows now sum to 1 +- 1e-7, inside the 1e-6 tolerance of cardy_fit
        a = a * (1.0 + 1e-7 * np.linspace(-1.0, 1.0, t))[:, None]
        check_row_stochastic(a)
        sigmas, svd, _ = _stochastic_spectrum(_draw(a))
        assert not svd
        direct = np.linalg.svd(a, compute_uv=False)
        assert sigmas**2 == pytest.approx(direct**2, abs=1e-14)

    @staticmethod
    def _c_order_spectrum(a):
        """The reference formula: corrections added untransposed, Gram handed over in C order."""
        t = a.shape[0]
        b = a - 1.0 / t
        delta = b.sum(axis=1)
        gram = b @ b.T
        gram += delta[:, None] / t
        gram += (delta + 1.0) / t
        lam = np.linalg.eigvalsh(gram)
        if lam[0] > t * np.finfo(np.float64).eps * lam[-1]:
            return np.sqrt(lam[::-1]), False, estimate_sigma2(a)
        return np.linalg.svd(a, compute_uv=False), True, estimate_sigma2(a)

    def test_bit_identical_to_the_c_order_gram(self):
        samples = _scenes(0.65, False, sizes=(64, 128, 256), seeds=2)
        samples += _scenes(0.65, True, sizes=(64, 128, 256), seeds=1)
        # the off-stochastic scene of test_bulk_identity_holds_off_stochastic
        t, a = samples[0]
        samples.append((t, a * (1.0 + 1e-7 * np.linspace(-1.0, 1.0, t))[:, None]))
        fallbacks = 0
        for t, a in samples:
            sigmas, svd, sigma2 = _stochastic_spectrum(_draw(a))
            expected, expected_svd, expected_sigma2 = self._c_order_spectrum(a)
            assert np.array_equal(sigmas, expected), t
            assert (svd, sigma2) == (expected_svd, expected_sigma2), t
            fallbacks += svd
        assert fallbacks < len(samples)

    def test_gram_reaches_eigvalsh_in_f_order(self, monkeypatch):
        # mps._eigvalsh hands LAPACK a C-ordered gram's own buffer, which column-major is gram.T
        seen = []
        eigvalsh = rmt._eigvalsh
        monkeypatch.setattr(rmt, "_eigvalsh", lambda m: seen.append(m.flags.c_contiguous) or eigvalsh(m))
        for _, a in _scenes(0.65, False, sizes=(64, 128, 256), seeds=1):
            _stochastic_spectrum(_draw(a))
        assert seen == [True] * 3

    def test_one_eigvalsh_per_sample(self, monkeypatch):
        samples = _scenes(0.65, False, sizes=(16, 32, 64, 128), seeds=2)[::-1]
        calls = []
        eigvalsh = rmt._eigvalsh
        monkeypatch.setattr(rmt, "_eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        cardy_fit(_draw(a) for _, a in samples)
        assert calls == [(t, t) for t, _ in samples]

    def test_the_bulk_is_written_over_the_drawn_array(self):
        for t, a in _scenes(0.65, False, sizes=(64, 256), seeds=1):
            drawn = []
            _stochastic_spectrum(lambda: drawn.append(a.copy()) or drawn[-1])
            assert len(drawn) == 1
            assert np.array_equal(drawn[0], a - 1.0 / t), t


class TestOutputCollapse:
    def test_rank_one_rows(self):
        grid = [np.array([1.0] + [0.0] * (t - 1)) for t in (16, 4, 8)]
        report = output_collapse_check(grid)
        assert [r.t for r in report.rows] == [4, 8, 16]
        assert all(r.entropy_nats == 0.0 for r in report.rows)
        assert report.bound_satisfied
        assert report.ratio_spread == math.inf

    def test_uniform_rows(self):
        report = output_collapse_check([np.ones(4) / 4, np.ones(8) / 8])
        assert [r.t for r in report.rows] == [4, 8]
        assert report.rows[0].entropy_nats == pytest.approx(math.log(4.0))
        assert report.rows[0].ratio == pytest.approx(4.0)
        assert report.rows[1].ratio == pytest.approx(8.0)
        assert not report.monotone_decreasing

    def test_a_spectrum_whose_sum_overflows_stays_in_range(self):
        with np.errstate(all="raise"):
            (row,) = output_collapse_check([np.array([1e308, 1e308])]).rows
        assert row.entropy_nats == pytest.approx(math.log(2.0), rel=1e-15)
        assert row.ratio == pytest.approx(2.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError, match="grid sizes must be >= 2"):
            output_collapse_check([np.array([1.0])])

    def test_a_one_value_spectrum_reads_plus_zero(self):
        (row,) = output_collapse_check([np.array([1.0, 0.0, 0.0])]).rows
        assert math.copysign(1.0, row.entropy_nats) == 1.0 and row.entropy_nats == 0.0
        assert math.copysign(1.0, row.ratio) == 1.0 and row.ratio == 0.0

    def test_a_zero_tail_leaves_the_sum_over_the_nonzero_values_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for n in (9, 40, 130, 600):
            for nonzero in sorted({1, 2, 8, 9, 17, n // 3, n - 1}):
                eig = np.sort(rng.random(n))[::-1]
                eig[nonzero:] = 0.0
                (row,) = output_collapse_check([eig]).rows
                assert row.entropy_nats.hex() == collapse_entropy(eig).hex(), (n, nonzero)


class TestSampleGaussian:
    def test_seed_reproducible(self):
        a = sample_gaussian_matrix(5, 3, seed=42)
        b = sample_gaussian_matrix(5, 3, seed=42)
        assert a.shape == (5, 3)
        assert np.array_equal(a, b)

    def test_dimension_validation(self):
        with pytest.raises(InvalidArgumentError):
            sample_gaussian_matrix(0, 3, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_gaussian_matrix(2, 3, seed=-1)
        with pytest.raises(InvalidArgumentError):
            sample_gaussian_matrix(2, 3, seed=[4, -1])

    def test_non_integer_seeds_pass_through(self):
        assert sample_gaussian_matrix(2, 3, seed=None).shape == (2, 3)
        gen = np.random.default_rng(7)
        expected = np.random.default_rng(7).standard_normal((2, 3))
        assert np.array_equal(sample_gaussian_matrix(2, 3, seed=gen), expected)
        seq = np.random.SeedSequence(7)
        assert np.array_equal(sample_gaussian_matrix(2, 3, seed=seq), expected)
