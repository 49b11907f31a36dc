import math

import numpy as np
import pytest

from aent import (
    AdapterSpec,
    DegenerateInputError,
    InvalidArgumentError,
    REFERENCE_ADAPTER_SPECS,
    ShapeMismatchError,
    adapter_count_rows,
    mps_adapter_materialize,
    param_count,
    valley_check,
)
from aent import adapters
from aent.cli import _parse_adapter_spec, main
from aent.adapters import _SPEC_FIELDS
from aent.entropy import profile
from aent.tensorize import prime_factorize
from entropy_reference import valley_entropies


class TestAdapterSpec:
    def test_param_counts_at_reference_shapes(self):
        full = AdapterSpec("full", 4096, 4096)
        lora = AdapterSpec("lora", 4096, 4096, r=256)
        mps = AdapterSpec("mps_adapt", 4096, 4096, r=256, d1=64, d2=64, chi=32)
        assert param_count(full) == 16777216
        assert param_count(lora) == 2097152
        assert param_count(mps) == 1574912

    def test_param_count_trivial_full(self):
        assert param_count(AdapterSpec("full", 1, 1)) == 1

    def test_kind_and_dim_validation(self):
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("banana", 4, 4)
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("full", 0, 4)

    def test_rank_validation(self):
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("lora", 4, 4, r=0)
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("lora", 4, 4, r=None)
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("lora", 4, 4, r=5)

    @pytest.mark.parametrize(
        "fields, name, value",
        [
            (("lora", 8, 8, 2.5), "r", "2.5"),
            (("full", 8.5, 8), "d_out", "8.5"),
            (("full", 8, 8, math.nan), "r", "nan"),
            (("mps_adapt", 8, 8, 2, 2, 4, math.inf), "chi", "inf"),
        ],
    )
    def test_a_size_that_is_not_a_whole_number_is_refused_by_name(self, fields, name, value):
        with pytest.raises(InvalidArgumentError, match=f"adapter {name} must be a whole number, got {value}$"):
            AdapterSpec(*fields)

    @pytest.mark.parametrize("r", [2.0, np.int64(2), np.float32(2.0)], ids=["float", "int64", "float32"])
    def test_a_whole_size_of_any_type_is_kept_as_an_int(self, r, tmp_path):
        spec = AdapterSpec("lora", 8, 8, r)
        assert type(spec.r) is int and spec == AdapterSpec("lora", 8, 8, 2)
        assert spec.text == "lora:8,8,2"
        assert main(["adapters-count", "--spec", spec.text, "--out", str(tmp_path / "counts.csv")]) == 0
        assert type(param_count(spec)) is int and param_count(spec) == 32
        (row,) = adapter_count_rows([spec]).tables["counts"]
        assert (type(row["r"]), row["r"], type(row["params"]), row["params"]) == (int, 2, int, 32)

    @pytest.mark.parametrize(
        "fields, extra, message",
        [
            (("lora", 8, 8, 2), {"chi": 0}, "a lora adapter takes no chi, got 0$"),
            (("lora", 8, 8, 2), {"d1": 2}, "a lora adapter takes no d1, got 2$"),
            (("full", 8, 8), {"r": 3}, "a full adapter takes no r, got 3$"),
            (("full", 8, 8), {"d2": 4.0}, "a full adapter takes no d2, got 4.0$"),
        ],
        ids=["lora-chi", "lora-d1", "full-r", "full-d2"],
    )
    def test_a_field_its_kind_does_not_use_is_refused_by_name(self, fields, extra, message):
        with pytest.raises(InvalidArgumentError, match=message):
            AdapterSpec(*fields, **extra)

    @pytest.mark.parametrize("kind", ["full", "lora", "mps_adapt"])
    def test_text_parses_back_to_the_spec(self, kind):
        sizes = dict(d_out=16, d_in=16, r=4, d1=4, d2=4, chi=2)
        listed = {name: sizes[name] for name in _SPEC_FIELDS[kind]}
        spec = AdapterSpec(kind, **listed)
        assert _parse_adapter_spec(spec.text) == spec
        # a field the kind does not list would be lost from the text, so it is refused
        for name in sizes.keys() - listed.keys():
            with pytest.raises(InvalidArgumentError, match=f"a {kind} adapter takes no {name}, got"):
                AdapterSpec(kind, **listed, **{name: sizes[name]})
        for spec in REFERENCE_ADAPTER_SPECS:
            assert _parse_adapter_spec(spec.text) == spec

    def test_mps_factorization_validation(self):
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("mps_adapt", 4, 6, r=2, d1=2, d2=2, chi=1)
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("mps_adapt", 4, 4, r=2, d1=2, d2=2, chi=0)
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("mps_adapt", 4, 4, r=2, d1=None, d2=2, chi=1)


class TestMpsAdapter:
    def test_chi_one_rows_are_kronecker_products(self):
        rng = np.random.default_rng(2)
        core1 = rng.standard_normal((3, 1, 4))
        core2 = rng.standard_normal((1, 1, 5))
        a = mps_adapter_materialize(core1, core2)
        assert a.shape == (3, 20)
        for row in range(3):
            assert np.allclose(a[row], np.kron(core1[row, 0], core2[0, 0]), atol=1e-14)

    @pytest.mark.parametrize("shape", [(2, 2, 3, 4), (2, 1, 5, 3)])
    def test_matches_triple_loop_oracle(self, shape):
        r, chi, d1, d2 = shape
        rng = np.random.default_rng(3)
        core1 = rng.standard_normal((r, chi, d1))
        core2 = rng.standard_normal((chi, 1, d2))
        got = mps_adapter_materialize(core1, core2)
        want = np.zeros((r, d1 * d2))
        for a in range(r):
            for i in range(d1):
                for j in range(d2):
                    want[a, i * d2 + j] = float(
                        sum(core1[a, c, i] * core2[c, 0, j] for c in range(chi))
                    )
        assert np.allclose(got, want, atol=1e-12)

    def test_rows_have_schmidt_rank_at_most_chi(self):
        r, chi, d1, d2 = 4, 2, 8, 8
        rng = np.random.default_rng(4)
        a = mps_adapter_materialize(
            rng.standard_normal((r, chi, d1)), rng.standard_normal((chi, 1, d2))
        )
        for row in a:
            s = np.linalg.svd(row.reshape(d1, d2), compute_uv=False)
            assert np.all(s[chi:] <= 1e-10 * s[0])

    def test_zero_cores_give_zero_factor(self):
        a = mps_adapter_materialize(np.zeros((2, 2, 2)), np.zeros((2, 1, 2)))
        assert a.shape == (2, 4)
        assert np.all(a == 0.0)

    def test_core_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            mps_adapter_materialize(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)))
        with pytest.raises(ShapeMismatchError):
            mps_adapter_materialize(np.zeros((2, 2, 3)), np.zeros((3, 1, 4)))
        with pytest.raises(ShapeMismatchError):
            mps_adapter_materialize(np.zeros((2, 3)), np.zeros((3, 1, 4)))


def _factors(seed, shape, d_out, r, d_in):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((*shape, d_out, r)), rng.standard_normal((*shape, r, d_in))


def _interior_cuts(r, n):
    """Row cuts ceil(log2 r) + 2 <= k <= n - 1."""
    return tuple(range(math.ceil(math.log2(r)) + 2, n))


def _assert_interior(check, cuts):
    """A single update's interior max and mean are those of its entropies at row ``cuts``, nan for none."""
    if not cuts:
        assert math.isnan(check.interior_max) and math.isnan(check.interior_mean)
        return
    interior = check.entropies[[k - 1 for k in cuts]]
    assert check.interior_max == interior.max() and check.interior_mean == interior.mean()


class TestInteriorCutRange:
    """The interior cuts of ``valley_check``, n = 6 row sites for d_out = 64 and 4 for 16."""

    def test_reference_values(self):
        _assert_interior(valley_check(*_factors(1, (), 64, 4, 8)), (4, 5))
        _assert_interior(valley_check(*_factors(2, (), 64, 1, 8)), (2, 3, 4, 5))
        _assert_interior(valley_check(*_factors(3, (), 16, 4, 8)), ())

    def test_non_power_rank_rounds_up(self):
        _assert_interior(valley_check(*_factors(4, (), 64, 3, 8)), (4, 5))


class TestValleyCheck:
    def test_rank_one_update_has_zero_rowcol_entropy(self):
        check = valley_check(*_factors(6, (), 64, 1, 64))
        assert check.s_rowcol == 0.0
        assert check.bound == 0.0
        assert check.passes
        _assert_interior(check, (2, 3, 4, 5))

    def test_full_rank_bound_is_vacuous(self):
        check = valley_check(*_factors(7, (), 16, 16, 16))
        assert check.bound == pytest.approx(4.0)
        assert check.passes

    def test_single_update_gives_scalars_and_a_stack_gives_arrays(self):
        b, a = _factors(11, (2, 3), 16, 2, 8)
        stacked = valley_check(b, a)
        assert stacked.entropies.shape == (2, 3, 6)
        for field in ("s_rowcol", "interior_max", "interior_mean", "passes"):
            assert getattr(stacked, field).shape == (2, 3)
        single = valley_check(b[1, 2], a[1, 2])
        assert single.entropies.shape == (6,)
        for field in ("s_rowcol", "interior_max", "interior_mean", "passes"):
            assert np.ndim(getattr(single, field)) == 0
            assert getattr(single, field) == getattr(stacked, field)[1, 2]

    @pytest.mark.parametrize(
        "scale_b, scale_a", [(1e200, 1.0), (1.0, 1e200), (1e200, 1e200), (1e-200, 1e-200), (1e-200, 1e200)]
    )
    def test_extreme_scale_gives_the_unit_scale_entropies(self, scale_b, scale_a):
        b, a = _factors(9, (3,), 64, 4, 64)
        unit, scaled = valley_check(b, a), valley_check(scale_b * b, scale_a * a)
        np.testing.assert_allclose(scaled.entropies, unit.entropies, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(scaled.passes, unit.passes)

    @pytest.mark.filterwarnings("error")
    def test_each_update_of_a_stack_is_scaled_on_its_own(self):
        # one stack holds updates at 1e200, 1 and 1e-200: each keeps its unit-scale entropies
        b, a = _factors(18, (3,), 64, 4, 64)
        scales = np.array([1e200, 1.0, 1e-200])[:, None, None]
        unit, mixed = valley_check(b, a), valley_check(scales * b, a * scales[::-1])
        np.testing.assert_allclose(mixed.entropies, unit.entropies, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(mixed.passes, unit.passes)

    def test_interior_empty_when_rank_fills_rows(self):
        _assert_interior(valley_check(*_factors(12, (), 16, 4, 16)), ())

    def test_rank_is_read_from_b(self):
        # r = 3 is B's width, so the bound is log2 3 and the interior follows r = 3
        check = valley_check(*_factors(21, (), 32, 3, 12))
        assert check.bound == pytest.approx(math.log2(3.0), abs=1e-15)
        cuts = _interior_cuts(3, len(prime_factorize(32)))
        assert cuts != ()
        _assert_interior(check, cuts)
        assert check.s_rowcol <= check.bound + 1e-9

    def test_nats_base(self):
        check = valley_check(*_factors(10, (), 16, 4, 16), base=math.e)
        assert check.bound == pytest.approx(math.log(4.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("factor", [0, 1])
    def test_zero_factor_rejected(self, factor):
        factors = list(_factors(13, (), 8, 2, 8))
        factors[factor] = np.zeros_like(factors[factor])
        with pytest.raises(DegenerateInputError, match=f"^factor {'BA'[factor]} is all zero$"):
            valley_check(*factors)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lead, index", [((3,), (1,)), ((2, 3), (1, 2))])
    def test_zero_update_inside_a_stack_rejected(self, lead, index):
        b, a = _factors(14, lead, 8, 2, 8)
        a[index] = 0.0
        at = ", ".join(map(str, index))
        with pytest.raises(DegenerateInputError, match=rf"^factor A\[{at}\] is all zero$"):
            valley_check(b, a)

    @pytest.mark.parametrize("factor", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_factor_rejected(self, factor, bad):
        factors = list(_factors(15, (2,), 8, 2, 8))
        factors[factor][1, 0, 1] = bad
        with pytest.raises(InvalidArgumentError, match=rf"^factor {'BA'[factor]}\[1\] has NaN or infinite entries$"):
            valley_check(*factors)

    @pytest.mark.parametrize(
        "b_shape, a_shape",
        [((8, 2), (3, 8)), ((2, 8, 2), (3, 2, 8)), ((8, 2), (1, 2, 8)), ((8,), (8,))],
    )
    def test_shape_mismatch_rejected(self, b_shape, a_shape):
        with pytest.raises(ShapeMismatchError):
            valley_check(np.ones(b_shape), np.ones(a_shape))

    def test_rank_validation(self):
        with pytest.raises(InvalidArgumentError, match="rank must be >= 1"):
            valley_check(np.ones((8, 0)), np.ones((0, 8)))

    @pytest.mark.parametrize("d_out, d_in", [(1, 8), (8, 1)])
    def test_update_without_a_row_column_cut_rejected(self, d_out, d_in):
        with pytest.raises(InvalidArgumentError, match="has no row-column cut"):
            valley_check(*_factors(16, (), d_out, 1, d_in))

    def test_empty_stack_rejected(self):
        with pytest.raises(ShapeMismatchError):
            valley_check(*_factors(17, (0,), 8, 2, 8))


class TestValleyCheckAgainstTheProduct:
    @pytest.mark.parametrize(
        "d_out, d_in, r",
        [(64, 64, 4), (8, 4, 8), (4, 8, 8), (12, 18, 5), (7, 13, 3), (30, 2, 1), (2, 2, 2)],
    )
    @pytest.mark.parametrize("base", [2.0, math.e])
    def test_every_cut_matches_the_profile_of_the_product(self, d_out, d_in, r, base):
        b, a = _factors(d_out * d_in + r, (3,), d_out, r, d_in)
        stacked = valley_check(b, a, base)
        n = len(prime_factorize(d_out))
        for s in range(3):
            expected = profile(b[s] @ a[s], base=base).entropies
            single = valley_check(b[s], a[s], base)
            np.testing.assert_allclose(stacked.entropies[s], expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(single.entropies, expected, rtol=0, atol=1e-12)
            assert single.s_rowcol == pytest.approx(expected[n - 1], abs=1e-12)
            interior = [expected[k - 1] for k in _interior_cuts(r, n)] or [math.nan]
            assert single.interior_max == pytest.approx(max(interior), abs=1e-12, nan_ok=True)
            assert single.interior_mean == pytest.approx(np.mean(interior), abs=1e-12, nan_ok=True)

    @pytest.mark.parametrize("d_out, d_in, r", [(64, 64, 4), (32, 48, 8), (12, 18, 5), (8, 8, 2), (64, 16, 32)])
    @pytest.mark.parametrize("base", [2.0, math.e])
    def test_each_cut_reduces_as_the_stacked_reference_bit_for_bit(self, monkeypatch, d_out, d_in, r, base):
        # a stack of factors at 2^0 and 2^+-700, with one rank-deficient update; each cut's spectra are recorded
        b, a = _factors(d_out * d_in + r, (4,), d_out, r, d_in)
        b[1], a[1], b[2] = b[1] * 2.0**700, a[1] * 2.0**-700, b[2] * 2.0**-700
        b[3][:, -1] = b[3][:, 0]
        spectra, floored = [], adapters._floored

        def recorded(sigmas, top):
            spectra.append(sigmas.copy())
            return floored(sigmas, top)

        monkeypatch.setattr(adapters, "_floored", recorded)
        entropies = valley_check(b, a, base).entropies
        expected = np.stack([valley_entropies(sigmas, base) for sigmas in spectra], axis=-1)
        assert entropies.shape == expected.shape and entropies.tobytes() == expected.tobytes()

    def test_unresolved_instance_takes_the_svd(self, monkeypatch):
        # B's two columns of instance 0 agree to 1e-9, so the 2 x 2 Gram at
        # the row-column cut cannot resolve the smaller Schmidt value
        rng = np.random.default_rng(4)
        col = rng.standard_normal((16, 1))
        b = np.stack([np.hstack([col, col + 1e-9 * rng.standard_normal((16, 1))]), rng.standard_normal((16, 2))])
        a = rng.standard_normal((2, 2, 16))
        svd, shapes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: shapes.append(m.shape) or svd(m, **kw))
        entropies = valley_check(b, a).entropies
        monkeypatch.undo()
        assert (16, 2) in shapes and all(len(shape) == 2 for shape in shapes)
        for s in range(2):
            np.testing.assert_allclose(entropies[s], profile(b[s] @ a[s]).entropies, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chi", [1, 2, 4])
    def test_mps_adapter_from_its_cores(self, chi):
        rng = np.random.default_rng(20 + chi)
        b = rng.standard_normal((64, 4))
        core1, core2 = rng.standard_normal((4, chi, 8)), rng.standard_normal((chi, 1, 8))
        check = valley_check(b, mps_adapter_materialize(core1, core2))
        expected = profile(b @ mps_adapter_materialize(core1, core2)).entropies
        np.testing.assert_allclose(check.entropies, expected, rtol=0, atol=1e-12)
        # cut 9 splits the columns at d1 | d2: the bond caps it at log2 chi
        assert check.entropies[9 - 1] <= math.log2(chi) + 1e-9
