import math

import numpy as np
import pytest

from aent import (
    AdapterSpec,
    DegenerateInputError,
    InvalidArgumentError,
    ShapeMismatchError,
    interior_cut_range,
    lora_update,
    mps_adapter_materialize,
    mps_adapter_update,
    param_count,
    valley_check,
)
from aent.adapters import _lora_cut_entropies
from aent.entropy import profile


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

    def test_mps_factorization_validation(self):
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("mps_adapt", 4, 6, r=2, d1=2, d2=2, chi=1)
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("mps_adapt", 4, 4, r=2, d1=2, d2=2, chi=0)
        with pytest.raises(InvalidArgumentError):
            AdapterSpec("mps_adapt", 4, 4, r=2, d1=None, d2=2, chi=1)


class TestLoraUpdate:
    def test_unit_vectors(self):
        b = np.zeros((4, 1))
        a = np.zeros((1, 5))
        b[0, 0] = 1.0
        a[0, 0] = 1.0
        delta = lora_update(b, a, alpha=1.0)
        expected = np.zeros((4, 5))
        expected[0, 0] = 1.0
        assert np.array_equal(delta, expected)

    def test_alpha_scaling_linear(self):
        rng = np.random.default_rng(0)
        b, a = rng.standard_normal((8, 3)), rng.standard_normal((3, 6))
        one = lora_update(b, a, alpha=0.5)
        two = lora_update(b, a, alpha=1.0)
        assert np.allclose(two, 2.0 * one, atol=1e-14)

    def test_matrix_rank_capped_at_r(self):
        rng = np.random.default_rng(1)
        delta = lora_update(
            rng.standard_normal((8, 3)), rng.standard_normal((3, 8)), alpha=2.0
        )
        s = np.linalg.svd(delta, compute_uv=False)
        assert np.all(s[3:] <= 1e-10 * s[0])

    def test_rank_is_read_from_b(self):
        # (alpha / r) B A with r = 3, the width of B
        rng = np.random.default_rng(3)
        b, a = rng.standard_normal((5, 3)), rng.standard_normal((3, 4))
        assert np.array_equal(lora_update(b, a, alpha=6.0), 2.0 * (b @ a))

    def test_shape_validation(self):
        with pytest.raises(InvalidArgumentError, match="rank must be >= 1"):
            lora_update(np.zeros((4, 0)), np.zeros((0, 4)), alpha=1.0)
        with pytest.raises(ShapeMismatchError):
            lora_update(np.zeros((4, 2)), np.zeros((1, 4)), alpha=1.0)
        with pytest.raises(ShapeMismatchError):
            lora_update(np.zeros((4, 1)), np.zeros(4), alpha=1.0)


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

    def test_update_composes_with_lora(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((6, 2))
        core1 = rng.standard_normal((2, 3, 2))
        core2 = rng.standard_normal((3, 1, 4))
        via_update = mps_adapter_update(b, core1, core2, alpha=4.0)
        via_lora = lora_update(b, mps_adapter_materialize(core1, core2), 4.0)
        assert np.array_equal(via_update, via_lora)

    def test_zero_cores_give_zero_update(self):
        delta = mps_adapter_update(
            np.ones((4, 2)), np.zeros((2, 2, 2)), np.zeros((2, 1, 2)), alpha=1.0
        )
        assert np.all(delta == 0.0)

    def test_rank_of_b_checked_against_the_cores(self):
        core2 = np.zeros((2, 1, 2))
        with pytest.raises(InvalidArgumentError, match="rank must be >= 1"):
            mps_adapter_update(np.zeros((4, 0)), np.zeros((0, 2, 2)), core2, alpha=1.0)
        with pytest.raises(ShapeMismatchError):
            mps_adapter_update(np.zeros((4, 3)), np.zeros((2, 2, 2)), core2, alpha=1.0)

    def test_core_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            mps_adapter_materialize(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)))
        with pytest.raises(ShapeMismatchError):
            mps_adapter_materialize(np.zeros((2, 2, 3)), np.zeros((3, 1, 4)))
        with pytest.raises(ShapeMismatchError):
            mps_adapter_materialize(np.zeros((2, 3)), np.zeros((3, 1, 4)))


class TestInteriorCutRange:
    def test_reference_values(self):
        assert interior_cut_range(4, 6) == (4, 5)
        assert interior_cut_range(1, 6) == (2, 3, 4, 5)
        assert interior_cut_range(4, 4) == ()

    def test_non_power_rank_rounds_up(self):
        assert interior_cut_range(3, 6) == (4, 5)


class TestValleyCheck:
    def test_rank_one_update_has_zero_rowcol_entropy(self):
        rng = np.random.default_rng(6)
        delta = lora_update(
            rng.standard_normal((64, 1)), rng.standard_normal((1, 64)), 1.0
        )
        check = valley_check(delta, r=1)
        assert check.s_rowcol == 0.0
        assert check.bound == 0.0
        assert check.passes
        assert check.interior_cuts == (2, 3, 4, 5)

    def test_full_rank_bound_is_vacuous(self):
        delta = np.random.default_rng(7).standard_normal((16, 16))
        check = valley_check(delta, r=16)
        assert check.bound == pytest.approx(4.0)
        assert check.passes

    def test_rank_violation_detected(self):
        delta = np.random.default_rng(8).standard_normal((16, 16))
        check = valley_check(delta, r=2)
        assert check.s_rowcol > check.bound
        assert not check.passes

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        delta = lora_update(
            rng.standard_normal((64, 4)), rng.standard_normal((4, 64)), 1.0
        )
        a = valley_check(delta, r=4)
        b = valley_check(1e6 * delta, r=4)
        assert a.s_rowcol == pytest.approx(b.s_rowcol, abs=1e-12)
        assert a.interior_max == pytest.approx(b.interior_max, abs=1e-12)

    def test_interior_empty_when_rank_fills_rows(self):
        delta = np.random.default_rng(12).standard_normal((16, 16))
        check = valley_check(delta, r=4)
        assert check.interior_cuts == ()
        assert math.isnan(check.interior_max)

    def test_nats_base(self):
        rng = np.random.default_rng(10)
        delta = lora_update(
            rng.standard_normal((16, 4)), rng.standard_normal((4, 16)), 1.0
        )
        check = valley_check(delta, r=4, base=math.e)
        assert check.bound == pytest.approx(math.log(4.0))

    def test_zero_update_rejected(self):
        with pytest.raises(DegenerateInputError):
            valley_check(np.zeros((8, 8)), r=2)

    def test_rank_validation(self):
        with pytest.raises(InvalidArgumentError):
            valley_check(np.eye(8), r=0)


class TestLoraCutEntropies:
    @pytest.mark.parametrize(
        "d_out, d_in, r",
        [(64, 64, 4), (8, 4, 8), (4, 8, 8), (12, 18, 5), (7, 13, 3), (30, 2, 1), (2, 2, 2)],
    )
    @pytest.mark.parametrize("base", [2.0, math.e])
    def test_every_cut_matches_the_profile_of_the_product(self, d_out, d_in, r, base):
        rng = np.random.default_rng(d_out * d_in + r)
        b = rng.standard_normal((3, d_out, r))
        a = rng.standard_normal((3, r, d_in))
        entropies = _lora_cut_entropies(b, a, base)
        for s in range(3):
            expected = profile(b[s] @ a[s], base=base).entropies
            np.testing.assert_allclose(entropies[s], expected, rtol=0, atol=1e-12)

    def test_unresolved_instance_takes_the_svd(self, monkeypatch):
        # B's two columns of instance 0 agree to 1e-9, so the 2 x 2 Gram at
        # the row-column cut cannot resolve the smaller Schmidt value
        rng = np.random.default_rng(4)
        col = rng.standard_normal((16, 1))
        b = np.stack([np.hstack([col, col + 1e-9 * rng.standard_normal((16, 1))]), rng.standard_normal((16, 2))])
        a = rng.standard_normal((2, 2, 16))
        svd, shapes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: shapes.append(m.shape) or svd(m, **kw))
        entropies = _lora_cut_entropies(b, a)
        monkeypatch.undo()
        assert (16, 2) in shapes and all(len(shape) == 2 for shape in shapes)
        for s in range(2):
            np.testing.assert_allclose(entropies[s], profile(b[s] @ a[s]).entropies, rtol=0, atol=1e-12)
