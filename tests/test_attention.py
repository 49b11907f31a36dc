import math

import numpy as np
import pytest

from aent import (
    AttentionScene,
    InvalidArgumentError,
    ShapeMismatchError,
    apply_rope,
    attention_matrix,
    mask_ablation,
    outlier_bulk_split,
    output_operator,
)


class TestAttentionMatrix:
    def test_zero_logits_give_uniform_rows(self):
        a = attention_matrix(np.zeros((6, 4)), np.zeros((6, 4)))
        assert np.allclose(a, 1.0 / 6.0, atol=1e-15)

    def test_zero_logits_causal_prefix_uniform(self):
        t = 5
        a = attention_matrix(np.zeros((t, 4)), np.zeros((t, 4)), causal=True)
        for i in range(t):
            assert np.allclose(a[i, : i + 1], 1.0 / (i + 1), atol=1e-15)
            assert np.all(a[i, i + 1 :] == 0.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        q, k = rng.standard_normal((2, 16, 8))
        for causal in (False, True):
            a = attention_matrix(q, k, causal=causal)
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(a >= 0.0)

    def test_causal_support_exact(self):
        rng = np.random.default_rng(4)
        q, k = rng.standard_normal((2, 12, 6))
        a = attention_matrix(q, k, causal=True)
        assert np.all(a[np.triu_indices(12, k=1)] == 0.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            attention_matrix(np.zeros((4, 8)), np.zeros((5, 8)))
        with pytest.raises(ShapeMismatchError):
            attention_matrix(np.zeros(8), np.zeros(8))


class TestRope:
    def test_position_zero_unchanged(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 8))
        assert np.allclose(apply_rope(m)[0], m[0], atol=1e-15)

    def test_row_norms_preserved(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((32, 10))
        out = apply_rope(m)
        assert np.allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(m, axis=1), atol=1e-9
        )

    def test_inner_products_depend_on_position_difference(self):
        # with every query row equal and every key row equal, the rotated
        # Gram matrix must be constant along diagonals
        t, d = 8, 4
        u = np.tile(np.array([0.3, -1.2, 0.7, 0.5]), (t, 1))
        v = np.tile(np.array([1.1, 0.4, -0.2, 0.9]), (t, 1))
        gram = apply_rope(u) @ apply_rope(v).T
        for offset in range(-(t - 1), t):
            diag = np.diagonal(gram, offset=offset)
            assert np.allclose(diag, diag[0], atol=1e-9)

    def test_dimension_validation(self):
        with pytest.raises(InvalidArgumentError):
            apply_rope(np.zeros((4, 5)))
        with pytest.raises(InvalidArgumentError):
            apply_rope(np.zeros(8))

    @pytest.mark.parametrize("theta_base", [0.0, -5.0, math.nan, math.inf])
    def test_theta_base_validated(self, theta_base):
        with pytest.raises(InvalidArgumentError, match="RoPE base"):
            apply_rope(np.ones((4, 8)), theta_base)


class TestSplitAndOutput:
    def test_split_reassembles_and_is_orthogonal(self):
        rng = np.random.default_rng(7)
        a = attention_matrix(rng.standard_normal((8, 4)), rng.standard_normal((8, 4)))
        mean_field, bulk = outlier_bulk_split(a)
        assert np.allclose(mean_field + bulk, a, atol=1e-15)
        assert np.allclose(mean_field, 1.0 / 8.0, atol=1e-15)
        assert np.allclose(bulk.sum(axis=1), 0.0, atol=1e-12)
        assert abs(float(np.vdot(mean_field, bulk))) <= 1e-12
        assert float(np.vdot(mean_field, mean_field)) == pytest.approx(1.0, abs=1e-12)

    def test_output_operator_psd_and_symmetric(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 10))
        sigma = output_operator(x)
        assert np.array_equal(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10

    def test_output_operator_orthonormal_rows_give_identity(self):
        x = np.linalg.qr(np.random.default_rng(9).standard_normal((16, 4)))[0].T
        assert np.allclose(output_operator(x), np.eye(4), atol=1e-10)

    def test_output_operator_validation(self):
        with pytest.raises(InvalidArgumentError):
            output_operator(np.zeros(4))


class TestAttentionScene:
    def test_defaults_and_shapes(self):
        scene = AttentionScene.build(16, seed=3)
        assert (scene.d, scene.d_qk, scene.d_v) == (16, 16, 16)
        assert scene.v_std == pytest.approx(1.0 / 4.0)
        assert scene.q.shape == (16, 16)
        assert scene.a.shape == (16, 16)
        assert scene.x.shape == (16, 16)

    def test_invariants(self):
        scene = AttentionScene.build(64, d=64, d_qk=128, d_v=32, seed=3, qk_std=0.5)
        assert np.allclose(scene.a.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(scene.a, attention_matrix(scene.q, scene.k))
        # Q, K and V are drawn in that order from the scene's generator
        rng = np.random.default_rng(3)
        assert np.array_equal(scene.q, 0.5 * rng.standard_normal((64, 128)))
        assert np.array_equal(scene.k, 0.5 * rng.standard_normal((64, 128)))
        v = scene.v_std * rng.standard_normal((64, 32))
        assert np.allclose(scene.x, scene.a @ v, atol=1e-12)
        # 8192 entries each: the sample std is within 5 percent of qk_std
        for m in (scene.q, scene.k):
            assert m.shape == (64, 128)
            assert np.std(m) == pytest.approx(0.5, rel=0.05)

    @pytest.mark.parametrize("qk_std", [math.nan, math.inf, -0.1])
    def test_qk_std_validated(self, qk_std):
        with pytest.raises(InvalidArgumentError):
            AttentionScene.build(8, seed=0, qk_std=qk_std)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("qk_std, rope", [(1e300, False), (1e300, True), (1e308, True)])
    def test_overflow_rejected_without_warnings(self, qk_std, rope):
        # 1e300 overflows only the logits; 1e308 already the draw
        with pytest.raises(InvalidArgumentError, match="overflow"):
            AttentionScene.build(8, seed=0, qk_std=qk_std, rope=rope)

    def test_seed_reproducible(self):
        a = AttentionScene.build(8, seed=11)
        b = AttentionScene.build(8, seed=11)
        c = AttentionScene.build(8, seed=12)
        assert np.array_equal(a.a, b.a)
        assert not np.array_equal(a.a, c.a)

    def test_causal_scene_support(self):
        scene = AttentionScene.build(12, seed=2, causal=True)
        assert np.all(scene.a[np.triu_indices(12, k=1)] == 0.0)

    def test_rope_scene_still_stochastic(self):
        scene = AttentionScene.build(8, seed=4, rope=True)
        assert np.allclose(scene.a.sum(axis=1), 1.0, atol=1e-9)
        assert scene.rope and scene.rope_theta == 10000.0

    def test_output_operator_tracks_attention_gram(self):
        # with d_v = 16 T the value map is near-isometric, so X X^T stays
        # within 20 percent of A A^T in Frobenius norm
        t = 64
        for seed in range(5):
            scene = AttentionScene.build(t, d=16 * t, seed=seed)
            sigma = output_operator(scene.x)
            ref = scene.a @ scene.a.T
            ratio = np.linalg.norm(sigma - ref) / np.linalg.norm(ref)
            assert ratio <= 0.2


class TestMaskAblation:
    def test_zero_std_scene_analytic(self):
        scene = AttentionScene.build(6, seed=0, qk_std=0.0)
        ab = mask_ablation(scene)
        assert np.allclose(ab.a_unmasked, 1.0 / 6.0, atol=1e-15)
        for i in range(6):
            assert np.allclose(ab.a_masked[i, : i + 1], 1.0 / (i + 1), atol=1e-15)
        assert np.all(ab.a_masked[np.triu_indices(6, k=1)] == 0.0)

    def test_masked_branch_matches_causal_scene(self):
        scene = AttentionScene.build(8, seed=5, causal=True)
        ab = mask_ablation(scene)
        assert np.allclose(ab.a_masked, scene.a, atol=1e-12)
        assert not np.allclose(ab.a_unmasked, scene.a, atol=1e-6)

    def test_profiles_present_with_base(self):
        scene = AttentionScene.build(8, seed=6)
        ab = mask_ablation(scene, base=math.e)
        assert ab.profile_masked.log_base == math.e
        assert len(ab.profile_masked.records) == len(ab.profile_unmasked.records)
