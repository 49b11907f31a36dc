import functools
import math

import numpy as np
import pytest

import aent.attention
from aent import (
    AttentionScene,
    InvalidArgumentError,
    mask_ablation,
    output_operator,
)
from aent.attention import _rotated, _seeded_logits, _softmax_rows
from aent.experiments import _cardy_sample
from aent.rmt import _seeded_rng
from attention_reference import complex_rotation, whole_attention, whole_logits


class TestSoftmaxRows:
    def test_zero_logits_give_uniform_rows(self):
        a = _softmax_rows(np.zeros((6, 6)), causal=False)
        assert np.allclose(a, 1.0 / 6.0, atol=1e-15)

    def test_zero_logits_causal_prefix_uniform(self):
        t = 5
        a = _softmax_rows(np.zeros((t, t)), causal=True)
        for i in range(t):
            assert np.allclose(a[i, : i + 1], 1.0 / (i + 1), atol=1e-15)
            assert np.all(a[i, i + 1 :] == 0.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((16, 16))
        for causal in (False, True):
            a = _softmax_rows(logits.copy(), causal=causal)
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(a >= 0.0)

    def test_causal_support_exact(self):
        rng = np.random.default_rng(4)
        a = _softmax_rows(rng.standard_normal((12, 12)), causal=True)
        assert np.all(a[np.triu_indices(12, k=1)] == 0.0)


class TestSeededLogits:
    @pytest.mark.parametrize("t", [8, 64, 96, 100, 256, 2048])
    @pytest.mark.parametrize("rope", [False, True])
    def test_blocked_logits_are_the_whole_product_bit_for_bit(self, t, rope):
        # T = 8 and 100 are not multiples of 32 and take K whole
        theta = 10000.0 if rope else None
        logits = _seeded_logits(_seeded_rng([5, t]), t, 0.65, theta)
        assert np.array_equal(logits, whole_logits(t, [5, t], 0.65, theta))


class TestRotated:
    def test_position_zero_unchanged(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 8))
        assert np.allclose(_rotated(m, 0, 10000.0)[0], m[0], atol=1e-15)

    def test_row_norms_preserved(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((32, 10))
        out = _rotated(m, 0, 10000.0)
        assert np.allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(m, axis=1), atol=1e-9
        )

    def test_inner_products_depend_on_position_difference(self):
        # with every query row equal and every key row equal, the rotated
        # Gram matrix must be constant along diagonals
        t, d = 8, 4
        u = np.tile(np.array([0.3, -1.2, 0.7, 0.5]), (t, 1))
        v = np.tile(np.array([1.1, 0.4, -0.2, 0.9]), (t, 1))
        gram = _rotated(u, 0, 10000.0) @ _rotated(v, 0, 10000.0).T
        for offset in range(-(t - 1), t):
            diag = np.diagonal(gram, offset=offset)
            assert np.allclose(diag, diag[0], atol=1e-9)

    @pytest.mark.parametrize("lo, theta_base", [(0, 10000.0), (37, 10000.0), (5, 2.5), (1000, 500000.0)])
    def test_matches_the_complex_rotation(self, lo, theta_base):
        m = np.random.default_rng(lo).standard_normal((48, 16))
        assert np.allclose(_rotated(m, lo, theta_base), complex_rotation(m, lo, theta_base), rtol=0.0, atol=1e-12)

    def test_odd_width_refused(self):
        with pytest.raises(InvalidArgumentError, match="^rotary embedding needs an even dim, got 5$"):
            _rotated(np.zeros((4, 5)), 0, 10000.0)


class TestSplitAndOutput:
    def test_output_operator_psd_and_symmetric(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 10))
        sigma = output_operator(x)
        assert np.array_equal(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10

    def test_output_operator_orthonormal_rows_give_identity(self):
        x = np.linalg.qr(np.random.default_rng(9).standard_normal((16, 4)))[0].T
        assert np.allclose(output_operator(x), np.eye(4), atol=1e-10)

    @pytest.mark.parametrize(
        "layout",
        [lambda m: np.asfortranarray(m), lambda m: m[::2, ::3], lambda m: m.T],
        ids=["fortran", "strided", "transposed"],
    )
    def test_output_operator_is_exactly_symmetric_for_any_layout(self, layout):
        # the averaged form (S + S^T) / 2 of S = X X^T, for X copied to C
        # order, is the product itself; on X as given it differs by rounding
        for t, width in ((1, 1), (7, 5), (64, 48), (100, 300)):
            x = layout(np.random.default_rng(t).standard_normal((2 * t, 3 * width)))
            sigma = output_operator(x)
            assert np.array_equal(sigma, sigma.T)
            c = np.ascontiguousarray(x)
            product = c @ c.T
            assert np.array_equal(sigma, (product + product.T) / 2.0)
            product = x @ x.T
            assert np.allclose(sigma, (product + product.T) / 2.0, rtol=1e-14, atol=1e-12)

    def test_output_operator_validation(self):
        with pytest.raises(InvalidArgumentError):
            output_operator(np.zeros(4))


class TestOneDraw:
    @pytest.mark.parametrize("t", [8, 64, 96, 100, 256, 1000])
    def test_cardy_sample_is_the_scene_matrix(self, t):
        for qk_std, seed in ((0.65, [3, t]), (0.5, 7)):
            assert np.array_equal(_cardy_sample(t, qk_std, seed), AttentionScene.build(t, seed, qk_std=qk_std).a)

    @pytest.mark.parametrize("t", [8, 64, 100, 256])
    @pytest.mark.parametrize("rope", [False, True])
    @pytest.mark.parametrize("causal", [False, True])
    def test_scene_is_the_whole_draw_bit_for_bit(self, t, rope, causal):
        # K streamed in blocks, each rotated at its own positions, is K drawn whole and then rotated
        scene = AttentionScene.build(t, [2, t], causal=causal, rope=rope)
        theta = 10000.0 if rope else None
        rng = _seeded_rng([2, t])
        rng.standard_normal((2, t, t))  # Q and K
        v = (1.0 / math.sqrt(t)) * rng.standard_normal((t, t))
        a = whole_attention(t, [2, t], rope_theta=theta, causal=causal)
        assert np.array_equal(scene.a, a)
        assert np.array_equal(scene.x, a @ v)
        ab = mask_ablation(scene, chi_max=4)
        assert np.array_equal(ab.a_masked, whole_attention(t, [2, t], rope_theta=theta, causal=True))
        assert np.array_equal(ab.a_unmasked, whole_attention(t, [2, t], rope_theta=theta, causal=False))


class TestAttentionScene:
    def test_defaults_and_shapes(self):
        # Q, K and V are (T, T), and V's entries have std 1/sqrt(T)
        scene = AttentionScene.build(16, seed=3)
        assert scene.logits.shape == scene.a.shape == scene.x.shape == (16, 16)
        rng = np.random.default_rng(3)
        rng.standard_normal((2, 16, 16))  # Q and K
        assert np.allclose(scene.x, scene.a @ (rng.standard_normal((16, 16)) / 4.0), atol=1e-12)

    def test_invariants(self):
        scene = AttentionScene.build(64, seed=3, qk_std=0.5)
        assert np.allclose(scene.a.sum(axis=1), 1.0, atol=1e-9)
        assert scene.causal is False
        # Q, K and V are drawn in that order from the scene's generator
        rng = np.random.default_rng(3)
        q, k = 0.5 * rng.standard_normal((2, 64, 64))
        assert np.array_equal(scene.logits, q @ k.T / 8.0)
        assert np.array_equal(scene.a, _softmax_rows(q @ k.T / 8.0, causal=False))
        # V has entries of std 1/sqrt(T) = 1/8
        v = rng.standard_normal((64, 64)) / 8.0
        assert np.allclose(scene.x, scene.a @ v, atol=1e-12)
        # a logit is a sum of T products of two N(0, qk_std^2) entries over
        # sqrt(T), so the 4096 logits have a sample std within 5 percent of qk_std^2
        assert np.std(scene.logits) == pytest.approx(0.5**2, rel=0.05)

    def test_empty_context_refused(self):
        with pytest.raises(InvalidArgumentError, match="T must be >= 1, got 0"):
            AttentionScene.build(0)

    @pytest.mark.parametrize("qk_std", [math.nan, math.inf, -0.1])
    def test_qk_std_validated(self, qk_std):
        with pytest.raises(InvalidArgumentError):
            AttentionScene.build(8, seed=0, qk_std=qk_std)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "qk_std, draw",
        [
            pytest.param(1e300, functools.partial(AttentionScene.build, 8, seed=0, rope=False), id="1e+300-False"),
            pytest.param(1e300, functools.partial(AttentionScene.build, 8, seed=0, rope=True), id="1e+300-True"),
            pytest.param(1e308, functools.partial(AttentionScene.build, 8, seed=0, rope=True), id="1e+308-True"),
            # the cardy fit's streamed sample, K in row blocks (T = 64 takes two)
            pytest.param(1e300, lambda qk_std: _cardy_sample(64, qk_std, [0, 64]), id="1e+300-cardy"),
            pytest.param(1e308, lambda qk_std: _cardy_sample(64, qk_std, [0, 64]), id="1e+308-cardy"),
        ],
    )
    def test_overflow_rejected_without_warnings(self, qk_std, draw):
        # 1e300 overflows only the logits; 1e308 already the draw
        with pytest.raises(InvalidArgumentError, match="overflow"):
            draw(qk_std=qk_std)

    def test_seed_reproducible(self):
        a = AttentionScene.build(8, seed=11)
        b = AttentionScene.build(8, seed=11)
        c = AttentionScene.build(8, seed=12)
        assert np.array_equal(a.a, b.a)
        assert not np.array_equal(a.a, c.a)

    def test_causal_scene_support(self):
        scene = AttentionScene.build(12, seed=2, causal=True)
        assert scene.causal is True
        assert np.all(scene.a[np.triu_indices(12, k=1)] == 0.0)

    def test_rope_scene_still_stochastic(self):
        scene = AttentionScene.build(8, seed=4, rope=True)
        assert np.allclose(scene.a.sum(axis=1), 1.0, atol=1e-9)
        # the default RoPE base is 10000, applied to the default-std draw
        rng = np.random.default_rng(4)
        q = _rotated(0.65 * rng.standard_normal((8, 8)), 0, 10000.0)
        k = _rotated(0.65 * rng.standard_normal((8, 8)), 0, 10000.0)
        assert np.array_equal(scene.logits, q @ k.T / math.sqrt(8))

    @pytest.mark.parametrize("theta_base", [0.0, -5.0, math.nan, math.inf])
    def test_theta_base_validated(self, theta_base):
        with pytest.raises(InvalidArgumentError, match="RoPE base"):
            AttentionScene.build(8, rope=True, rope_theta=theta_base)

    def test_odd_rope_width_refused(self):
        # the head width is T, so RoPE needs an even T
        with pytest.raises(InvalidArgumentError, match="^rotary embedding needs an even dim, got 7$"):
            AttentionScene.build(7, rope=True)

    def test_output_operator_tracks_attention_gram(self):
        # with a 16 T-wide V of entry std 1/sqrt(16 T) the value map is
        # near-isometric, so X X^T = A V V^T A^T stays within 20 percent of
        # A A^T in Frobenius norm; V is drawn after the scene's Q and K
        t = 64
        for seed in range(5):
            scene = AttentionScene.build(t, seed=seed)
            rng = np.random.default_rng(seed)
            rng.standard_normal((2, t, t))  # Q and K
            v = (1.0 / math.sqrt(16 * t)) * rng.standard_normal((t, 16 * t))
            sigma = output_operator(scene.a @ v)
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

    @pytest.mark.parametrize("causal", [False, True])
    def test_scene_is_not_written_and_the_two_matrices_are_distinct(self, causal):
        scene = AttentionScene.build(16, seed=7, causal=causal)
        logits, a = scene.logits.copy(), scene.a.copy()
        ab = mask_ablation(scene)
        assert np.array_equal(scene.logits, logits) and np.array_equal(scene.a, a)
        assert not np.shares_memory(ab.a_masked, ab.a_unmasked)
        assert not np.array_equal(ab.a_masked, ab.a_unmasked)
        # the branch that matches the scene's mask is its matrix, bit for bit
        assert np.array_equal(ab.a_masked if causal else ab.a_unmasked, a)

    @pytest.mark.parametrize("causal", [False, True])
    def test_one_softmax_and_the_scene_matrix_reused(self, monkeypatch, causal):
        scene = AttentionScene.build(16, seed=9, causal=causal)
        calls = []
        softmax = aent.attention._softmax_rows

        def counted(logits, causal):
            calls.append(causal)
            return softmax(logits, causal)

        monkeypatch.setattr(aent.attention, "_softmax_rows", counted)
        ab = mask_ablation(scene)
        # only the branch without the scene's mask is formed
        assert calls == [not causal]
        assert (ab.a_masked if causal else ab.a_unmasked) is scene.a

    @pytest.mark.parametrize("rope", [False, True])
    def test_no_second_product_or_rotation(self, monkeypatch, rope):
        scene = AttentionScene.build(64, seed=9, rope=rope)
        expected = whole_attention(64, 9, rope_theta=10000.0 if rope else None, causal=True)

        def refused(*args, **kwargs):
            raise AssertionError("mask_ablation formed a second Q K^T or rotation")

        for name in ("_seeded_logits", "_qk_rows", "_rotated"):
            monkeypatch.setattr(aent.attention, name, refused)
        assert np.array_equal(mask_ablation(scene).a_masked, expected)

    def test_profiles_present_with_base(self):
        scene = AttentionScene.build(8, seed=6)
        ab = mask_ablation(scene, base=math.e)
        assert len(ab.profile_masked.records) == len(ab.profile_unmasked.records)
        # the base reaches the profiles: nats are bits times ln 2
        bits = mask_ablation(scene)
        for nats, ref in ((ab.profile_masked, bits.profile_masked), (ab.profile_unmasked, bits.profile_unmasked)):
            assert nats.entropies == pytest.approx(ref.entropies * math.log(2.0), abs=1e-12)
