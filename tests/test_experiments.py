import functools
import hashlib
import inspect
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import aent.experiments
from aent import (
    REFERENCE_ADAPTER_SPECS,
    AttentionScene,
    DegenerateInputError,
    ExperimentReport,
    InvalidArgumentError,
    MarchenkoPastur,
    adapter_count_rows,
    attn_experiment,
    cardy_experiment,
    collapse_experiment,
    collapse_spectrum,
    mp_compare,
    page_bench,
    page_entropy,
    sample_gaussian_matrix,
    ks_distance,
    valley_experiment,
)
from aent.attention import _qk_rows, _softmax_rows
from aent.cli import _fmt
from aent.entropy import profile
from aent.rmt import _seeded_rng, _stochastic_spectrum
from aent.tensorize import prime_factorize


class TestExperimentReport:
    def test_json_sorted_with_the_report_fields(self):
        report = ExperimentReport(
            name="demo",
            config={"b": 2, "a": 1},
            tables={"rows": [{"x": 1.5}]},
            wall_clock_seconds=0.25,
        )
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "name",
            "config",
            "tables",
            "tool_version",
            "wall_clock_seconds",
        }
        assert report.to_json().index('"a"') < report.to_json().index('"b"')

    def test_wall_clock_excluded_from_equality(self):
        a = ExperimentReport(name="x", config={}, tables={}, wall_clock_seconds=1.0)
        b = ExperimentReport(name="x", config={}, tables={}, wall_clock_seconds=1.0)
        assert a == b

    def test_positional_arguments_are_echoed_by_name(self):
        report = attn_experiment(4, 1, 1, True, True)
        assert report.config == {
            "t": 4,
            "heads": 1,
            "seeds": 1,
            "causal": True,
            "rope": True,
            "rope_theta": 10000.0,
            "qk_std": 0.65,
            "chi_max": None,
            "base": 2.0,
            "seed": 0,
        }
        assert report.wall_clock_seconds > 0.0
        assert collapse_experiment(2, 3).config == {"log2_min": 2, "log2_max": 3}

    def test_every_experiment_but_mp_compare_echoes_its_signature(self):
        # mp_compare's config describes its input (source, resolved cut, c)
        # rather than echoing its matrix argument
        plain = [
            name
            for name, fn in inspect.getmembers(aent.experiments, inspect.isfunction)
            if fn.__module__ == "aent.experiments"
            and not name.startswith("_")
            and inspect.signature(fn, eval_str=True).return_annotation is ExperimentReport
            and not hasattr(fn, "__wrapped__")
        ]
        assert plain == ["mp_compare"]


class TestPageBench:
    def test_small_run_structure(self):
        report = page_bench(16, seeds=3)
        assert report.name == "page-bench"
        assert report.config["size"] == 16
        cuts = report.tables["cuts"]
        assert len(cuts) == 7
        summary = report.tables["summary"][0]
        assert summary["cuts"] == 7
        assert summary["max_abs_deviation_min4"] >= 0.0
        for row in cuts:
            d_lo = min(row["d_left"], row["d_right"])
            assert row["min_dim"] == d_lo
            assert row["page_entropy"] == pytest.approx(
                page_entropy(d_lo, max(row["d_left"], row["d_right"]))
            )
            assert row["mean_entropy"] <= math.log2(d_lo) + 1e-9

    def test_deterministic(self):
        a = page_bench(8, seeds=2, seed=5)
        b = page_bench(8, seeds=2, seed=5)
        assert a.tables == b.tables
        c = page_bench(8, seeds=2, seed=6)
        assert a.tables != c.tables

    def test_seed_validation(self):
        with pytest.raises(InvalidArgumentError):
            page_bench(8, seeds=0)

    def test_a_size_without_cuts_rejected(self):
        with pytest.raises(InvalidArgumentError, match="size must be >= 2"):
            page_bench(1, seeds=1)


class TestCardyExperiment:
    def test_zero_std_degenerates_to_flat_fit(self):
        report = cardy_experiment(
            t_grid=(4, 8, 16, 32), seeds=1, d_mult=1, qk_std=0.0
        )
        fit = report.tables["fit"][0]
        assert fit["slope"] == pytest.approx(0.0, abs=1e-12)
        assert fit["sigma2"] == 0.0
        assert fit["predicted_charge"] == 0.0
        assert fit["relative_slope_deviation"] == pytest.approx(0.0, abs=1e-12)
        assert all(p["entropy_nats"] == 0.0 for p in report.tables["points"])

    def test_small_calibrated_run(self):
        report = cardy_experiment(t_grid=(16, 32, 64, 128), seeds=2)
        fit = report.tables["fit"][0]
        assert fit["sigma2"] > 0.0
        assert 0.0 < fit["predicted_charge"] < 1.0
        assert fit["slope"] > 0.0
        assert math.isfinite(fit["relative_slope_deviation"])
        assert len(report.tables["points"]) == 8
        assert "d_qk" not in report.config
        assert report.config["qk_std"] == pytest.approx(0.65)

    def test_deterministic(self):
        kwargs = dict(t_grid=(8, 16, 32, 64), seeds=1, d_mult=2, seed=3)
        assert cardy_experiment(**kwargs).tables == cardy_experiment(**kwargs).tables

    def test_d_mult_does_not_change_the_draw(self):
        kwargs = dict(t_grid=(8, 16, 32, 64), seeds=2, seed=4)
        narrow = cardy_experiment(d_mult=1, **kwargs)
        wide = cardy_experiment(d_mult=16, **kwargs)
        assert narrow.tables == wide.tables
        assert (narrow.config["d_mult"], wide.config["d_mult"]) == (1, 16)

    def test_one_attention_matrix_alive_at_a_time(self, monkeypatch):
        alive, drawn = set(), []
        draw = aent.experiments._cardy_sample

        def tracked(t, qk_std, seed):
            assert not alive, "an earlier attention matrix is still referenced"
            a = draw(t, qk_std, seed)
            alive.add(id(a))
            weakref.finalize(a, alive.discard, id(a))
            drawn.append(a.shape[0])
            return a

        monkeypatch.setattr(aent.experiments, "_cardy_sample", tracked)
        report = cardy_experiment(t_grid=(8, 16, 32, 64), seeds=2)
        assert drawn == [8, 8, 16, 16, 32, 32, 64, 64]
        assert [p["t"] for p in report.tables["points"]] == [8, 8, 16, 16, 32, 32, 64, 64]

    def test_a_sample_peaks_below_two_and_a_half_t_by_t_arrays(self):
        # the draw holds the logits, Q and a quarter of K, 2.25 T x T arrays
        # at T = 256; the spectrum writes B over A and holds it and the Gram
        t = 256
        sample = functools.partial(aent.experiments._cardy_sample, t, 0.65, [0, t])
        aent.experiments._cardy_sample(8, 0.65, [0, 8])  # the first draw imports modules
        for run in (sample, lambda: _stochastic_spectrum(sample)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * t * t * 8

    @pytest.mark.parametrize("t", [8, 48, 64, 96, 100, 128, 1024, 2048])
    def test_a_streamed_sample_is_the_whole_product_bit_for_bit(self, t):
        # T = 8, 48 and 100 are not multiples of 32 and take K whole
        rng = _seeded_rng([3, t])
        q = _qk_rows(rng, t, t, 0.65)
        k = _qk_rows(rng, t, t, 0.65)
        expected = _softmax_rows(q @ k.T / math.sqrt(t), causal=False)
        assert np.array_equal(aent.experiments._cardy_sample(t, 0.65, [3, t]), expected)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            cardy_experiment(t_grid=(8, 16, 32), seeds=1)
        with pytest.raises(InvalidArgumentError):
            cardy_experiment(t_grid=(8, 16, 32, 64), seeds=0)
        with pytest.raises(InvalidArgumentError):
            cardy_experiment(t_grid=(8, 16, 32, 64), d_mult=0)


class TestValleyExperiment:
    def test_rank_grid_summary(self):
        report = valley_experiment(d_out=16, d_in=16, ranks=(1, 4, 16), seeds=3)
        summary = {row["rank"]: row for row in report.tables["summary"]}
        assert summary[1]["mean_rowcol"] == 0.0
        assert summary[1]["pass_rate"] == 1.0
        assert summary[16]["pass_rate"] == 1.0
        assert summary[4]["bound"] == pytest.approx(2.0)
        assert math.isnan(summary[4]["mean_interior"])
        assert len(report.tables["instances"]) == 9

    def test_deterministic(self):
        kwargs = dict(d_out=16, d_in=16, ranks=(1, 2), seeds=2, seed=1)
        a = valley_experiment(**kwargs)
        b = valley_experiment(**kwargs)
        assert a.tables == b.tables

    def test_seed_validation(self):
        with pytest.raises(InvalidArgumentError):
            valley_experiment(seeds=0)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_validated_before_any_draw(self, rank):
        with pytest.raises(InvalidArgumentError, match="rank must be >= 1"):
            valley_experiment(d_out=8, d_in=8, ranks=(2, rank), seeds=1)

    @pytest.mark.parametrize("d_out, d_in", [(1, 8), (8, 1), (0, 8), (8, 0)])
    def test_dims_without_a_row_column_cut_rejected_before_any_draw(self, d_out, d_in):
        # seed -1 would fail the first draw, so the dims are checked before it
        with pytest.raises(InvalidArgumentError, match=f"a {d_out}x{d_in} update has no row-column cut"):
            valley_experiment(d_out=d_out, d_in=d_in, ranks=(1,), seeds=1, seed=-1)

    @pytest.mark.parametrize("base", [1.0, 0.0, -2.0, math.inf])
    def test_base_validated_before_any_draw(self, base):
        with pytest.raises(InvalidArgumentError, match="log base must be"):
            valley_experiment(d_out=8, d_in=8, ranks=(1,), seeds=1, base=base, seed=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d_out=64, d_in=64, seeds=3),
            dict(d_out=8, d_in=4, ranks=(1, 2, 8), seeds=4),  # r > d_in
            dict(d_out=12, d_in=18, ranks=(1, 2, 3, 5), seeds=4),  # prime sites
            dict(d_out=16, d_in=16, ranks=(1, 2, 4), seeds=4, base=math.e),
        ],
        ids=["64x64", "8x4-r-above-d_in", "12x18", "16x16-nats"],
    )
    def test_matches_the_profile_of_the_formed_update(self, kwargs):
        report = valley_experiment(seed=5, **kwargs)
        base = kwargs.get("base", 2.0)
        n = len(prime_factorize(kwargs["d_out"]))
        for row in report.tables["instances"]:
            r = row["rank"]
            rng = _seeded_rng([row["seed"], r])
            b = rng.standard_normal((kwargs["d_out"], r))
            a = rng.standard_normal((r, kwargs["d_in"]))
            entropies = profile(b @ a, base=base).entropies
            bound = math.log(r) / math.log(base)
            interior = [entropies[k - 1] for k in range(math.ceil(math.log2(r)) + 2, n)] or [math.nan]
            assert row["bound"] == pytest.approx(bound, abs=1e-15)
            assert row["s_rowcol"] == pytest.approx(entropies[n - 1], abs=1e-12)
            assert row["interior_max"] == pytest.approx(max(interior), abs=1e-12, nan_ok=True)
            assert row["interior_mean"] == pytest.approx(np.mean(interior), abs=1e-12, nan_ok=True)
            assert row["passes"] == (entropies[n - 1] <= bound + 1e-9)

    def test_paper_width_update_is_never_formed(self):
        # the dense 2048 x 2048 update alone would be 32 MB
        valley_experiment(d_out=8, d_in=8, ranks=(1,), seeds=1)  # the first call imports modules
        tracemalloc.start()
        try:
            report = valley_experiment(d_out=2048, d_in=2048, ranks=(16,), seeds=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert report.tables["summary"][0]["pass_rate"] == 1.0


class TestMpCompare:
    def test_gaussian_square_matches_mp(self):
        matrix = sample_gaussian_matrix(64, 64, seed=0)
        report = mp_compare(matrix, source="gaussian-64x64")
        summary = report.tables["summary"][0]
        assert summary["cut"] == 6
        assert (summary["d_min"], summary["d_max"]) == (64, 64)
        assert summary["c"] == 1.0
        assert summary["ks_distance"] <= 0.3
        assert summary["values"] == 64
        counts = [row["count"] for row in report.tables["histogram"]]
        assert 0 < sum(counts) <= 64

    def test_rectangular_aspect_ratio(self):
        matrix = sample_gaussian_matrix(8, 32, seed=1)
        report = mp_compare(matrix)
        summary = report.tables["summary"][0]
        assert summary["cut"] == 3
        assert summary["c"] == 0.25

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_extreme_scales_match_unit_scale(self, scale):
        # squared values of 1e160 overflow and of 1e-170 underflow float64
        matrix = sample_gaussian_matrix(64, 48, seed=3)
        unit, scaled = mp_compare(matrix), mp_compare(matrix * scale)
        ks = [r.tables["summary"][0]["ks_distance"] for r in (unit, scaled)]
        assert abs(ks[1] - ks[0]) <= 1e-12
        counts = [[row["count"] for row in r.tables["histogram"]] for r in (unit, scaled)]
        assert counts[1] == counts[0]
        assert sum(counts[0]) == 48

    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_rank_deficient_cut_matches_the_svd_spectrum(self, noise):
        # on a square cut the MP CDF grows like sqrt(x) from 0, so the KS
        # distance reads noise eigenvalues far below what a Gram spectrum resolves
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((256, 4)) @ rng.standard_normal((4, 256))
        matrix += noise * rng.standard_normal((256, 256))
        ks = mp_compare(matrix).tables["summary"][0]["ks_distance"]
        sigmas = np.linalg.svd(matrix, compute_uv=False)
        reference = ks_distance(np.sort(256 * sigmas**2 / np.dot(sigmas, sigmas)), MarchenkoPastur(1.0))
        assert abs(ks - reference) <= 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError, match="all zero"):
            mp_compare(np.zeros((8, 6)))

    def test_validation(self):
        matrix = sample_gaussian_matrix(8, 8, seed=2)
        with pytest.raises(InvalidArgumentError):
            mp_compare(matrix, cut=0)
        with pytest.raises(InvalidArgumentError):
            mp_compare(matrix, bins=2)
        with pytest.raises(InvalidArgumentError, match="a 1x1 matrix has no cuts"):
            mp_compare(np.ones((1, 1)))
        with pytest.raises(InvalidArgumentError, match="a 1x2 matrix has no cuts"):
            mp_compare([[1.0, 2.0]])

    @pytest.mark.parametrize("shape", [(1, 8), (8, 1)])
    def test_no_row_column_cut_asks_for_a_cut(self, shape):
        with pytest.raises(InvalidArgumentError, match=r"has no row-column cut; pass --cut in \[1, 2\]"):
            mp_compare(np.ones(shape))
        assert mp_compare(np.ones(shape), cut=1).tables["summary"][0]["cut"] == 1


@pytest.mark.parametrize(
    "run",
    [
        lambda: page_bench(8, seeds=1, seed=-1),
        lambda: cardy_experiment(t_grid=(8, 16, 32, 64), seeds=1, seed=-1),
        lambda: valley_experiment(d_out=8, d_in=8, ranks=(1,), seeds=1, seed=-1),
        lambda: attn_experiment(8, heads=1, seed=-1),
    ],
    ids=["page-bench", "cardy", "valley", "attn"],
)
def test_negative_seed_rejected_before_any_draw(monkeypatch, run):
    draws = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or default_rng(seed))
    with pytest.raises(InvalidArgumentError, match="seed entries must be >= 0"):
        run()
    assert draws == []


class TestAttnExperiment:
    def test_structure_and_defaults(self):
        report = attn_experiment(16, heads=2, seeds=1)
        assert "d" not in report.config and "d_qk" not in report.config
        heads = report.tables["heads"]
        assert len(heads) == 2
        for row in heads:
            assert row["s1"] >= 1.0 - 1e-9
            assert row["sigma2"] > 0.0
            assert 0.0 < row["p1"] <= 1.0
            assert 0.0 <= row["max_normalized_a"] <= 1.0 + 1e-9
        # 7 cuts per 16x16 profile, two matrices per head
        assert len(report.tables["profiles"]) == 2 * 2 * 7
        assert len(report.tables["ablation"]) == 2 * 7

    def test_causal_and_rope_smoke(self):
        report = attn_experiment(8, heads=1, seeds=1, causal=True, rope=True)
        assert report.config["causal"] and report.config["rope"]
        row = report.tables["heads"][0]
        assert math.isfinite(row["sigma2"])

    def test_deterministic(self):
        a = attn_experiment(8, heads=2, seeds=1, seed=4)
        b = attn_experiment(8, heads=2, seeds=1, seed=4)
        assert a.tables == b.tables

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("qk_std", [1e-8, 0.1, 0.65, 5.0])
    def test_head_spectra_match_svd_reference(self, qk_std, causal):
        for t in (16, 64, 256):
            report = attn_experiment(t, heads=2, causal=causal, qk_std=qk_std, seed=3)
            for row in report.tables["heads"]:
                scene = AttentionScene.build(t, seed=[row["seed"], row["head"]], causal=causal, qk_std=qk_std)
                sv = np.linalg.svd(scene.a, compute_uv=False)
                assert row["s1"] == pytest.approx(sv[0], abs=1e-12, rel=1e-9)
                assert row["p1"] == pytest.approx(sv[0] ** 2 / np.dot(sv, sv), abs=1e-12, rel=1e-9)

    @pytest.mark.parametrize("causal,digest", [
        (False, "1c4156c25cf54ea18f9a58e7d5a9da2c621f1e3ba9a9b1dd4fbe32520e50276b"),
        (True, "35d50c6c89e9e0ceb41b4a694d1d9e20db29349cd25f249247b152b64982242a"),
    ], ids=["unmasked", "causal-rope"])
    def test_tables_are_pinned(self, causal, digest):
        # the spectrum writes its bulk over a copy: the ablation reads scene.a after it
        report = attn_experiment(64, heads=2, causal=causal, rope=causal, seed=5)
        rows = {
            name: [{key: _fmt(value) for key, value in row.items()} for row in report.tables[name]]
            for name in ("heads", "profiles", "ablation")
        }
        assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == digest

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            attn_experiment(8, heads=0)

    def test_a_one_by_one_scene_rejected_before_any_draw(self, monkeypatch):
        draws = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or default_rng(seed))
        with pytest.raises(InvalidArgumentError, match="T must be >= 2"):
            attn_experiment(1, heads=1)
        assert draws == []


class TestCollapse:
    def test_spectrum_construction(self):
        eig = collapse_spectrum(4)
        assert np.allclose(eig, [1.0, 1.0 / 16, 1.0 / 16, 1.0 / 16])
        with pytest.raises(InvalidArgumentError):
            collapse_spectrum(1)

    def test_grid_run(self):
        report = collapse_experiment(log2_min=2, log2_max=5)
        rows = report.tables["grid"]
        assert [row["t"] for row in rows] == [4, 8, 16, 32]
        for row in rows:
            t = row["t"]
            assert row["eta"] == pytest.approx((t - 1) / t**4, rel=1e-9)
            # the constructed tail is flat, so the certified bound is exact
            assert row["entropy_nats"] == pytest.approx(row["vn_bound"], rel=1e-12)
        summary = report.tables["summary"][0]
        assert summary["bound_satisfied"]
        assert summary["monotone_decreasing"]
        assert summary["ratio_spread"] <= 2.0

    def test_table_columns_are_pinned_in_order(self):
        report = collapse_experiment(log2_min=2, log2_max=3)
        grid, summary = report.tables["grid"], report.tables["summary"]
        assert [list(row) for row in grid] == [["t", "eta", "delta1", "entropy_nats", "vn_bound", "ratio"]] * 2
        assert [[type(v) for v in row.values()] for row in grid] == [[int] + [float] * 5] * 2
        assert [list(row) for row in summary] == [["ratio_spread", "monotone_decreasing", "bound_satisfied"]]
        assert [type(v) for v in summary[0].values()] == [float, bool, bool]

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            collapse_experiment(log2_min=0)
        with pytest.raises(InvalidArgumentError):
            collapse_experiment(log2_min=5, log2_max=4)


class TestAdapterCounts:
    def test_reference_specs(self):
        report = adapter_count_rows(list(REFERENCE_ADAPTER_SPECS))
        rows = report.tables["counts"]
        assert [row["params"] for row in rows] == [16777216, 2097152, 1574912]
        assert rows[0]["ratio_vs_full"] == 1.0
        assert rows[1]["ratio_vs_full"] == pytest.approx(0.125)
        assert rows[2]["ratio_vs_full"] == pytest.approx(1574912 / 16777216)
        assert rows[2]["d_in"] == 4096
