"""Experiment-driver tests: reproducibility, scale invariance, orderings."""

import numpy as np
import pytest

from emastall.engine import AdamHyper, EmaConfig, ResetPolicy
from emastall.formats import RoundingMode
from emastall.simlab import (
    GradientStream,
    GradientStreamSpec,
    NoisyQuadratic,
    SynthLogistic,
    default_ema_config,
    moment_configs,
    run_first_moment_curve,
    run_reset_study,
    run_reset_training,
    run_skip_study,
    run_stall_curve,
)

HYPER = AdamHyper(lr=0.01)
BAD_STREAM_FIELDS = [
    {"mu": float("nan")},
    {"mu": float("inf")},
    {"sigma": float("inf")},
    {"sigma": float("nan")},
    {"sigma": 0.0},
    {"sigma_binades": float("nan")},
    {"sigma_binades": float("-inf")},
    {"kind": "piecewise", "schedule": ((5, -1.0),)},
    {"kind": "piecewise", "schedule": ((5, 0.0),)},
    {"kind": "piecewise", "schedule": ((5, 1.0), (3, float("inf")))},
    {"kind": "piecewise", "schedule": ((5, float("nan")),)},
    {"kind": "piecewise", "schedule": ((0, 1.0),)},
    {"kind": "piecewise", "schedule": ((-2, 1.0), (5, 2.0))},
    {"kind": "piecewise", "schedule": ((2.5, 1.0),)},
]


class TestGradientStream:
    def test_reproducible(self):
        spec = GradientStreamSpec(dimension=32, seed=3)
        a = GradientStream(spec, trial=0)
        b = GradientStream(spec, trial=0)
        for _ in range(5):
            assert np.array_equal(a.draw(), b.draw())

    def test_trials_differ(self):
        spec = GradientStreamSpec(dimension=32, seed=3)
        a = GradientStream(spec, trial=0)
        b = GradientStream(spec, trial=1)
        assert not np.array_equal(a.draw(), b.draw())

    def test_scale_spread_covers_one_binade(self):
        spec = GradientStreamSpec(dimension=10_000, seed=1, sigma_binades=1.0)
        s = GradientStream(spec).scales
        assert s.min() >= 1.0 and s.max() < 2.0

    def test_piecewise_schedule(self):
        spec = GradientStreamSpec(
            dimension=4, seed=0, kind="piecewise", sigma_binades=0.0,
            schedule=((2, 1.0), (2, 10.0)),
        )
        gs = GradientStream(spec)
        draws = [gs.draw() for _ in range(5)]
        small = np.abs(np.concatenate(draws[:2])).mean()
        large = np.abs(np.concatenate(draws[2:4])).mean()
        assert large > 3 * small

    def test_validation(self):
        with pytest.raises(ValueError):
            GradientStreamSpec(dimension=0, seed=0)
        with pytest.raises(ValueError):
            GradientStreamSpec(dimension=4, seed=0, kind="piecewise")
        # each once passed, to give non-finite draws or a sign-flipped stream
        for fields in BAD_STREAM_FIELDS:
            with pytest.raises(ValueError) as exc:
                GradientStreamSpec(dimension=4, seed=0, **fields)
            assert "\n" not in str(exc.value), fields


class TestStallCurve:
    def test_full_precision_config_never_stalls(self):
        spec = GradientStreamSpec(dimension=500, seed=2)
        cfg = EmaConfig(beta=0.999, format=None)
        res = run_stall_curve(spec, cfg, steps=200)
        assert res.metrics["measured_plateau"] == 0.0
        assert res.metrics["measured_floor"] == 0.0

    def test_bf16_quick_plateau_near_theory(self):
        spec = GradientStreamSpec(dimension=2000, seed=2)
        cfg = default_ema_config("bf16", 0.999)
        res = run_stall_curve(spec, cfg, steps=3000)
        assert abs(res.metrics["measured_plateau"] - res.metrics["theory_ss"]) < 0.05

    def test_monotone_envelope(self):
        spec = GradientStreamSpec(dimension=3000, seed=4)
        cfg = default_ema_config("fp8_e4m3", 0.999)
        res = run_stall_curve(spec, cfg, steps=1500)
        f = np.asarray(res.series["stalled_fraction"])
        windows = f[: len(f) // 50 * 50].reshape(-1, 50).mean(axis=1)
        assert np.all(np.diff(windows) >= -0.02)

    def test_scale_invariance_of_stall_statistics(self):
        # rescaling the whole stream by a power of two leaves the trace
        # bit-identical under per-tensor scaling
        cfg = default_ema_config("fp4_e2m2u", 0.999)
        spec1 = GradientStreamSpec(dimension=400, seed=9, sigma=1.0)
        spec2 = GradientStreamSpec(dimension=400, seed=9, sigma=1024.0)
        r1 = run_stall_curve(spec1, cfg, steps=300)
        r2 = run_stall_curve(spec2, cfg, steps=300)
        assert r1.series["stalled_fraction"] == r2.series["stalled_fraction"]

    def test_theory_overlay_present(self):
        spec = GradientStreamSpec(dimension=100, seed=0)
        cfg = default_ema_config("fp4_e2m2u", 0.999)
        res = run_stall_curve(spec, cfg, steps=50)
        assert len(res.series["theory_nr_transient"]) == 50
        assert 0 < res.metrics["theory_ss_sr"] <= res.metrics["theory_ss_nr"]

    def test_deterministic_outputs(self, tmp_path):
        spec = GradientStreamSpec(dimension=300, seed=7)
        cfg = default_ema_config(
            "fp4_e2m2u", 0.999, RoundingMode.STOCHASTIC
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_stall_curve(spec, cfg, steps=100).save_csv(p1)
        run_stall_curve(spec, cfg, steps=100).save_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFirstMomentCurve:
    def test_low_precision_stalls_more_than_bf16(self):
        spec = GradientStreamSpec(dimension=3000, seed=5, mu=1.0)
        r_fp4 = run_first_moment_curve(
            spec, default_ema_config("fp4_e2m1", 0.9), steps=1500
        )
        r_bf16 = run_first_moment_curve(
            spec, default_ema_config("bf16", 0.9), steps=1500
        )
        assert (
            r_fp4.metrics["measured_steady"]
            > r_bf16.metrics["measured_steady"] + 0.3
        )

    def test_sr_lowers_steady_fraction(self):
        spec = GradientStreamSpec(dimension=3000, seed=5, mu=1.0)
        nr = run_first_moment_curve(
            spec, default_ema_config("fp4_e2m1", 0.9), steps=1500
        )
        sr = run_first_moment_curve(
            spec,
            default_ema_config("fp4_e2m1", 0.9, RoundingMode.STOCHASTIC),
            steps=1500,
        )
        assert sr.metrics["measured_steady"] < nr.metrics["measured_steady"] - 0.02

    def test_zero_mean_full_precision_near_zero(self):
        spec = GradientStreamSpec(dimension=500, seed=6, mu=0.0)
        cfg = EmaConfig(beta=0.9, format=None)
        res = run_first_moment_curve(spec, cfg, steps=300)
        assert res.metrics["measured_steady"] == 0.0


class TestSkipStudy:
    def test_zero_skip_is_the_shared_baseline(self):
        prob = NoisyQuadratic()
        r1 = run_skip_study(prob, (0.0,), "first", 800, (0, 1, 2), HYPER)
        r2 = run_skip_study(prob, (0.0,), "second", 800, (0, 1, 2), HYPER)
        assert r1.series["final_loss"] == r2.series["final_loss"]

    def test_first_moment_skips_hurt_more_at_p09(self):
        prob = NoisyQuadratic()
        first = run_skip_study(prob, (0.0, 0.9), "first", 2000, (0, 1, 2), HYPER)
        second = run_skip_study(prob, (0.0, 0.9), "second", 2000, (0, 1, 2), HYPER)
        assert (
            first.metrics["median_final_loss@p=0.9"]
            > second.metrics["median_final_loss@p=0.9"]
        )
        # both interventions degrade the baseline
        assert (
            second.metrics["median_final_loss@p=0.9"]
            > second.metrics["median_final_loss@p=0"]
        )

    def test_frozen_preconditioner_still_converges_when_well_conditioned(self):
        prob = NoisyQuadratic(
            curvature_min=0.5, curvature_max=1.0, target_drift=0.0, init_offset=2.0
        )
        res = run_skip_study(prob, (1.0,), "second", 2000, (0,), HYPER)
        inst = prob.make_instance(0)
        assert res.series["final_loss"][0] < 0.01 * inst.loss(inst.init_params())

    @pytest.mark.parametrize("grid", [(0.5, 0.5), (0.1, 0.1000001)])
    def test_colliding_labels_rejected(self, grid):
        # both cells print as p=0.5 (p=0.1): one median for two cells
        with pytest.raises(ValueError, match=f"share the label 'p={grid[0]}'"):
            run_skip_study(NoisyQuadratic(dimension=8), grid, "first", 2, (0,), HYPER)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_skip_study(NoisyQuadratic(), (0.5,), "third", 100, (0,))
        with pytest.raises(ValueError):
            run_skip_study(NoisyQuadratic(), (1.5,), "first", 100, (0,))


class TestResetStudy:
    def test_fp4_resets_beat_none_quick(self):
        prob = NoisyQuadratic()
        cm, cv = moment_configs("fp4", HYPER)
        none = [
            run_reset_training(prob, cm, cv, ResetPolicy.none(), 3000, s, HYPER)[
                "final_loss"
            ]
            for s in (0, 1, 2)
        ]
        rst = [
            run_reset_training(
                prob, cm, cv, ResetPolicy.periodic(224), 3000, s, HYPER
            )["final_loss"]
            for s in (0, 1, 2)
        ]
        assert np.median(rst) < np.median(none)

    def test_matrix_shape_and_reproducibility(self):
        prob = NoisyQuadratic(dimension=64)
        cm, cv = moment_configs("fp4", HYPER)
        configs = [("fp4_nr", cm, cv)]
        policies = [("none", ResetPolicy.none()), ("p100", ResetPolicy.periodic(100))]
        r1 = run_reset_study(prob, configs, policies, 400, (0, 1, 2), HYPER)
        r2 = run_reset_study(prob, configs, policies, 400, (0, 1, 2), HYPER)
        assert r1.series == r2.series
        assert len(r1.series["final_loss"]) == 6
        assert set(r1.series["policy"]) == {"none", "p100"}

    def test_adaptive_policy_runs_and_resets(self):
        prob = NoisyQuadratic(dimension=64)
        cm, cv = moment_configs("fp4", HYPER)
        out = run_reset_training(
            prob, cm, cv,
            ResetPolicy.adaptive(beta2=HYPER.beta2, s0=0.6, applies_to="second"),
            1200, 0, HYPER, record_trace=True,
        )
        assert len(out["trace_v"].reset_steps) >= 1

    def test_seed_minimum_enforced(self):
        prob = NoisyQuadratic(dimension=32)
        cm, cv = moment_configs("fp4", HYPER)
        with pytest.raises(ValueError):
            run_reset_study(prob, [("x", cm, cv)], [("none", ResetPolicy.none())],
                            100, (0, 1), HYPER)

    @pytest.mark.parametrize("configs,policies,label", [
        (["x", "x"], ["none"], "configs share the label 'x'"),
        (["x"], ["none", "none"], "policies share the label 'none'"),
    ], ids=["configs", "policies"])
    def test_colliding_labels_rejected(self, configs, policies, label):
        # the cells would merge under one median key
        prob = NoisyQuadratic(dimension=8)
        cm, cv = moment_configs("fp4", HYPER)
        with pytest.raises(ValueError, match=label):
            run_reset_study(prob, [(c, cm, cv) for c in configs],
                            [(p, ResetPolicy.none()) for p in policies],
                            2, (0, 1, 2), HYPER)


class TestProblems:
    def test_quadratic_instance_reproducible(self):
        prob = NoisyQuadratic()
        a = prob.make_instance(3)
        b = prob.make_instance(3)
        assert np.array_equal(a.curvatures, b.curvatures)
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        a.step_begin()
        b.step_begin()
        assert np.array_equal(a.target, b.target)
        p = a.init_params()
        assert np.array_equal(a.grad_sample(p, rng1), b.grad_sample(p, rng2))

    def test_quadratic_instances_vary_by_seed(self):
        prob = NoisyQuadratic()
        assert not np.array_equal(
            prob.make_instance(0).curvatures, prob.make_instance(1).curvatures
        )

    def test_logistic_gradient_descends(self):
        prob = SynthLogistic()
        inst = prob.make_instance(0)
        rng = np.random.default_rng(1)
        params = inst.init_params()
        l0 = inst.loss(params)
        for _ in range(300):
            params = params - 0.1 * inst.grad_sample(params, rng)
        assert inst.loss(params) < 0.7 * l0

    def test_experiment_result_files(self, tmp_path):
        spec = GradientStreamSpec(dimension=50, seed=0)
        cfg = default_ema_config("fp4_e2m2u", 0.999)
        res = run_stall_curve(spec, cfg, steps=20)
        res.save_csv(tmp_path / "r.csv")
        res.save_json(tmp_path / "r.json")
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["step", "stalled_fraction"]
        import json

        summary = json.loads((tmp_path / "r.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["config"]["experiment"] == "stall_curve"
