"""Experiment-driver tests: reproducibility, scale invariance, orderings."""

import math
import re

import numpy as np
import pytest

from emastall import simlab
from emastall.engine import AdamHyper, EmaConfig, ResetPolicy
from emastall.formats import RoundingMode
from emastall.simlab import (
    _KEY_GRAD,
    _KEY_PROBLEM,
    _KEY_TARGET,
    GradientStream,
    GradientStreamSpec,
    NoisyQuadratic,
    SynthLogistic,
    default_ema_config,
    moment_configs,
    run_first_moment_curves,
    run_reset_cells,
    run_reset_study,
    run_reset_training,
    run_skip_study,
    run_stall_curves,
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
    {"kind": "piecewise", "schedule": ((True, 1.0),)},
    {"dimension": True},
    {"dimension": 2.0},
    {"dimension": 0},
    {"seed": -1},
    {"seed": 1.5},
    {"seed": True},
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
                GradientStreamSpec(**{"dimension": 4, "seed": 0, **fields})
            assert "\n" not in str(exc.value), fields

    @pytest.mark.parametrize("dim", [True, 2.0, 0, -1])
    def test_dimension_must_be_an_integer_at_least_one(self, dim):
        # dimension=True once gave a one-coordinate stream
        with pytest.raises(ValueError, match="^dimension must be an integer >= 1"):
            GradientStreamSpec(dimension=dim, seed=0)


class TestStallCurve:
    def test_full_precision_config_never_stalls(self):
        spec = GradientStreamSpec(dimension=500, seed=2)
        cfg = EmaConfig(beta=0.999, format=None)
        res = run_stall_curves(spec, [cfg], steps=200)[0]
        assert res.metrics["measured_plateau"] == 0.0
        assert res.metrics["measured_floor"] == 0.0

    def test_bf16_quick_plateau_near_theory(self):
        spec = GradientStreamSpec(dimension=2000, seed=2)
        cfg = default_ema_config("bf16", 0.999)
        res = run_stall_curves(spec, [cfg], steps=3000)[0]
        assert abs(res.metrics["measured_plateau"] - res.metrics["theory_ss"]) < 0.05

    def test_monotone_envelope(self):
        spec = GradientStreamSpec(dimension=3000, seed=4)
        cfg = default_ema_config("fp8_e4m3", 0.999)
        res = run_stall_curves(spec, [cfg], steps=1500)[0]
        f = np.asarray(res.series["stalled_fraction"])
        windows = f[: len(f) // 50 * 50].reshape(-1, 50).mean(axis=1)
        assert np.all(np.diff(windows) >= -0.02)

    def test_scale_invariance_of_stall_statistics(self):
        # rescaling the whole stream by a power of two leaves the trace
        # bit-identical under per-tensor scaling
        cfg = default_ema_config("fp4_e2m2u", 0.999)
        spec1 = GradientStreamSpec(dimension=400, seed=9, sigma=1.0)
        spec2 = GradientStreamSpec(dimension=400, seed=9, sigma=1024.0)
        r1 = run_stall_curves(spec1, [cfg], steps=300)[0]
        r2 = run_stall_curves(spec2, [cfg], steps=300)[0]
        assert r1.series["stalled_fraction"] == r2.series["stalled_fraction"]

    def test_theory_overlay_present(self):
        spec = GradientStreamSpec(dimension=100, seed=0)
        cfg = default_ema_config("fp4_e2m2u", 0.999)
        res = run_stall_curves(spec, [cfg], steps=50)[0]
        assert len(res.series["theory_nr_transient"]) == 50
        assert 0 < res.metrics["theory_ss_sr"] <= res.metrics["theory_ss_nr"]

    def test_deterministic_outputs(self, tmp_path):
        spec = GradientStreamSpec(dimension=300, seed=7)
        cfg = default_ema_config(
            "fp4_e2m2u", 0.999, RoundingMode.STOCHASTIC
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_stall_curves(spec, [cfg], steps=100)[0].save_csv(p1)
        run_stall_curves(spec, [cfg], steps=100)[0].save_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFirstMomentCurve:
    def test_low_precision_stalls_more_than_bf16(self):
        spec = GradientStreamSpec(dimension=3000, seed=5, mu=1.0)
        r_fp4 = run_first_moment_curves(
            spec, [default_ema_config("fp4_e2m1", 0.9)], steps=1500
        )[0]
        r_bf16 = run_first_moment_curves(
            spec, [default_ema_config("bf16", 0.9)], steps=1500
        )[0]
        assert (
            r_fp4.metrics["measured_steady"]
            > r_bf16.metrics["measured_steady"] + 0.3
        )

    def test_sr_lowers_steady_fraction(self):
        spec = GradientStreamSpec(dimension=3000, seed=5, mu=1.0)
        nr = run_first_moment_curves(
            spec, [default_ema_config("fp4_e2m1", 0.9)], steps=1500
        )[0]
        sr = run_first_moment_curves(
            spec,
            [default_ema_config("fp4_e2m1", 0.9, RoundingMode.STOCHASTIC)],
            steps=1500,
        )[0]
        assert sr.metrics["measured_steady"] < nr.metrics["measured_steady"] - 0.02

    def test_zero_mean_full_precision_near_zero(self):
        spec = GradientStreamSpec(dimension=500, seed=6, mu=0.0)
        cfg = EmaConfig(beta=0.9, format=None)
        res = run_first_moment_curves(spec, [cfg], steps=300)[0]
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
        stack = prob.make_stack((0,))
        assert res.series["final_loss"][0] < 0.01 * stack.losses(_start(stack))[0, 0, 0]

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

    @pytest.mark.parametrize("fraction", [math.inf, math.nan, 2.0, 1.0, -0.1])
    def test_warmup_fraction_outside_unit_interval_rejected(self, fraction):
        # inf once overflowed, nan failed to convert, and 2.0 never skipped,
        # so p=0.5 silently equalled p=0
        with pytest.raises(ValueError, match="^warmup_fraction must be in") as exc:
            run_skip_study(NoisyQuadratic(dimension=8), (0.0, 0.5), "first", 10, (0,),
                           HYPER, warmup_fraction=fraction)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("fraction", [0.95, 0.96, 0.999])
    def test_warmup_rounding_to_every_step_rejected(self, fraction):
        # 0.96 of 10 steps rounds to a warmup of 10: nothing was skipped, so
        # p=0.5 silently equalled p=0
        with pytest.raises(ValueError, match=(
            rf"^warmup_fraction {fraction} leaves no step to skip in 10 steps$"
        )):
            run_skip_study(NoisyQuadratic(dimension=8), (0.0, 0.5), "first", 10, (0,),
                           HYPER, warmup_fraction=fraction)

    def test_warmup_leaving_one_step_skips_it(self):
        # 0.94 of 10 steps rounds to 9, so step 10 may skip
        res = run_skip_study(NoisyQuadratic(dimension=8), (0.0, 0.5), "first", 10,
                             (0,), HYPER, warmup_fraction=0.94)
        p0, p5 = res.series["final_loss"]
        assert p0 != p5


class TestResetStudy:
    def test_fp4_resets_beat_none_quick(self):
        prob = NoisyQuadratic()
        cm, cv = moment_configs("fp4")
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
        cm, cv = moment_configs("fp4")
        configs = [("fp4_nr", cm, cv)]
        policies = [("none", ResetPolicy.none()), ("p100", ResetPolicy.periodic(100))]
        r1 = run_reset_study(prob, configs, policies, 400, (0, 1, 2), HYPER)
        r2 = run_reset_study(prob, configs, policies, 400, (0, 1, 2), HYPER)
        assert r1.series == r2.series
        assert len(r1.series["final_loss"]) == 6
        assert set(r1.series["policy"]) == {"none", "p100"}

    def test_adaptive_policy_runs_and_resets(self):
        prob = NoisyQuadratic(dimension=64)
        cm, cv = moment_configs("fp4")
        out = run_reset_training(
            prob, cm, cv,
            ResetPolicy.adaptive(s0=0.6, applies_to="second"),
            1200, 0, HYPER, record_trace=True,
        )
        assert len(out["trace_v"].reset_steps) >= 1

    def test_seed_minimum_enforced(self):
        prob = NoisyQuadratic(dimension=32)
        cm, cv = moment_configs("fp4")
        with pytest.raises(ValueError):
            run_reset_study(prob, [("x", cm, cv)], [("none", ResetPolicy.none())],
                            100, (0, 1), HYPER)

    def test_hyper_leaves_report_the_configs_betas(self):
        prob = NoisyQuadratic(dimension=8)
        configs = [(f"{name}_nr", *moment_configs(name, beta1=0.95, beta2=0.99))
                   for name in (None, "fp4")]
        study = run_reset_study(prob, configs, [("none", ResetPolicy.none())], 4,
                                (0, 1, 2), AdamHyper(lr=0.02))
        assert study.config["hyper"] == {"lr": 0.02, "beta1": 0.95, "beta2": 0.99,
                                         "eps": 1e-6, "weight_decay": 0.0}
        skip = run_skip_study(prob, (0.0,), "first", 4, (0,), HYPER)
        assert skip.config["hyper"] == {"lr": 0.01, "beta1": 0.9, "beta2": 0.999,
                                        "eps": 1e-6, "weight_decay": 0.0}

    @pytest.mark.parametrize("betas", [{"beta1": 0.95}, {"beta2": 0.99}])
    def test_configs_of_other_betas_rejected(self, betas):
        # one pair of hyper leaves describes the study; run_reset_cells
        # takes any mix
        prob = NoisyQuadratic(dimension=8)
        configs = [("a", *moment_configs("fp4")), ("b", *moment_configs("fp4", **betas))]
        with pytest.raises(ValueError,
                           match="^the configs of a reset study must share beta1 and "
                                 "beta2$"):
            run_reset_study(prob, configs, [("none", ResetPolicy.none())], 2,
                            (0, 1, 2), HYPER)

    @pytest.mark.parametrize("configs,policies,label", [
        (["x", "x"], ["none"], "configs share the label 'x'"),
        (["x"], ["none", "none"], "policies share the label 'none'"),
    ], ids=["configs", "policies"])
    def test_colliding_labels_rejected(self, configs, policies, label):
        # the cells would merge under one median key
        prob = NoisyQuadratic(dimension=8)
        cm, cv = moment_configs("fp4")
        with pytest.raises(ValueError, match=label):
            run_reset_study(prob, [(c, cm, cv) for c in configs],
                            [(p, ResetPolicy.none()) for p in policies],
                            2, (0, 1, 2), HYPER)


@pytest.mark.parametrize("steps,seeds,message", [
    (10.5, (0, 1, 2), "steps must be an integer >= 1, got 10.5"),
    (True, (0, 1, 2), "steps must be an integer >= 1, got True"),
    (0, (0, 1, 2), "steps must be an integer >= 1, got 0"),
    (5, (0, -1, 2), "seeds must be integers >= 0, got -1"),
    (5, (0, 1.0, 2), "seeds must be integers >= 0, got 1.0"),
    (5, (0, False, 2), "seeds must be integers >= 0, got False"),
    (5, (), "at least one seed is required"),
], ids=["float-steps", "bool-steps", "zero-steps", "negative-seed", "float-seed",
        "bool-seed", "no-seeds"])
def test_bad_study_inputs_name_the_field(steps, seeds, message):
    # a float step count once failed as a TypeError, and a negative seed as
    # numpy's "expected non-negative integer"
    prob = NoisyQuadratic(dimension=8)
    cm, cv = moment_configs("fp4")
    calls = [
        lambda: run_reset_cells(prob, [(cm, cv)], [ResetPolicy.none()], steps, seeds,
                                HYPER),
        lambda: run_reset_study(prob, [("x", cm, cv)], [("none", ResetPolicy.none())],
                                steps, seeds, HYPER),
        lambda: run_skip_study(prob, (0.0, 0.5), "first", steps, seeds, HYPER),
    ]
    if seeds:  # the middle seed carries any bad value
        calls.append(lambda: run_reset_training(prob, cm, cv, ResetPolicy.none(), steps,
                                                seeds[1], HYPER))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_empty_grids_name_their_input():
    # both once asked for "at least one reset policy or p_skip value"
    prob = NoisyQuadratic(dimension=8)
    cm, cv = moment_configs("fp4")
    for call in (lambda: run_reset_cells(prob, [(cm, cv)], [], 2, (0,), HYPER),
                 lambda: run_reset_study(prob, [("x", cm, cv)], [], 2, (0, 1, 2))):
        with pytest.raises(ValueError, match="^at least one reset policy is required$"):
            call()
    with pytest.raises(ValueError, match="^at least one p_skip value is required$"):
        run_skip_study(prob, (), "first", 2, (0,))


def test_colliding_median_keys_are_one_line_error():
    # a/b + c and a + b/c both key median@a/b/c: the call once wrote 12
    # table rows but only 3 medians, the second cell's over the first's
    cm, cv = moment_configs(None)
    with pytest.raises(ValueError) as exc:
        run_reset_study(NoisyQuadratic(dimension=8), [("a/b", cm, cv), ("a", cm, cv)],
                        [("c", ResetPolicy.none()), ("b/c", ResetPolicy.periodic(2))],
                        4, (0, 1, 2))
    assert str(exc.value) == "two cells share the label 'median@a/b/c'"


def test_numpy_inputs_write_the_python_inputs_json(tmp_path):
    # numpy ints and floats once ran to the end and then failed in
    # save_json as "Object of type int64 is not JSON serializable"
    prob = NoisyQuadratic(dimension=8)
    cm, cv = moment_configs("fp4")
    cfg = default_ema_config("bf16", 0.999)

    def runs(ints, floats, grid):
        yield run_reset_study(prob, [("fp4_nr", cm, cv)], [("none", ResetPolicy.none())],
                              ints(4), tuple(map(ints, (0, 1, 2))))
        yield run_skip_study(prob, grid([floats(0.0), floats(0.5)]), "second", ints(6),
                             tuple(map(ints, (0, 3))), AdamHyper(lr=floats(0.25)),
                             warmup_fraction=floats(0.5))
        yield run_stall_curves(GradientStreamSpec(8, seed=ints(1), mu=floats(0.5)),
                               [cfg], ints(5), ints(2))[0]

    for python, numpy in zip(runs(int, float, tuple), runs(np.int64, np.float32, np.array),
                             strict=True):
        python.save_json(tmp_path / "python.json")
        numpy.save_json(tmp_path / "numpy.json")
        assert ((tmp_path / "numpy.json").read_bytes()
                == (tmp_path / "python.json").read_bytes()), python.config["experiment"]
        assert numpy.series == python.series


BAD_PROBLEM_FIELDS = [
    (NoisyQuadratic, {"dimension": 2.5}, "dimension must be an integer >= 1, got 2.5"),
    (NoisyQuadratic, {"dimension": 0}, "dimension must be an integer >= 1, got 0"),
    (NoisyQuadratic, {"dimension": True}, "dimension must be an integer >= 1, got True"),
    (NoisyQuadratic, {"curvature_min": 0.0},
     "curvature_min must be positive and finite, got 0.0"),
    (NoisyQuadratic, {"curvature_min": -1.0},
     "curvature_min must be positive and finite, got -1.0"),
    (NoisyQuadratic, {"curvature_min": math.nan},
     "curvature_min must be positive and finite, got nan"),
    (NoisyQuadratic, {"curvature_min": math.inf, "curvature_max": math.inf},
     "curvature_min must be positive and finite, got inf"),
    (NoisyQuadratic, {"curvature_min": 2.0, "curvature_max": 1.0},
     "curvature_max must be finite and >= curvature_min, got 1.0"),
    (NoisyQuadratic, {"curvature_max": math.inf},
     "curvature_max must be finite and >= curvature_min, got inf"),
    (NoisyQuadratic, {"curvature_max": math.nan},
     "curvature_max must be finite and >= curvature_min, got nan"),
    (NoisyQuadratic, {"noise_mult": -0.5},
     "noise_mult must be finite and >= 0, got -0.5"),
    (NoisyQuadratic, {"noise_mult": math.inf},
     "noise_mult must be finite and >= 0, got inf"),
    (NoisyQuadratic, {"target_drift": -0.1},
     "target_drift must be finite and >= 0, got -0.1"),
    (NoisyQuadratic, {"target_drift": math.nan},
     "target_drift must be finite and >= 0, got nan"),
    (NoisyQuadratic, {"init_offset": math.inf}, "init_offset must be finite, got inf"),
    (NoisyQuadratic, {"init_offset": math.nan}, "init_offset must be finite, got nan"),
    (SynthLogistic, {"batch_size": 0}, "batch_size must be an integer >= 1, got 0"),
    (SynthLogistic, {"batch_size": 8.0}, "batch_size must be an integer >= 1, got 8.0"),
    (SynthLogistic, {"n_samples": 0}, "n_samples must be an integer >= 1, got 0"),
    (SynthLogistic, {"dimension": -4}, "dimension must be an integer >= 1, got -4"),
    (SynthLogistic, {"label_noise": 2.0}, "label_noise must be in [0, 1], got 2.0"),
    (SynthLogistic, {"label_noise": -0.1}, "label_noise must be in [0, 1], got -0.1"),
    (SynthLogistic, {"label_noise": math.nan}, "label_noise must be in [0, 1], got nan"),
]


@pytest.mark.parametrize("cls,fields,message", BAD_PROBLEM_FIELDS, ids=[
    f"{cls.__name__}-" + ",".join(f"{k}={v}" for k, v in fields.items())
    for cls, fields, _ in BAD_PROBLEM_FIELDS
])
def test_bad_problem_fields_name_the_field(cls, fields, message):
    # these once failed only when a stack was drawn (numpy's TypeError, a
    # math domain error, "high - low < 0", "high <= 0", a non-finite
    # signal), or, for a label noise above 1, ran
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**fields)


@pytest.mark.parametrize("prob", [
    NoisyQuadratic(),
    NoisyQuadratic(curvature_min=0.5, curvature_max=0.5, noise_mult=0.0,
                   target_drift=0.0, init_offset=-2.0),
    SynthLogistic(),
    SynthLogistic(n_samples=1, dimension=1, label_noise=1.0, batch_size=1),
    SynthLogistic(label_noise=0.0),
], ids=["quadratic-defaults", "quadratic-edges", "logistic-defaults", "logistic-edges",
        "logistic-clean"])
def test_edge_problem_fields_accepted(prob):
    stack = prob.make_stack((0,))
    params = _start(stack)
    assert np.all(np.isfinite(stack.grad(params)))
    assert np.all(np.isfinite(stack.losses(params)))


def _start(stack, configs=1, cells=1):
    # the stack's starting points as a (configs, seeds, cells, dim) stack
    start = stack.init_params()[None, :, None]
    return np.repeat(np.repeat(start, configs, axis=0), cells, axis=2)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# rows per seed, each from its own start (_spread): a stack must keep every
# row apart while the rows of a seed share its draws
SHAPE = (2, 3)  # (configs, cells)
REF_STEPS = 6


def _spread(params):
    # give every row of a seed its own starting point
    configs, seeds, cells, dim = params.shape
    offsets = np.linspace(-1.0, 1.0, configs * cells).reshape(configs, 1, cells, 1)
    return params + offsets * np.linspace(0.5, 1.5, dim)


class TestStackReference:
    """Each problem's formula, written out from the seed's own streams,
    against ``make_stack`` bit for bit."""

    @staticmethod
    def _check_quadratic(prob, seeds, steps, out=False):
        # steps of the stack against the formula, each seed's target walk
        # and noise drawn one step at a time; with out, the gradient goes
        # into a caller's buffer
        stack = prob.make_stack(seeds)
        params = _spread(_start(stack, *SHAPE))
        ref = []
        for seed in seeds:
            rng = np.random.default_rng([seed, _KEY_PROBLEM])
            h = np.exp(rng.uniform(math.log(prob.curvature_min),
                                   math.log(prob.curvature_max), prob.dimension))
            ref.append((h, np.zeros(prob.dimension),
                        np.random.default_rng([seed, _KEY_TARGET]),
                        np.random.default_rng([seed, _KEY_GRAD])))
        assert _same_bits(stack.init_params(),
                          np.full((len(seeds), prob.dimension), prob.init_offset))
        buffer = np.empty_like(params)
        for _ in range(steps):
            got = stack.grad(params, out=buffer) if out else stack.grad(params)
            assert (got is buffer) == out
            want = np.empty_like(params)
            for i, (h, target, target_rng, grad_rng) in enumerate(ref):
                target += prob.target_drift * target_rng.standard_normal(prob.dimension)
                noise = grad_rng.standard_normal(prob.dimension)
                for c, j in np.ndindex(SHAPE):
                    want[c, i, j] = h * (params[c, i, j] - target) * (
                        1.0 + prob.noise_mult * noise)
            assert _same_bits(got, want)
            want_loss = np.array([[[
                0.5 * np.sum(ref[i][0] * (params[c, i, j] - ref[i][1]) ** 2)
                for j in range(SHAPE[1])] for i in range(len(seeds))]
                for c in range(SHAPE[0])])
            assert _same_bits(stack.losses(params), want_loss)
            params = params - 0.1 * got
        return stack

    @pytest.mark.parametrize("seeds", [(0, 3), (5, 1, 2)])
    def test_quadratic_stack_equals_its_formula(self, seeds):
        prob = NoisyQuadratic(dimension=300, noise_mult=0.7, target_drift=0.05)
        self._check_quadratic(prob, seeds, REF_STEPS)

    @pytest.mark.parametrize("drift", [0.05, 0.0])
    @pytest.mark.parametrize("seeds", [(0, 3), (5, 1, 2)])
    def test_quadratic_blocks_equal_its_formula(self, seeds, drift, monkeypatch):
        # blocks of 3 steps: two full blocks and a partial third, whose walk
        # carries on from the target the previous block ended at
        dim = 40
        monkeypatch.setattr(simlab, "_BLOCK_BYTES", 3 * len(seeds) * dim * 8 + 7)
        prob = NoisyQuadratic(dimension=dim, noise_mult=0.7, target_drift=drift)
        stack = self._check_quadratic(prob, seeds, 8, out=True)
        assert stack.block == 3

    @pytest.mark.parametrize("seeds", [(0, 3), (5, 1, 2)])
    def test_logistic_stack_equals_its_formula(self, seeds):
        prob = SynthLogistic(n_samples=200, dimension=24, label_noise=0.2,
                             batch_size=16)
        stack = prob.make_stack(seeds)
        params = _spread(_start(stack, *SHAPE))
        data = []
        for seed in seeds:
            rng = np.random.default_rng([seed, _KEY_PROBLEM])
            x = rng.standard_normal((prob.n_samples, prob.dimension))
            w = rng.standard_normal(prob.dimension) / np.sqrt(prob.dimension)
            y = np.sign(x @ w)
            y[y == 0] = 1.0
            flip = rng.random(prob.n_samples) < prob.label_noise
            y[flip] *= -1
            data.append((x, y, np.random.default_rng([seed, _KEY_GRAD])))
        assert _same_bits(stack.init_params(), np.zeros((len(seeds), prob.dimension)))
        for _ in range(REF_STEPS):
            got = stack.grad(params)
            want = np.empty_like(params)
            for i, (x, y, grad_rng) in enumerate(data):
                idx = grad_rng.integers(0, prob.n_samples, prob.batch_size)
                xb, yb = x[idx], y[idx]
                for c, j in np.ndindex(SHAPE):
                    p = params[c, i, j].copy()
                    s = 1.0 / (1.0 + np.exp(yb * (xb @ p)))
                    want[c, i, j] = -(yb * s) @ xb / prob.batch_size
            assert _same_bits(got, want)
            want_loss = np.array([[[
                np.mean(np.logaddexp(0.0, -(data[i][1] * (data[i][0] @ params[c, i, j]))))
                for j in range(SHAPE[1])] for i in range(len(seeds))]
                for c in range(SHAPE[0])])
            assert _same_bits(stack.losses(params), want_loss)
            params = params - 0.5 * got

    @pytest.mark.parametrize(
        "prob",
        [NoisyQuadratic(dimension=40), SynthLogistic(n_samples=100, dimension=12)],
        ids=["quadratic", "logistic"],
    )
    def test_multi_seed_rows_equal_one_seed_stacks(self, prob):
        seeds = (4, 0, 4, 9)
        stack = prob.make_stack(seeds)
        alone = [prob.make_stack((seed,)) for seed in seeds]
        params = _spread(_start(stack, *SHAPE))
        assert _same_bits(stack.init_params(),
                          np.concatenate([one.init_params() for one in alone]))
        for _ in range(REF_STEPS):
            got = stack.grad(params)
            losses = stack.losses(params)
            for i, one in enumerate(alone):
                assert _same_bits(got[:, i:i + 1], one.grad(params[:, i:i + 1]))
                assert _same_bits(losses[:, i:i + 1], one.losses(params[:, i:i + 1]))
            params = params - 0.1 * got


@pytest.mark.parametrize("seeds,seed", [((0, 0, 1), 0), ((2, 5, 7, 5), 5)],
                         ids=["first", "last"])
def test_studies_reject_a_repeated_seed(seeds, seed):
    # a repeated seed once passed the 3-seed minimum while training fewer
    # instances, and its rows counted twice in the medians
    prob = NoisyQuadratic(dimension=8)
    cm, cv = moment_configs("fp4")
    calls = [
        lambda: run_reset_study(prob, [("x", cm, cv)], [("none", ResetPolicy.none())],
                                2, seeds, HYPER),
        lambda: run_skip_study(prob, (0.0, 0.5), "first", 2, seeds, HYPER),
    ]
    for call in calls:
        with pytest.raises(ValueError,
                           match=f"^seeds must be distinct, got {seed} twice$"):
            call()


class TestProblems:
    def test_quadratic_stack_reproducible(self):
        prob = NoisyQuadratic()
        a, b = prob.make_stack((3,)), prob.make_stack((3,))
        params = _start(a)
        assert _same_bits(a.init_params(), b.init_params())
        for _ in range(3):
            assert _same_bits(a.grad(params), b.grad(params))
            assert _same_bits(a.losses(params), b.losses(params))

    def test_quadratic_stacks_vary_by_seed(self):
        # the curvatures differ, so the losses at the common start do
        prob = NoisyQuadratic()
        losses = prob.make_stack((0, 1)).losses(_start(prob.make_stack((0, 1))))
        assert losses[0, 0, 0] != losses[0, 1, 0]

    def test_logistic_gradient_descends(self):
        stack = SynthLogistic().make_stack((0,))
        params = _start(stack)
        l0 = stack.losses(params)[0, 0, 0]
        for _ in range(300):
            params = params - 0.1 * stack.grad(params)
        assert stack.losses(params)[0, 0, 0] < 0.7 * l0

    def test_experiment_result_files(self, tmp_path):
        spec = GradientStreamSpec(dimension=50, seed=0)
        cfg = default_ema_config("fp4_e2m2u", 0.999)
        res = run_stall_curves(spec, [cfg], steps=20)[0]
        res.save_csv(tmp_path / "r.csv")
        res.save_json(tmp_path / "r.json")
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["step", "stalled_fraction"]
        import json

        summary = json.loads((tmp_path / "r.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["config"]["experiment"] == "stall_curve"


@pytest.mark.parametrize("steps,trials,message", [
    (2.5, 1, "steps must be an integer >= 1, got 2.5"),
    (True, 1, "steps must be an integer >= 1, got True"),
    (0, 1, "steps must be an integer >= 1, got 0"),
    (5, 2.0, "trials must be an integer >= 1, got 2.0"),
    (5, False, "trials must be an integer >= 1, got False"),
    (5, 0, "trials must be an integer >= 1, got 0"),
], ids=["float-steps", "bool-steps", "zero-steps", "float-trials", "bool-trials",
        "zero-trials"])
def test_bad_curve_inputs_name_the_field(steps, trials, message):
    # a float or bool count once failed as numpy's TypeError
    spec = GradientStreamSpec(dimension=8, seed=0)
    cfg = default_ema_config("bf16", 0.99)
    for run in (run_stall_curves, run_first_moment_curves):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(spec, [cfg], steps, trials)
