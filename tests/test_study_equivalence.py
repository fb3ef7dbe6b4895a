"""The batched studies against the per-cell loops they replaced.

``engine_oracle`` keeps the single-state engine and the per-cell training
loops verbatim. The studies below train every cell of every storage config
in one lockstep loop; their final losses, and their stall traces, must
equal the oracle's bit for bit (``==`` on floats). Each multi-config call
must also equal the one-config calls it combines.
"""

import numpy as np
import pytest

from emastall import engine
from emastall.engine import AdamHyper, ResetPolicy
from emastall.formats import RoundingMode
from emastall.simlab import (
    GradientStreamSpec,
    NoisyQuadratic,
    SynthLogistic,
    _train_rows,
    default_ema_config,
    moment_configs,
    run_first_moment_curve,
    run_first_moment_curves,
    run_reset_cells,
    run_reset_study,
    run_reset_training,
    run_skip_study,
    run_stall_curve,
    run_stall_curves,
)

import engine_oracle as oracle

HYPER = AdamHyper(lr=0.01)
SEEDS = (0, 1, 2)
STEPS = 150
# dim 200 splits fp4's 128-element blocks unevenly
PROBLEM = NoisyQuadratic(dimension=200)
NR, SR = RoundingMode.NEAREST_EVEN, RoundingMode.STOCHASTIC
CONFIGS = [
    ("fp32", None, NR),
    ("fp4_nr", "fp4", NR),
    ("fp4_sr", "fp4", SR),
    ("bf16_nr", "bf16", NR),  # raw storage: frozen per-tensor scale
    ("bf16_sr", "bf16", SR),
    ("fp8_nr", "fp8_e4m3", NR),  # per-tensor scale, recomputed each step
    ("fp8_sr", "fp8_e4m3", SR),
]
APPLIES = ("first", "second", "both")
# the eager adaptive rule (s0 = 0, p_ss = 0.25) resets within the run
POLICIES = (
    [("none", ResetPolicy.none())]
    + [(f"periodic40_{a}", ResetPolicy.periodic(40, applies_to=a)) for a in APPLIES]
    + [
        (f"adaptive_{a}",
         ResetPolicy.adaptive(HYPER.beta2, s0=0.0, p_ss=0.25, applies_to=a))
        for a in APPLIES
    ]
    + [("adaptive_default", ResetPolicy.adaptive(HYPER.beta2))]
)


def _moments(fmt, rounding):
    return moment_configs(fmt, HYPER, rounding)


@pytest.fixture(scope="module")
def mixed_study():
    """Every config of CONFIGS in one study call."""
    configs = [(label, *_moments(fmt, r)) for label, fmt, r in CONFIGS]
    return run_reset_study(PROBLEM, configs, POLICIES, STEPS, SEEDS, HYPER)


@pytest.mark.parametrize("label,fmt,rounding", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_reset_study_equals_per_cell_runs(mixed_study, label, fmt, rounding):
    cfg_m, cfg_v = _moments(fmt, rounding)
    expected = [
        oracle.run_reset_training(PROBLEM, cfg_m, cfg_v, policy, STEPS, seed, HYPER)[
            "final_loss"
        ]
        for _, policy in POLICIES
        for seed in SEEDS
    ]
    series = mixed_study.series
    rows = [i for i, c in enumerate(series["config"]) if c == label]
    assert [series["final_loss"][i] for i in rows] == expected
    assert [series["policy"][i] for i in rows] == [p for p, _ in POLICIES for _ in SEEDS]
    assert [series["seed"][i] for i in rows] == list(SEEDS) * len(POLICIES)


def test_mixed_configs_equal_one_config_calls(mixed_study):
    policies = [p for _, p in POLICIES]
    together = run_reset_cells(
        PROBLEM, [_moments(fmt, r) for _, fmt, r in CONFIGS], policies, STEPS, SEEDS,
        HYPER,
    )
    assert together.shape == (len(CONFIGS), len(SEEDS), len(POLICIES))
    for c, (_, fmt, r) in enumerate(CONFIGS):
        alone = run_reset_cells(PROBLEM, [_moments(fmt, r)], policies, STEPS, SEEDS,
                                HYPER)
        assert together[c].tolist() == alone[0].tolist()
    # the study lists config-major, then policy, then seed
    assert mixed_study.series["final_loss"] == together.transpose(0, 2, 1).ravel().tolist()


def test_mixed_traces_and_duplicate_seeds_equal_per_cell_runs():
    configs = [_moments(None, NR), _moments("fp4", SR), _moments("bf16", NR),
               _moments("fp8_e4m3", SR)]
    policies = [ResetPolicy.periodic(40, applies_to="first"),
                ResetPolicy.adaptive(HYPER.beta2, s0=0.0, p_ss=0.25,
                                     applies_to="second")]
    seeds = (3, 3, 5)
    got = _train_rows(PROBLEM, configs, policies, 90, seeds, HYPER, record_trace=True)
    resets = 0
    for c, (cfg_m, cfg_v) in enumerate(configs):
        for i, seed in enumerate(seeds):
            for j, policy in enumerate(policies):
                want = oracle.run_reset_training(PROBLEM, cfg_m, cfg_v, policy, 90,
                                                 seed, HYPER, record_trace=True)
                assert got["final_loss"][c, i, j] == want["final_loss"]
                traces = got["traces"][c][i * len(policies) + j]
                for a, b in zip(traces, (want["trace_m"], want["trace_v"])):
                    assert a.fractions == b.fractions
                    assert a.cycle_ks == b.cycle_ks
                    assert a.reset_flags == b.reset_flags
                    resets += sum(a.reset_flags)
    assert resets > 0  # the reset path ran


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_stacked_adam_update_equals_per_row_updates(weight_decay):
    rng = np.random.default_rng(9)
    hyper = AdamHyper(lr=0.01, weight_decay=weight_decay)
    params = rng.standard_normal((3, 4, 50))
    params[0, :, :5] = -0.0  # signed zeros go through the decay term
    params[1, :, :5] = 0.0
    m, v = rng.standard_normal(params.shape), rng.random(params.shape)
    k_m, k_v = rng.integers(1, 400, (3, 4)), rng.integers(1, 400, (3, 4))
    got = engine._adam_update(params, m, v, k_m, k_v, hyper)
    for c, r in np.ndindex(3, 4):
        want = oracle._adam_update(params[c, r], m[c, r], v[c, r], int(k_m[c, r]),
                                   int(k_v[c, r]), hyper)
        assert got[c, r].view(np.int64).tolist() == want.view(np.int64).tolist()


def test_lockstep_rejects_an_empty_config_list():
    with pytest.raises(ValueError):
        run_reset_cells(PROBLEM, [], [ResetPolicy.none()], 10, SEEDS, HYPER)


CURVE_STREAM = GradientStreamSpec(dimension=300, seed=6, mu=0.5)


def _same_result(a, b):
    assert a.summary() == b.summary()
    assert a.series == b.series


def test_multi_config_stall_curves_equal_one_config_runs():
    emas = [default_ema_config(name, 0.99, r)
            for name in ("bf16", "fp8_e4m3", "fp4_e2m2u", None) for r in (NR, SR)]
    results = run_stall_curves(CURVE_STREAM, emas, 80, trials=2)
    assert len(results) == len(emas)
    for ema, result in zip(emas, results):
        _same_result(result, run_stall_curve(CURVE_STREAM, ema, 80, trials=2))


def test_multi_config_first_moment_curves_equal_one_config_runs():
    emas = [default_ema_config(name, 0.9, r)
            for name in ("fp4_e2m1", "fp8_e4m3", "bf16") for r in (NR, SR)]
    results = run_first_moment_curves(CURVE_STREAM, emas, 80, trials=2)
    for ema, result in zip(emas, results):
        _same_result(result, run_first_moment_curve(CURVE_STREAM, ema, 80, trials=2))


@pytest.mark.parametrize("applies_to", APPLIES)
@pytest.mark.parametrize("kind", ["periodic", "adaptive"])
def test_single_run_traces_equal_per_cell_run(kind, applies_to):
    cfg_m, cfg_v = moment_configs("fp4", HYPER, SR)
    if kind == "periodic":
        policy = ResetPolicy.periodic(40, applies_to=applies_to)
    else:
        policy = ResetPolicy.adaptive(
            HYPER.beta2, s0=0.0, p_ss=0.25, applies_to=applies_to
        )
    got = run_reset_training(PROBLEM, cfg_m, cfg_v, policy, STEPS, 4, HYPER,
                             record_trace=True)
    want = oracle.run_reset_training(PROBLEM, cfg_m, cfg_v, policy, STEPS, 4, HYPER,
                                     record_trace=True)
    assert got["final_loss"] == want["final_loss"]
    resets = 0
    for moment in ("trace_m", "trace_v"):
        a, b = got[moment], want[moment]
        assert a.fractions == b.fractions
        assert a.cycle_ks == b.cycle_ks
        assert a.reset_flags == b.reset_flags
        resets += sum(a.reset_flags)
    assert resets > 0  # the reset path ran


@pytest.mark.parametrize("target", ["first", "second"])
@pytest.mark.parametrize(
    "problem", [NoisyQuadratic(dimension=64), SynthLogistic(n_samples=256)],
    ids=["quadratic", "logistic"],
)
def test_skip_study_equals_per_cell_runs(problem, target):
    grid = (0.0, 0.5, 1.0)
    study = run_skip_study(problem, grid, target, STEPS, (0, 1), HYPER)
    assert study.series["final_loss"] == oracle.skip_study_losses(
        problem, grid, target, STEPS, (0, 1), HYPER
    )


def test_duplicate_seeds_train_independent_rows():
    cfg_m, cfg_v = moment_configs("fp4", HYPER, SR)
    policies = [("none", ResetPolicy.none()), ("periodic40", ResetPolicy.periodic(40))]
    study = run_reset_study(
        PROBLEM, [("fp4_sr", cfg_m, cfg_v)], policies, 60, (3, 3, 5), HYPER
    )
    losses = np.reshape(study.series["final_loss"], (2, 3))
    assert losses[0, 0] == losses[0, 1] and losses[1, 0] == losses[1, 1]
    assert study.series["final_loss"][:3] == [
        oracle.run_reset_training(
            PROBLEM, cfg_m, cfg_v, ResetPolicy.none(), 60, s, HYPER
        )["final_loss"]
        for s in (3, 3, 5)
    ]
