"""The batched studies against the per-cell loops they replaced.

``engine_oracle`` keeps the single-state engine and the per-cell training
loops verbatim. Each study below trains every cell of a storage config as
one row of a batch; its final losses, and the stall traces of a single run,
must equal the oracle's bit for bit (``==`` on floats).
"""

import numpy as np
import pytest

from emastall.engine import AdamHyper, ResetPolicy
from emastall.formats import RoundingMode
from emastall.simlab import (
    NoisyQuadratic,
    SynthLogistic,
    moment_configs,
    run_reset_study,
    run_reset_training,
    run_skip_study,
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


@pytest.mark.parametrize("label,fmt,rounding", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_reset_study_equals_per_cell_runs(label, fmt, rounding):
    cfg_m, cfg_v = moment_configs(fmt, HYPER, rounding)
    study = run_reset_study(
        PROBLEM, [(label, cfg_m, cfg_v)], POLICIES, STEPS, SEEDS, HYPER
    )
    expected = [
        oracle.run_reset_training(PROBLEM, cfg_m, cfg_v, policy, STEPS, seed, HYPER)[
            "final_loss"
        ]
        for _, policy in POLICIES
        for seed in SEEDS
    ]
    assert study.series["final_loss"] == expected
    assert study.series["policy"] == [p for p, _ in POLICIES for _ in SEEDS]
    assert study.series["seed"] == list(SEEDS) * len(POLICIES)


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
