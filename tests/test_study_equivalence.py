"""The batched studies against the per-cell loops they replaced.

``engine_oracle`` keeps the single-state engine and the per-cell training
loops verbatim, and ``lockstep_oracle`` the per-config lockstep loop that
the fused study step replaced. The studies below train every cell of every
storage config in one fused loop; their final losses, and their stall
traces, must equal the oracles' bit for bit (``==`` on floats). Each
multi-config call must also equal the one-config calls it combines.
"""

import numpy as np
import pytest

from emastall import engine, simlab
from emastall.engine import AdamHyper, ResetPolicy
from emastall.formats import RoundingMode
from emastall.theory import remaining_error_E, remaining_error_table
from emastall.simlab import (
    GradientStreamSpec,
    NoisyQuadratic,
    SynthLogistic,
    _Skips,
    _train_rows,
    default_ema_config,
    moment_configs,
    run_first_moment_curves,
    run_reset_cells,
    run_reset_study,
    run_reset_training,
    run_skip_study,
    run_stall_curves,
)

import engine_oracle as oracle
import lockstep_oracle

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
        (f"adaptive_{a}", ResetPolicy.adaptive(s0=0.0, p_ss=0.25, applies_to=a))
        for a in APPLIES
    ]
    + [("adaptive_default", ResetPolicy.adaptive())]
)


def _moments(fmt, rounding, beta1=0.9, beta2=0.999):
    return moment_configs(fmt, rounding, beta1, beta2)


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
                ResetPolicy.adaptive(s0=0.0, p_ss=0.25, applies_to="second")]
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


# adaptive rules that differ pairwise, so that no row's rule can stand in
# for another's; the tests' configs differ in beta2
MIXED_ADAPTIVE = [
    ResetPolicy.adaptive(s0=s0, p_ss=p_ss, applies_to=a)
    for s0, p_ss, a in [
        (0.0, 0.25, "both"),
        (0.0, 0.25, "first"),
        (0.3, 0.5, "second"),
        (0.6, 0.3, "both"),
        (0.6, 1.0, "both"),
        (0.1, 0.2, "second"),
        (0.45, 0.4, "first"),
        (0.2, 0.35, "both"),
    ]
]


def test_many_mixed_adaptive_rows_equal_per_cell_runs():
    # each config reads E(k) at its own beta2
    configs = [_moments(None, NR, beta2=0.99), _moments("fp4", SR, beta2=0.9),
               _moments("fp8_e4m3", NR, beta2=0.999)]
    policies = MIXED_ADAPTIVE + [ResetPolicy.none(), ResetPolicy.periodic(30)]
    seeds = (0, 7)
    got = _train_rows(PROBLEM, configs, policies, 120, seeds, HYPER, record_trace=True)
    resetting = set()
    for c, (cfg_m, cfg_v) in enumerate(configs):
        for i, seed in enumerate(seeds):
            for j, policy in enumerate(policies):
                want = oracle.run_reset_training(PROBLEM, cfg_m, cfg_v, policy, 120,
                                                 seed, HYPER, record_trace=True)
                assert got["final_loss"][c, i, j] == want["final_loss"], (c, i, j)
                traces = got["traces"][c][i * len(policies) + j]
                for a, b in zip(traces, (want["trace_m"], want["trace_v"])):
                    assert a.fractions == b.fractions
                    assert a.cycle_ks == b.cycle_ks
                    assert a.reset_flags == b.reset_flags
                    if any(a.reset_flags) and j < len(MIXED_ADAPTIVE):
                        resetting.add(j)
    assert len(resetting) >= 5  # most of the adaptive rules fired


def test_reset_rows_equal_the_per_state_rule():
    # one call over a two-config stack whose rows mix rules, cycle counts
    # (k = 0 among them), accumulated excess and fractions, against the
    # scalar rule per row
    rng = np.random.default_rng(3)
    policies = (MIXED_ADAPTIVE + [ResetPolicy.none(), ResetPolicy.periodic(4)]) * 3
    rows, dim = len(policies), 6
    # each config's rows read E(k) at its own beta2
    configs = [engine.EmaConfig(beta=b, format=None) for b in (0.999, 0.95)]
    batches = []
    for config in configs:
        k = rng.integers(0, 6, rows)
        k[::7] = 0
        excess = np.where(k > 0, rng.uniform(0.0, 3.0, rows), 0.0)
        stored = rng.standard_normal((rows, dim))
        batches.append([engine.EmaState(stored[r], int(k[r]), config, float(excess[r]))
                        for r in range(rows)])
    fractions = rng.uniform(0.0, 1.0, (2, rows))
    for moment in ("first", "second"):
        stack = engine.StateStack(batches, [None, None])
        rules = engine.ResetRows(policies, [moment] * 2, 5, [c.beta for c in configs])
        reset = engine.reset_rows(stack, rules, fractions)
        for c, batch in enumerate(batches):
            for r, policy in enumerate(policies):
                got = stack.state(c, r)
                if policy.applies_to not in (moment, "both"):
                    policy = ResetPolicy.none()
                state = oracle.OracleState(batch[r].stored, batch[r].k, configs[c],
                                           batch[r].excess)
                want, did = oracle.apply_reset_policy(state, policy, configs[c].beta,
                                                      float(fractions[c, r]))
                assert (bool(reset[c, r]), got.k) == (did, want.k), (c, r)
                assert got.excess == want.excess, (c, r)
                assert got.stored.tolist() == want.values().tolist(), (c, r)
        assert reset.any() and not reset.all()


def _assert_cells_equal_per_cell_runs(problem, configs, policies, steps, seeds,
                                      got):
    for c, (cfg_m, cfg_v) in enumerate(configs):
        for i, seed in enumerate(seeds):
            for j, policy in enumerate(policies):
                want = oracle.run_reset_training(problem, cfg_m, cfg_v, policy,
                                                 steps, seed, HYPER)
                assert got[c, i, j] == want["final_loss"], (c, i, j)


def test_non_contiguous_storage_groups_equal_per_cell_runs():
    # fp4's configs sit at places 0 and 2 and bf16's at 3 (sr) and 4 (nr),
    # so each storage key splits into groups of one config
    order = [("fp4", NR), (None, NR), ("fp4", SR), ("bf16", SR), ("bf16", NR)]
    configs = [_moments(fmt, r) for fmt, r in order]
    policies = [ResetPolicy.none(), ResetPolicy.periodic(25),
                ResetPolicy.adaptive(s0=0.0, p_ss=0.25)]
    got = run_reset_cells(PROBLEM, configs, policies, 80, SEEDS, HYPER)
    _assert_cells_equal_per_cell_runs(PROBLEM, configs, policies, 80, SEEDS, got)


@pytest.mark.parametrize("order,runs", [
    ([(None, NR), ("fp4", NR), ("fp4", SR)], [1, 2, 1, 2]),
    ([("fp4", NR), (None, NR), ("fp4", SR)], [1] * 6),
], ids=["contiguous", "non-contiguous"])
def test_in_place_stores_read_back_as_their_states(monkeypatch, order, runs):
    # every storage group, a run of adjacent configs of the two-moment
    # stack, stores in views of the stack's own buffers; after every step,
    # and after its resets, each row of the stack's values reads back as
    # its state
    configs = [_moments(fmt, r) for fmt, r in order]
    policies = [ResetPolicy.none(), ResetPolicy.periodic(25),
                ResetPolicy.adaptive(s0=0.0, p_ss=0.25)]
    real, seen = simlab.reset_rows, {"resets": 0, "runs": set()}

    def read_back(stack):
        for c in range(2 * len(configs)):
            for r in range(stack.k.shape[1]):
                want = stack.state(c, r).values()
                assert stack.values[c, r].tolist() == want.tolist(), (c, r)

    def reset_and_read_back(stack, rules, fractions):
        read_back(stack)
        reset = real(stack, rules, fractions)
        seen["resets"] += int(reset.sum())
        seen["runs"].add(tuple(sel.stop - sel.start for sel, _ in stack.groups))
        read_back(stack)
        return reset

    monkeypatch.setattr(simlab, "reset_rows", reset_and_read_back)
    seeds = (0, 1)
    got = run_reset_cells(PROBLEM, configs, policies, 80, seeds, HYPER)
    assert seen["runs"] == {tuple(runs)}
    assert seen["resets"] > 0
    _assert_cells_equal_per_cell_runs(PROBLEM, configs, policies, 80, seeds, got)


@pytest.mark.parametrize("order,runs", [
    # bf16_sr before bf16_nr, and the m stack's last bf16 (nr) and the v
    # stack's first (sr) in one group across the moment boundary
    ([("bf16", SR), ("fp4", NR), ("bf16", NR)], [1, 1, 2, 1, 1]),
    # one group of both moments, whose stochastic rows draw from the same
    # generators, m's rows first
    ([("bf16", SR)], [2]),
    # full precision across the boundary
    ([(None, NR), ("fp4", SR), (None, NR)], [1, 1, 2, 1, 1]),
    ([("fp8_e4m3", SR), ("fp8_e4m3", NR)], [1, 2, 1]),
], ids=["bf16-sr-first", "bf16-sr-alone", "fp32-across", "fp8-sr-first"])
@pytest.mark.parametrize("skip", [False, True], ids=["resets", "skips"])
def test_groups_across_the_moment_boundary_equal_the_lockstep_loop(
        monkeypatch, order, runs, skip):
    # groups are runs of adjacent configs of the (2 * configs) stack; a run
    # may cross from the first moments to the second, and a nearest config
    # after a stochastic one of its format starts a new run
    configs = [_moments(fmt, r) for fmt, r in order]
    policies = [ResetPolicy.none(), ResetPolicy.periodic(15),
                ResetPolicy.adaptive(s0=0.0, p_ss=0.25)]
    seeds, steps = (0, 5), 50
    real, seen = simlab.reset_rows, set()

    def reset_rows(stack, rules, fractions):
        seen.add(tuple(sel.stop - sel.start for sel, _ in stack.groups))
        return real(stack, rules, fractions)

    def skips():
        if not skip:
            return None
        rows = len(policies) * len(seeds)
        return _Skips("second", [0.4] * rows, [s for s in seeds for _ in policies], 5)

    monkeypatch.setattr(simlab, "reset_rows", reset_rows)
    got = _train_rows(PROBLEM, configs, policies, steps, seeds, HYPER, skips(), True)
    want = lockstep_oracle.train_rows(PROBLEM, configs, policies, steps, seeds, HYPER,
                                      skips(), True)
    assert seen == {tuple(runs)}
    assert got["final_loss"].tolist() == want["final_loss"].tolist()
    for got_c, want_c in zip(got["traces"], want["traces"], strict=True):
        for pair_got, pair_want in zip(got_c, want_c, strict=True):
            for a, b in zip(pair_got, pair_want):
                assert (a.fractions, a.cycle_ks, a.reset_flags) == (
                    b.fractions, b.cycle_ks, b.reset_flags)


def test_interleaved_betas_in_non_contiguous_groups_equal_own_runs():
    # beta2 in {0.99, 0.999} (and beta1 in {0.9, 0.95}) alternates across
    # the stack while every storage key (fp4, fp32, bf16) holds
    # non-adjacent places, so each row's decay is its own config's
    configs = [
        _moments("fp4", NR, 0.9, 0.99),
        _moments(None, NR, 0.95, 0.999),
        _moments("fp4", SR, 0.95, 0.999),
        _moments("bf16", SR, 0.9, 0.99),
        _moments(None, NR, 0.9, 0.99),
        _moments("bf16", NR, 0.95, 0.999),
    ]
    policies = [ResetPolicy.none(), ResetPolicy.periodic(20),
                ResetPolicy.adaptive(s0=0.0, p_ss=0.25)]
    seeds, steps = (0, 4), 60
    got = run_reset_cells(PROBLEM, configs, policies, steps, seeds, HYPER)
    for c, pair in enumerate(configs):
        alone = run_reset_cells(PROBLEM, [pair], policies, steps, seeds, HYPER)
        assert got[c].tolist() == alone[0].tolist(), c
    assert len({tuple(cells.ravel()) for cells in got}) == len(configs)


def test_duplicated_stochastic_config_rounds_like_its_run_alone():
    # two identical fp4_sr entries share one storage group; each draws from
    # its own streams, so each equals its run alone
    configs = [_moments("fp4", SR), _moments("fp4", SR)]
    policies = [ResetPolicy.none(), ResetPolicy.periodic(30)]
    got = run_reset_cells(PROBLEM, configs, policies, 80, SEEDS, HYPER)
    alone = run_reset_cells(PROBLEM, configs[:1], policies, 80, SEEDS, HYPER)
    assert got[0].tolist() == alone[0].tolist() == got[1].tolist()
    _assert_cells_equal_per_cell_runs(PROBLEM, configs[:1], policies, 80, SEEDS,
                                      alone)


def test_logistic_reset_cells_equal_per_cell_runs():
    problem = SynthLogistic(n_samples=256)
    configs = [_moments(None, NR), _moments("fp4", SR), _moments("bf16", NR),
               _moments("fp4", NR)]
    policies = [ResetPolicy.none(), ResetPolicy.periodic(20, applies_to="second"),
                ResetPolicy.adaptive(s0=0.0, p_ss=0.25)]
    got = run_reset_cells(problem, configs, policies, 60, (0, 4), HYPER)
    _assert_cells_equal_per_cell_runs(problem, configs, policies, 60, (0, 4), got)


# every (beta1, beta2) pair of {0.9, 0.95} x {0.99, 0.999}, with members of
# one storage group (fp4) at different betas
MIXED_BETA_CONFIGS = [
    _moments("fp4", SR, 0.9, 0.99),
    _moments("fp4", NR, 0.95, 0.999),
    _moments("fp4", SR, 0.95, 0.99),
    _moments("bf16", NR, 0.9, 0.999),
    _moments(None, NR, 0.95, 0.99),
    _moments("fp8_e4m3", SR, 0.9, 0.999),
]


@pytest.mark.parametrize(
    "problem", [PROBLEM, SynthLogistic(n_samples=256)], ids=["quadratic", "logistic"]
)
def test_mixed_beta_batch_equals_each_configs_own_run(problem):
    # one batch over configs whose betas differ: each config's moments step
    # at its own betas and its adaptive rows read E(k) at its own beta2
    configs = MIXED_BETA_CONFIGS
    policies = [ResetPolicy.none(), ResetPolicy.periodic(20),
                ResetPolicy.adaptive(s0=0.0, p_ss=0.25),
                ResetPolicy.adaptive(s0=0.1, p_ss=0.3, applies_to="second")]
    seeds, steps = (0, 4), 60
    got = run_reset_cells(problem, configs, policies, steps, seeds, HYPER)
    for c, pair in enumerate(configs):
        alone = lockstep_oracle.train_rows(problem, [pair], policies, steps, seeds,
                                           HYPER)
        assert got[c].tolist() == alone["final_loss"][0].tolist(), c
    _assert_cells_equal_per_cell_runs(problem, configs, policies, steps, seeds, got)
    # every config trains its own way, and the adaptive rule fired
    assert len({tuple(cells.ravel()) for cells in got}) == len(configs)
    assert (got[..., 2] != got[..., 0]).any()


# storage pairs for the random grid: the presets' pairs, pairs whose
# moments fall into different storage groups and rounding modes, and pairs
# at other betas
CONFIG_POOL = [_moments(fmt, r) for _, fmt, r in CONFIGS] + [
    (default_ema_config("fp8_e4m3", 0.9, NR), default_ema_config("bf16", 0.999, SR)),
    (default_ema_config("bf16", 0.9, SR), default_ema_config("fp8_e4m3", 0.999, NR)),
    (default_ema_config(None, 0.9), default_ema_config("fp4_e2m2u", 0.999, SR)),
    _moments("fp4", NR, beta2=0.9),
    _moments("fp8_e4m3", SR, beta1=0.95, beta2=0.99),
    _moments(None, NR, beta1=0.8, beta2=0.99),
]


def _random_policy(rng):
    applies = str(rng.choice(APPLIES))
    kind = rng.integers(3)
    if kind == 0:
        return ResetPolicy.none()
    if kind == 1:
        return ResetPolicy.periodic(int(rng.integers(1, 60)), applies_to=applies)
    return ResetPolicy.adaptive(
        s0=float(rng.uniform(0.0, 0.7)), p_ss=float(rng.uniform(0.2, 1.0)),
        applies_to=applies,
    )


@pytest.mark.parametrize("case", range(8))
def test_fused_loop_equals_the_lockstep_loop(case):
    # a fixed, seeded random grid of config orders, policies, seeds, traces
    # and skips against the per-config loop the fused step replaced
    rng = np.random.default_rng([2024, case])
    problem = SynthLogistic(n_samples=128) if case == 7 else PROBLEM
    picks = rng.choice(len(CONFIG_POOL), int(rng.integers(2, 7)))
    configs = [CONFIG_POOL[i] for i in picks]
    policies = [_random_policy(rng) for _ in range(int(rng.integers(1, 5)))]
    seeds = tuple(int(s) for s in rng.integers(0, 4, int(rng.integers(1, 4))))
    steps = int(rng.integers(20, 70))
    record_trace = bool(case % 2)

    def skips():
        # a fresh copy per run: _Skips draws from streams of its own
        if case not in (2, 3):
            return None
        rows = len(policies) * len(seeds)
        return _Skips(str(rng_skip.choice(["first", "second"])),
                      [0.5] * rows, [s for s in seeds for _ in policies], 5)

    rng_skip = np.random.default_rng(case)
    got = _train_rows(problem, configs, policies, steps, seeds, HYPER, skips(),
                      record_trace)
    rng_skip = np.random.default_rng(case)
    want = lockstep_oracle.train_rows(problem, configs, policies, steps, seeds,
                                      HYPER, skips(), record_trace)
    assert got["final_loss"].tolist() == want["final_loss"].tolist()
    assert ("traces" in got) == record_trace
    if record_trace:
        for got_c, want_c in zip(got["traces"], want["traces"], strict=True):
            for pair_got, pair_want in zip(got_c, want_c, strict=True):
                for a, b in zip(pair_got, pair_want):
                    assert (a.tensor_id, a.fractions, a.cycle_ks, a.reset_flags) == (
                        b.tensor_id, b.fractions, b.cycle_ks, b.reset_flags)


@pytest.mark.parametrize("beta2", [0.99, 0.999, 0.9999])
def test_remaining_error_table_equals_the_scalar_rule(beta2):
    steps = 20_000
    table = remaining_error_table(beta2, steps)
    assert len(table) == steps + 1 and table[0] == np.inf
    assert table[1:].tolist() == [remaining_error_E(k, beta2)
                                  for k in range(1, steps + 1)]


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_stacked_adam_update_equals_per_row_updates(weight_decay):
    rng = np.random.default_rng(9)
    hyper = AdamHyper(lr=0.01, weight_decay=weight_decay)
    params = rng.standard_normal((3, 4, 50))
    params[0, :, :5] = -0.0  # signed zeros go through the decay term
    params[1, :, :5] = 0.0
    m, v = rng.standard_normal(params.shape), rng.random(params.shape)
    k_m, k_v = rng.integers(1, 400, (3, 4)), rng.integers(1, 400, (3, 4))
    # one beta pair per config
    beta1 = np.array([0.9, 0.95, 0.8]).reshape(3, 1, 1)
    beta2 = np.array([0.999, 0.99, 0.9]).reshape(3, 1, 1)
    got = engine._adam_update(params, m, v, k_m, k_v, beta1, beta2, hyper)
    for c, r in np.ndindex(3, 4):
        want = oracle._adam_update(params[c, r], m[c, r], v[c, r], int(k_m[c, r]),
                                   int(k_v[c, r]), float(beta1[c, 0, 0]),
                                   float(beta2[c, 0, 0]), hyper)
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
        _same_result(result, run_stall_curves(CURVE_STREAM, [ema], 80, trials=2)[0])


def test_multi_config_first_moment_curves_equal_one_config_runs():
    emas = [default_ema_config(name, 0.9, r)
            for name in ("fp4_e2m1", "fp8_e4m3", "bf16") for r in (NR, SR)]
    results = run_first_moment_curves(CURVE_STREAM, emas, 80, trials=2)
    for ema, result in zip(emas, results):
        _same_result(result,
                     run_first_moment_curves(CURVE_STREAM, [ema], 80, trials=2)[0])


@pytest.mark.parametrize("applies_to", APPLIES)
@pytest.mark.parametrize("kind", ["periodic", "adaptive"])
def test_single_run_traces_equal_per_cell_run(kind, applies_to):
    cfg_m, cfg_v = moment_configs("fp4", SR)
    if kind == "periodic":
        policy = ResetPolicy.periodic(40, applies_to=applies_to)
    else:
        policy = ResetPolicy.adaptive(s0=0.0, p_ss=0.25, applies_to=applies_to)
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
    # the studies reject a repeated seed; the cell driver keeps one row per
    # entry of seeds
    cfg_m, cfg_v = moment_configs("fp4", SR)
    policies = [ResetPolicy.none(), ResetPolicy.periodic(40)]
    cells = run_reset_cells(
        PROBLEM, [(cfg_m, cfg_v)], policies, 60, (3, 3, 5), HYPER
    )
    losses = cells[0].T  # (policy, seed)
    assert losses[0, 0] == losses[0, 1] and losses[1, 0] == losses[1, 1]
    assert losses[0].tolist() == [
        oracle.run_reset_training(
            PROBLEM, cfg_m, cfg_v, ResetPolicy.none(), 60, s, HYPER
        )["final_loss"]
        for s in (3, 3, 5)
    ]
