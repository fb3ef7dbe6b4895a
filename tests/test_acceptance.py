"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria run at their stated tolerances and runtime budgets. The startup
window table (criterion 4) is asserted cell by cell against the published
values; see the decisions ledger for the one cell whose published value
disagrees with the formula it cites.
"""

import time

import numpy as np

from gate_sweep import run_gate_sweep

from emastall.cli import main as cli_main
from emastall.engine import AdamHyper, ResetPolicy
from emastall.formats import (
    FP4_E2M2U,
    PRESETS,
    RoundingMode,
    decode_array,
    round_stochastic_array,
)
from emastall.simlab import (
    GradientStreamSpec,
    NoisyQuadratic,
    default_ema_config,
    moment_configs,
    run_reset_cells,
    run_reset_study,
    run_stall_curves,
)
from emastall.theory import (
    TheoryInputs,
    chi2_1_cdf,
    chi2_1_inv,
    n_stat,
    n_stat_inf,
    p_stall_nr_ss,
    p_stall_nr_transient,
    p_stall_sr_ss,
    remaining_error_E,
    reset_period_Kstar,
    rhohat_value,
    startup_window,
)

B2 = 0.999
FORMAT_NAMES = ("bf16", "fp8_e4m3", "fp4_e2m2u")


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_table1_nr_steady_state():
    t0 = time.perf_counter()
    rho = {name: TheoryInputs(beta2=B2, format=PRESETS[name]).rhohat
           for name in FORMAT_NAMES}
    p = {name: p_stall_nr_ss(rho[name]) for name in FORMAT_NAMES}
    elapsed = time.perf_counter() - t0
    checks = [
        abs(rho["bf16"] - 2.71) <= 0.01,
        abs(p["bf16"] - 0.946) <= 0.001,
        # the wide-format table entries carry one decimal place
        round(rho["fp8_e4m3"], 1) == 43.3,
        round(rho["fp4_e2m2u"], 1) == 86.6,
        p["fp8_e4m3"] >= 0.9995,
        p["fp4_e2m2u"] >= 0.9995,
        elapsed < 1.0,
    ]
    report(
        1,
        all(checks),
        f"rhohat={ {k: round(v, 3) for k, v in rho.items()} } "
        f"p_nr={ {k: round(v, 4) for k, v in p.items()} } ({elapsed:.2f}s)",
    )


def test_criterion_02_table2_sr_steady_state():
    t0 = time.perf_counter()
    got = [p_stall_sr_ss(rhohat_value(PRESETS[n].epsilon, B2)) for n in FORMAT_NAMES]
    elapsed = time.perf_counter() - t0
    expected = (0.825, 0.989, 0.994)
    ok = all(abs(g - e) <= 0.003 for g, e in zip(got, expected)) and elapsed < 1.0
    report(2, ok, f"p_sr={[round(g, 4) for g in got]} vs {expected} ({elapsed:.2f}s)")


def test_criterion_03_reset_period_tables():
    t0 = time.perf_counter()
    expected = {
        0.5: (1004, 295, 206),
        0.6: (1116, 320, 224),
        0.7: (1262, 351, 246),
    }
    bad = []
    for s0, row in expected.items():
        for name, want in zip(FORMAT_NAMES, row):
            got = reset_period_Kstar(
                TheoryInputs(beta2=B2, format=PRESETS[name], s0=s0)
            )
            if abs(got - want) > 2:
                bad.append((name, s0, got, want))
    elapsed = time.perf_counter() - t0
    report(3, not bad and elapsed < 5.0, f"deviations={bad} ({elapsed:.2f}s)")


def test_criterion_04_startup_window_table():
    t0 = time.perf_counter()
    published = {
        "bf16": (0.17, {0.5: 76, 0.8: 464, 0.9: 1051, 0.95: 3044}),
        "fp8_e4m3": (0.53, {0.5: 0, 0.8: 15, 0.9: 36, 0.95: 61}),
        "fp4_e2m2u": (0.97, {0.5: 0, 0.8: 0, 0.9: 0, 0.95: 0}),
    }
    mismatches = []
    for name, (p_init, cells) in published.items():
        inputs = TheoryInputs(beta2=B2, format=PRESETS[name], p_init=p_init)
        for p0, want in cells.items():
            got = startup_window(p0, inputs)
            if got != want:
                mismatches.append((name, p0, got, want))
    elapsed = time.perf_counter() - t0
    report(4, not mismatches and elapsed < 1.0,
           f"cells differing from published values={mismatches} ({elapsed:.2f}s)")


def test_criterion_05_monte_carlo_vs_theory():
    t0 = time.perf_counter()
    spec = GradientStreamSpec(dimension=10_000, seed=1)
    gaps = {}
    envelope_viol = {}
    cells = [(name, mode, tag) for name in FORMAT_NAMES
             for mode, tag in ((RoundingMode.NEAREST_EVEN, "nr"),
                               (RoundingMode.STOCHASTIC, "sr"))]
    # the six configs step in lockstep over one draw of the stream per step
    results = run_stall_curves(
        spec, [default_ema_config(name, B2, mode) for name, mode, _ in cells],
        steps=5000,
    )
    for (name, _, tag), res in zip(cells, results):
        gaps[f"{name}/{tag}"] = (
            res.metrics["measured_plateau"] - res.metrics["theory_ss"]
        )
        if tag == "nr":
            f = np.asarray(res.series["stalled_fraction"])
            w = f[: len(f) // 50 * 50].reshape(-1, 50).mean(axis=1)
            envelope_viol[name] = float(np.max(np.maximum(0, w[:-1] - w[1:])))
    elapsed = time.perf_counter() - t0
    ok = all(abs(g) <= 0.05 for g in gaps.values()) and all(
        v <= 0.02 for v in envelope_viol.values()
    )
    report(
        5, ok,
        f"plateau gaps={ {k: round(v, 4) for k, v in gaps.items()} } "
        f"monotone violations={ {k: round(v, 4) for k, v in envelope_viol.items()} } "
        f"({elapsed:.0f}s)",
    )


def test_criterion_06_exhaustive_gate_check():
    t0 = time.perf_counter()
    checked, mismatches = run_gate_sweep(FP4_E2M2U)
    elapsed = time.perf_counter() - t0
    report(6, mismatches == 0 and elapsed < 10.0,
           f"{checked} state-signal pairs, {mismatches} mismatches ({elapsed:.1f}s)")


def test_criterion_07_sr_unbiasedness():
    rng = np.random.default_rng(0)
    fmts = list(PRESETS.values())
    n = 100_000
    worst = 0.0
    for _ in range(100):
        fmt = fmts[rng.integers(0, len(fmts))]
        x = float(np.exp(rng.uniform(np.log(fmt.s_min * 2), np.log(fmt.x_max * 0.99))))
        if fmt.sign_bits and rng.random() < 0.5:
            x = -x
        vals = decode_array(fmt, round_stochastic_array(fmt, np.full(n, x), rng))
        support = np.sort(np.unique(vals))
        if len(support) == 1:
            assert support[0] == x  # exactly representable draw
            continue
        lo, hi = support[0], support[-1]
        p = (x - lo) / (hi - lo)
        sigma = (hi - lo) * np.sqrt(max(p * (1 - p), 1e-12) / n)
        worst = max(worst, abs(vals.mean() - x) / sigma)
    report(7, worst < 3.0, f"worst deviation {worst:.2f} sigma over 100 pairs")


def test_criterion_08_reset_benefit_ordering():
    t0 = time.perf_counter()
    problem = NoisyQuadratic()
    hyper = AdamHyper(lr=0.01)
    seeds = (0, 1, 2, 3, 4)
    steps = 8000
    kstar = reset_period_Kstar(TheoryInputs(beta2=B2, format=FP4_E2M2U, s0=0.6))
    cm_nr, cv_nr = moment_configs("fp4", RoundingMode.NEAREST_EVEN, beta2=B2)
    cm_sr, cv_sr = moment_configs("fp4", RoundingMode.STOCHASTIC, beta2=B2)
    cm_fp, cv_fp = moment_configs(None, beta2=B2)
    configs = [
        ("fp32", cm_fp, cv_fp),
        ("fp4_nr", cm_nr, cv_nr),
        ("fp4_sr", cm_sr, cv_sr),
    ]
    policies = [("none", ResetPolicy.none()),
                (f"periodic{kstar}", ResetPolicy.periodic(kstar))]
    study = run_reset_study(problem, configs, policies, steps, seeds, hyper)
    med = study.metrics

    # (a) the theory period strictly improves fp4 under nearest rounding
    a_ok = (
        med[f"median@fp4_nr/periodic{kstar}"] < med["median@fp4_nr/none"]
    )

    # (b) the full-precision control moves less than the inter-seed IQR
    fp32_none = [
        l for c, p, l in zip(study.series["config"], study.series["policy"],
                             study.series["final_loss"])
        if c == "fp32" and p == "none"
    ]
    iqr = float(np.percentile(fp32_none, 75) - np.percentile(fp32_none, 25))
    delta = abs(
        med[f"median@fp32/periodic{kstar}"] - med["median@fp32/none"]
    )
    b_ok = delta < iqr

    # (c) loss within 5% of its minimum across a 4x period range around K*
    sweep_periods = (kstar // 2, kstar, 2 * kstar)
    sweep_medians = {
        K: med[f"median@fp4_nr/periodic{K}"]
        for K in sweep_periods if f"median@fp4_nr/periodic{K}" in med
    }
    # the periods the study did not run train as one batch: fp4_nr x
    # periods x seeds
    extra = [K for K in sweep_periods if K not in sweep_medians]
    losses = run_reset_cells(
        problem, [(cm_nr, cv_nr)], [ResetPolicy.periodic(K) for K in extra],
        steps, seeds, hyper,
    )[0]
    for j, K in enumerate(extra):
        sweep_medians[K] = float(np.median(losses[:, j].tolist()))
    flatness = max(sweep_medians.values()) / min(sweep_medians.values())
    c_ok = flatness <= 1.05

    elapsed = time.perf_counter() - t0
    ok = a_ok and b_ok and c_ok and elapsed < 1800
    report(
        8, ok,
        f"(a) fp4 {med['median@fp4_nr/none']:.2e} -> "
        f"{med[f'median@fp4_nr/periodic{kstar}']:.2e} with K*={kstar}; "
        f"(b) fp32 |dmedian|={delta:.2e} vs IQR={iqr:.2e}; "
        f"(c) sweep max/min={flatness:.3f} over {sweep_periods} ({elapsed:.0f}s)",
    )


def test_criterion_09_determinism_byte_identical(tmp_path, capsys):
    commands = [
        ["stall-curve", "--format", "fp4_e2m2u", "--rounding", "sr",
         "--preset", "quick", "--seed", "5"],
        ["first-moment", "--preset", "quick", "--rounding", "sr", "--seed", "5"],
        ["skip-study", "--preset", "quick"],
        ["reset-study", "--preset", "quick", "--steps", "300"],
    ]
    all_ok = True
    for i, cmd in enumerate(commands):
        a = tmp_path / f"a{i}"
        b = tmp_path / f"b{i}"
        assert cli_main(cmd + ["--out", str(a)]) == 0
        assert cli_main(cmd + ["--out", str(b)]) == 0
        for suffix in (".csv", ".json"):
            if a.with_suffix(suffix).read_bytes() != b.with_suffix(suffix).read_bytes():
                all_ok = False
    capsys.readouterr()
    report(9, all_ok, f"{len(commands)} experiment commands re-ran byte-identically")


def test_criterion_10_algebraic_identities():
    inf = n_stat_inf(B2)
    worst_identity = max(
        abs(remaining_error_E(K, B2) - (1.0 - n_stat(K, B2) / inf))
        for K in range(1, 10_001)
    )

    worst_roundtrip = 0.0
    for x in np.linspace(0.01, 40.0, 100):
        p = chi2_1_cdf(float(x))
        worst_roundtrip = max(worst_roundtrip, abs(chi2_1_cdf(chi2_1_inv(p)) - p))

    crossing_ok = True
    for name in FORMAT_NAMES:
        inputs = TheoryInputs(beta2=B2, format=PRESETS[name], s0=0.6)
        kstar = reset_period_Kstar(inputs)
        rho = inputs.rhohat
        pss = p_stall_nr_ss(rho)
        acc = 0.0
        for K in range(1, 2 * kstar + 1):
            s = p_stall_nr_transient(K, B2, rho) / pss
            acc += max(0.0, (s - 0.6) / 0.4)
            below = acc / K < remaining_error_E(K, B2)
            if (K < kstar) != below:
                crossing_ok = False

    ok = worst_identity < 1e-12 and worst_roundtrip < 1e-9 and crossing_ok
    report(
        10, ok,
        f"E(K) identity worst={worst_identity:.1e}, chi2 round-trip "
        f"worst={worst_roundtrip:.1e}, crossing scan unique={crossing_ok}",
    )
