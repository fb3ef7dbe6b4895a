"""Predictor tests: high-precision series oracles, Monte Carlo oracles,
and the published table values."""

import math
import re

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from emastall.formats import BF16, FP4_E2M2U, FP8_E4M3
from emastall.theory import (
    TheoryInputs,
    ThresholdUnreachableError,
    avg_excess_staleness,
    chi2_1_cdf,
    chi2_1_inv,
    effective_decay,
    erf,
    n_stat,
    n_stat_inf,
    p_init_model,
    p_stall_nr_ss,
    p_stall_nr_transient,
    p_stall_sr_ss,
    period_columns,
    remaining_error_E,
    remaining_error_table,
    reset_period_Kstar,
    rhohat_value,
    stall_columns,
    startup_window,
    window_columns,
)

B2 = 0.999
RHO_BF16 = rhohat_value(2.0**-7, B2)
RHO_FP8 = rhohat_value(2.0**-3, B2)
RHO_FP4 = rhohat_value(2.0**-2, B2)


def erf_series_oracle(x: float) -> float:
    """Slow Maclaurin series for erf in 50-digit arithmetic."""
    with mp.workdps(50):
        xm = mp.mpf(x)
        total = mp.mpf(0)
        for n in range(400):
            total += (-1) ** n * xm ** (2 * n + 1) / (mp.factorial(n) * (2 * n + 1))
        return float(2 / mp.sqrt(mp.pi) * total)


def cdf_oracle(x: float) -> float:
    with mp.workdps(50):
        return float(mp.erf(mp.sqrt(mp.mpf(x) / 2)))


def inv_oracle(p: float) -> float:
    lo, hi = mp.mpf(0), mp.mpf(1)
    with mp.workdps(50):
        while mp.erf(mp.sqrt(hi / 2)) < p:
            hi *= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if mp.erf(mp.sqrt(mid / 2)) < p:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def sr_closed_form_oracle(rho: float) -> float:
    """Piecewise-exact integral of the SR soft gate against chi2_1."""
    with mp.workdps(40):
        r = mp.mpf(rho)
        y_lo = mp.sqrt(max(mp.mpf(0), 1 - 2 * r))
        y_hi = mp.sqrt(1 + 2 * r)

        def phi(y):
            return mp.exp(-y * y / 2) / mp.sqrt(2 * mp.pi)

        def Phi(y):
            return (1 + mp.erf(y / mp.sqrt(2))) / 2

        def int_y2phi(a, b):
            return (Phi(b) - Phi(a)) - (b * phi(b) - a * phi(a))

        def piece(a, b, sign):
            # tent = 1 - sign*(1 - y^2)/(2 rho) on [a, b]
            base = (1 - sign / (2 * r)) * (Phi(b) - Phi(a))
            quad = sign / (2 * r) * int_y2phi(a, b)
            return base + quad

        left = piece(y_lo, mp.mpf(1), +1)
        right = piece(mp.mpf(1), y_hi, -1)
        return float(2 * (left + right))


class TestErf:
    def test_matches_series_oracle_to_1e10(self):
        for x in np.linspace(0.0, 8.0, 161):
            assert abs(erf(float(x)) - erf_series_oracle(float(x))) < 1e-10

    def test_odd_symmetry_and_tails(self):
        assert erf(0.0) == 0.0
        assert erf(-1.3) == -erf(1.3)
        assert erf(30.0) == 1.0


class TestChi2Cdf:
    def test_zero(self):
        assert chi2_1_cdf(0.0) == 0.0

    def test_paper_value_at_3p71(self):
        assert round(chi2_1_cdf(3.71), 3) == 0.946

    def test_matches_oracle(self):
        for x in np.linspace(0.0, 50.0, 201):
            assert abs(chi2_1_cdf(float(x)) - cdf_oracle(float(x))) < 1e-12

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(101)
        z = rng.standard_normal(10_000_000) ** 2
        for x in (0.5, 1.0, 2.0, 3.71, 5.0, 10.0, 20.0, 50.0):
            emp = float(np.mean(z <= x))
            f = chi2_1_cdf(x)
            sigma = math.sqrt(max(f * (1 - f), 1e-12) / len(z))
            assert abs(emp - f) < 3 * sigma + 1e-9, x

    def test_monotone_and_bounded(self):
        grid = np.linspace(0, 60, 400)
        vals = [chi2_1_cdf(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi2_1_cdf(-0.1)


class TestChi2Inv:
    def test_zero(self):
        assert chi2_1_inv(0.0) == 0.0

    def test_round_trip_at_one(self):
        assert abs(chi2_1_inv(chi2_1_cdf(1.0)) - 1.0) < 1e-9

    def test_worked_value(self):
        # value used by the startup-window worked example; the bisection
        # oracle gives 0.271391, quoted elsewhere as roughly 0.2715
        got = chi2_1_inv(0.3976)
        assert abs(got - inv_oracle(0.3976)) < 1e-9
        assert abs(got - 0.2715) < 2e-4

    def test_probability_space_round_trip(self):
        for x in np.linspace(0.01, 40.0, 80):
            p = chi2_1_cdf(float(x))
            assert abs(chi2_1_cdf(chi2_1_inv(p)) - p) < 1e-9

    def test_value_space_round_trip_where_conditioned(self):
        # the inverse is ill-conditioned for p near 1, so value-space
        # identity is only meaningful while the density is not negligible
        for x in np.linspace(0.01, 20.0, 60):
            assert abs(chi2_1_inv(chi2_1_cdf(float(x))) - x) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_1_inv(1.0)
        with pytest.raises(ValueError):
            chi2_1_inv(-0.2)


class TestRhohat:
    def test_table_values(self):
        assert abs(RHO_BF16 - 2.71) < 0.005
        assert abs(RHO_FP8 - 43.3) < 0.05
        assert abs(RHO_FP4 - 86.6) < 0.05

    def test_from_inputs(self):
        ti = TheoryInputs(beta2=B2, format=BF16)
        assert ti.rhohat == RHO_BF16

    def test_beta2_one_rejected(self):
        with pytest.raises(ValueError):
            rhohat_value(0.125, 1.0)


@pytest.mark.parametrize("field,value,message", [
    ("format", "bf16", "format must be an FpFormat, got 'bf16'"),
    ("format", None, "format must be an FpFormat, got None"),
    ("block_size_B", 2.5, "block_size_B must be an integer >= 1, got 2.5"),
    ("block_size_B", True, "block_size_B must be an integer >= 1, got True"),
    ("block_size_B", 0, "block_size_B must be an integer >= 1, got 0"),
])
def test_theory_inputs_reject_unusable_fields(field, value, message):
    # a string format once failed later as an AttributeError in rhohat, and
    # a block size of 2.5 was accepted
    with pytest.raises(ValueError, match=f"^{message}$"):
        TheoryInputs(**{"beta2": B2, "format": BF16, field: value})


def test_theory_inputs_take_numpy_integer_block_sizes():
    assert TheoryInputs(beta2=B2, format=BF16, block_size_B=np.int64(16)).block_size_B == 16


class TestNrSteadyState:
    def test_table_values(self):
        assert abs(p_stall_nr_ss(RHO_BF16) - 0.946) < 0.001
        assert p_stall_nr_ss(RHO_FP8) >= 0.9995
        assert p_stall_nr_ss(RHO_FP4) >= 0.9995

    def test_vanishes_as_rho_to_zero(self):
        assert p_stall_nr_ss(1e-8) < 1e-6

    def test_monotone_in_rho(self):
        rhos = np.geomspace(0.01, 100, 60)
        vals = [p_stall_nr_ss(float(r)) for r in rhos]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_small_rho_uses_two_sided_form(self):
        rho = 0.5
        expected = cdf_oracle(1.5) - cdf_oracle(0.5)
        assert abs(p_stall_nr_ss(rho) - expected) < 1e-12


class TestSrSteadyState:
    def test_table_values(self):
        assert abs(p_stall_sr_ss(RHO_BF16) - 0.825) < 0.003
        assert abs(p_stall_sr_ss(RHO_FP8) - 0.989) < 0.002
        assert abs(p_stall_sr_ss(RHO_FP4) - 0.994) < 0.002

    def test_against_closed_form_oracle(self):
        for rho in (0.3, 0.5, 1.0, 2.71, 10.0, RHO_FP8, RHO_FP4):
            assert abs(p_stall_sr_ss(rho) - sr_closed_form_oracle(rho)) < 1e-7, rho

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(202)
        z = rng.standard_normal(1_000_000) ** 2
        for rho in (0.3, 1.0, RHO_BF16, 10.0, RHO_FP8, RHO_FP4):
            gate = np.maximum(0.0, 1.0 - np.abs(z - 1.0) / (2 * rho))
            emp = float(gate.mean())
            sigma = float(gate.std()) / math.sqrt(len(z))
            assert abs(p_stall_sr_ss(rho) - emp) < 3 * sigma + 1e-9, rho

    def test_large_rho_approximation(self):
        # 1 - mu1 / (2 rho), with mu1 = E|z - 1| = 4 phi(1) for z ~ chi2_1
        mu1 = 4 * math.exp(-0.5) / math.sqrt(2 * math.pi)
        with mp.workdps(30):
            mean_abs = mp.quad(lambda y: abs(y * y - 1) * mp.npdf(y),
                               [-mp.inf, -1, 0, 1, mp.inf])
        assert abs(mu1 - float(mean_abs)) < 1e-15
        for rho in (40.0, RHO_FP8, 60.0, RHO_FP4, 200.0):
            assert abs(p_stall_sr_ss(rho) - (1.0 - mu1 / (2.0 * rho))) < 2e-3

    def test_soft_gate_below_hard_gate(self):
        for rho in (1.0, 2.0, RHO_BF16, 10.0, RHO_FP8, RHO_FP4):
            assert p_stall_sr_ss(rho) <= p_stall_nr_ss(rho)


class TestNonFiniteRho:
    @pytest.mark.parametrize("rho", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("predictor", [
        p_stall_nr_ss,
        p_stall_sr_ss,
        lambda rho: p_stall_nr_transient(10, B2, rho),
    ], ids=["nr_ss", "sr_ss", "nr_transient"])
    def test_rejected(self, predictor, rho):
        # an infinite rhohat sent the SR integral into endless recursion, and
        # NaN came back as a NaN probability
        with pytest.raises(ValueError, match="^rhohat must be positive and finite"):
            predictor(rho)


class TestSrCap:
    @pytest.mark.parametrize("fmt", [BF16, FP8_E4M3, FP4_E2M2U], ids=lambda f: f.name)
    def test_at_most_one_as_beta2_approaches_one(self, fmt):
        # the quadrature once returned 1.0000000000000062 here for bf16
        rho = rhohat_value(fmt.epsilon, 0.9999999999999999)
        assert p_stall_sr_ss(rho) == 1.0

    def test_cap_leaves_the_sweep_range_alone(self):
        # the cap binds only past the quadrature's error: across beta2 in
        # [0.99, 0.9999] every value is below 1 and tracks the closed form
        for fmt in (BF16, FP8_E4M3, FP4_E2M2U):
            for b2 in np.linspace(0.99, 0.9999, 20):
                rho = rhohat_value(fmt.epsilon, float(b2))
                p = p_stall_sr_ss(rho)
                assert p < 1.0
                assert abs(p - sr_closed_form_oracle(rho)) < 1e-6


class TestTransient:
    def test_zero_steps(self):
        assert p_stall_nr_transient(0, B2, RHO_BF16) == 0.0

    def test_limit_is_steady_state(self):
        assert abs(
            p_stall_nr_transient(10**6, B2, RHO_BF16) - p_stall_nr_ss(RHO_BF16)
        ) < 1e-12

    def test_worked_example_crossing_at_76(self):
        p0_eff = (0.5 - 0.17) / (1 - 0.17)
        assert p_stall_nr_transient(76, B2, RHO_BF16) >= p0_eff
        assert p_stall_nr_transient(75, B2, RHO_BF16) < p0_eff

    def test_monotone_for_rho_ge_one(self):
        for rho in (1.0, RHO_BF16, RHO_FP4):
            vals = [p_stall_nr_transient(j, B2, rho) for j in range(0, 5000, 25)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_general_two_sided_form_for_small_rho(self):
        j, rho = 500, 0.5
        ph = 1 - B2**j
        expected = cdf_oracle(ph * 1.5) - cdf_oracle(ph * 0.5)
        assert abs(p_stall_nr_transient(j, B2, rho) - expected) < 1e-12


class TestEffectiveDecay:
    def test_no_stalling(self):
        beta_eff, tau_eff = effective_decay(B2, 0.0)
        assert beta_eff == B2
        assert abs(tau_eff - 1000.0) < 1e-9

    def test_half_stalling(self):
        beta_eff, tau_eff = effective_decay(B2, 0.5)
        assert abs(beta_eff - 0.9995) < 1e-12
        assert abs(tau_eff - 2000.0) < 1e-9

    def test_bf16_plateau_time_constant(self):
        _, tau_eff = effective_decay(B2, 0.946)
        assert abs(tau_eff - 18518.5) < 0.5

    def test_full_stalling_sentinel(self):
        beta_eff, tau_eff = effective_decay(B2, 1.0)
        assert beta_eff == 1.0
        assert tau_eff == math.inf


class TestInitFloorModel:
    def test_vanishing_tau(self):
        # BF16's subnormal floor is astronomically small relative to x_max
        ti = TheoryInputs(beta2=B2, format=BF16, block_size_B=128)
        assert p_init_model(ti) < 1e-9

    def test_all_zero_signals(self):
        ti = TheoryInputs(beta2=B2, format=FP4_E2M2U, p_zero=1.0)
        assert p_init_model(ti) == 1.0

    def test_order_statistic_monte_carlo_oracle(self):
        # draw blocks of chi2_1 variates, scale by the block max, count
        # sub-threshold entries; the typical-quantile model tracks this
        # within its documented heuristic error
        ti = TheoryInputs(beta2=B2, format=FP4_E2M2U, block_size_B=128)
        rng = np.random.default_rng(303)
        z = rng.standard_normal((200_000, 128)) ** 2
        sim = float(np.mean(z / z.max(axis=1, keepdims=True) < ti.tau_crush))
        assert abs(p_init_model(ti) - sim) < 0.03

    def test_sr_variant_not_above_nr(self):
        for fmt, b in ((FP4_E2M2U, 128), (FP8_E4M3, 1024), (FP8_E4M3, 64)):
            ti = TheoryInputs(beta2=B2, format=fmt, block_size_B=b)
            assert p_init_model(ti, mode_sr=True) <= p_init_model(ti)

    def test_p_zero_mixes_linearly(self):
        ti0 = TheoryInputs(beta2=B2, format=FP4_E2M2U, p_zero=0.0)
        ti4 = TheoryInputs(beta2=B2, format=FP4_E2M2U, p_zero=0.4)
        f = p_init_model(ti0)
        assert abs(p_init_model(ti4) - (0.4 + 0.6 * f)) < 1e-12


def jstar_oracle(P0: float, p_init: float, rho: float, beta2: float):
    """Independent startup-window computation in 50-digit arithmetic."""
    if P0 <= p_init:
        return 0
    with mp.workdps(50):
        p0_eff = (mp.mpf(P0) - mp.mpf(p_init)) / (1 - mp.mpf(p_init))
        lo, hi = mp.mpf(0), mp.mpf(1)
        while mp.erf(mp.sqrt(hi / 2)) < p0_eff:
            hi *= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if mp.erf(mp.sqrt(mid / 2)) < p0_eff:
                lo = mid
            else:
                hi = mid
        phi_star = (lo + hi) / 2 / (1 + mp.mpf(rho))
        if phi_star >= 1:
            return None
        return int(mp.ceil(mp.log(1 - phi_star) / mp.log(mp.mpf(beta2))))


class TestStartupWindow:
    def test_bf16_row_vs_oracle(self):
        ti = TheoryInputs(beta2=B2, format=BF16, p_init=0.17)
        for p0 in (0.5, 0.8, 0.9, 0.95):
            assert startup_window(p0, ti) == jstar_oracle(p0, 0.17, RHO_BF16, B2)

    def test_bf16_published_cells(self):
        # the P0=0.95 cell is checked in the acceptance suite, where the
        # published value is compared against this formula's output
        ti = TheoryInputs(beta2=B2, format=BF16, p_init=0.17)
        assert startup_window(0.5, ti) == 76
        assert startup_window(0.8, ti) == 464
        assert startup_window(0.9, ti) == 1051

    def test_fp8_row(self):
        ti = TheoryInputs(beta2=B2, format=FP8_E4M3, p_init=0.53)
        assert [startup_window(p, ti) for p in (0.5, 0.8, 0.9, 0.95)] == [0, 15, 36, 61]

    def test_fp4_row_all_zero(self):
        ti = TheoryInputs(beta2=B2, format=FP4_E2M2U, p_init=0.97)
        assert [startup_window(p, ti) for p in (0.5, 0.8, 0.9, 0.95)] == [0, 0, 0, 0]

    def test_monotone_in_p0(self):
        ti = TheoryInputs(beta2=B2, format=BF16, p_init=0.17)
        vals = [startup_window(p, ti) for p in np.linspace(0.2, 0.95, 16)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_nonincreasing_in_rho(self):
        for p0 in (0.5, 0.9):
            js = [
                startup_window(p0, TheoryInputs(beta2=B2, format=f))
                for f in (BF16, FP8_E4M3, FP4_E2M2U)
            ]
            assert all(b <= a for a, b in zip(js, js[1:]))

    def test_zero_floor_gives_larger_windows(self):
        ti0 = TheoryInputs(beta2=B2, format=BF16, p_init=0.0)
        ti17 = TheoryInputs(beta2=B2, format=BF16, p_init=0.17)
        for p0 in (0.5, 0.8, 0.9):
            assert startup_window(p0, ti0) > startup_window(p0, ti17)

    def test_threshold_unreachable(self):
        # tiny rho: even the steady state stays below an aggressive target
        ti = TheoryInputs(beta2=0.5, format=BF16)
        with pytest.raises(ThresholdUnreachableError):
            startup_window(0.99, ti)

    def test_window_columns_and_intermediates(self):
        # the effective target and the state scale it needs, recomputed
        # from chi2_1_inv, give the column's j*
        ti = TheoryInputs(beta2=B2, format=BF16, p_init=0.17)
        row = window_columns(ti, (0.5,))
        assert row == {"p_init": 0.17, "jstar@0.5": startup_window(0.5, ti)}
        p0_eff = (0.5 - ti.p_init) / (1.0 - ti.p_init)
        assert abs(p0_eff - (0.33 / 0.83)) < 1e-12
        phi_star = chi2_1_inv(p0_eff) / (1.0 + ti.rhohat)
        assert 0 < phi_star < 1
        assert row["jstar@0.5"] == math.ceil(math.log1p(-phi_star) / math.log(B2)) == 76


class TestRemainingError:
    def test_limit(self):
        assert remaining_error_E(10**6, B2) < 1e-300 or remaining_error_E(10**6, B2) == 0.0

    def test_single_step(self):
        assert abs(remaining_error_E(1, B2) - 2 * B2 / (1 + B2)) < 1e-15
        assert abs(remaining_error_E(1, B2) - 0.99950) < 5e-6

    def test_nstat_identity_to_1e12(self):
        inf = n_stat_inf(B2)
        for K in range(1, 10_001):
            lhs = remaining_error_E(K, B2)
            rhs = 1.0 - n_stat(K, B2) / inf
            assert abs(lhs - rhs) < 1e-12


class TestAvgExcessStaleness:
    def test_zero_below_tolerance(self):
        ti = TheoryInputs(beta2=B2, format=BF16, s0=0.6)
        # early transient keeps S(j) under the tolerance
        assert avg_excess_staleness(40, ti) == 0.0

    def test_direct_summation_oracle(self):
        ti = TheoryInputs(beta2=B2, format=FP8_E4M3, s0=0.6)
        for K in (50, 200, 700):
            acc = 0.0
            for j in range(1, K + 1):
                s = p_stall_nr_transient(j, B2, RHO_FP8) / p_stall_nr_ss(RHO_FP8)
                acc += max(0.0, (s - 0.6) / 0.4)
            assert abs(avg_excess_staleness(K, ti) - acc / K) < 1e-12

    def test_approaches_one(self):
        ti = TheoryInputs(beta2=B2, format=FP4_E2M2U, s0=0.6)
        a = avg_excess_staleness(20_000, ti)
        b = avg_excess_staleness(60_000, ti)
        assert b > a
        assert b > 0.95

    def test_nondecreasing_in_K(self):
        ti = TheoryInputs(beta2=B2, format=FP8_E4M3, s0=0.6)
        vals = [avg_excess_staleness(K, ti) for K in range(1, 800, 13)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("call,message", [
    # a K of 1500.5 summed 1501 terms and divided by 1500.5, and a max_K of
    # 1115.5 let the scan report K* = 1116
    (lambda ti: avg_excess_staleness(1500.5, ti), "K must be an integer >= 1, got 1500.5"),
    (lambda ti: avg_excess_staleness(1500.0, ti), "K must be an integer >= 1, got 1500.0"),
    (lambda ti: avg_excess_staleness(True, ti), "K must be an integer >= 1, got True"),
    (lambda ti: avg_excess_staleness(0, ti), "K must be an integer >= 1, got 0"),
    (lambda ti: reset_period_Kstar(ti, max_K=1115.5), "max_K must be an integer, got 1115.5"),
    (lambda ti: reset_period_Kstar(ti, max_K=2000.0), "max_K must be an integer, got 2000.0"),
    (lambda ti: reset_period_Kstar(ti, max_K=True), "max_K must be an integer, got True"),
    (lambda ti: reset_period_Kstar(ti, max_K="9"), "max_K must be an integer, got '9'"),
], ids=["K-half", "K-float", "K-bool", "K-zero", "max_K-half", "max_K-float",
        "max_K-bool", "max_K-str"])
def test_scan_rejects_a_non_integer_K(call, message):
    ti = TheoryInputs(beta2=B2, format=BF16, s0=0.6)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(ti)


def test_scan_takes_numpy_integers():
    ti = TheoryInputs(beta2=B2, format=BF16, s0=0.6)
    assert avg_excess_staleness(np.int64(1500), ti) == avg_excess_staleness(1500, ti)
    assert reset_period_Kstar(ti, max_K=np.int64(1116)) == reset_period_Kstar(ti) == 1116


class TestResetPeriod:
    @pytest.mark.parametrize(
        "fmt,s0,expected",
        [
            (BF16, 0.6, 1116),
            (FP8_E4M3, 0.6, 320),
            (FP4_E2M2U, 0.6, 224),
            (BF16, 0.5, 1004),
            (FP8_E4M3, 0.5, 295),
            (FP4_E2M2U, 0.5, 206),
            (BF16, 0.7, 1262),
            (FP8_E4M3, 0.7, 351),
            (FP4_E2M2U, 0.7, 246),
        ],
        ids=lambda v: str(v),
    )
    def test_published_periods(self, fmt, s0, expected):
        ti = TheoryInputs(beta2=B2, format=fmt, s0=s0)
        assert abs(reset_period_Kstar(ti) - expected) <= 2

    @pytest.mark.parametrize("fmt", [BF16, FP8_E4M3, FP4_E2M2U], ids=lambda f: f.name)
    def test_crossing_unique_by_scan(self, fmt):
        ti = TheoryInputs(beta2=B2, format=fmt, s0=0.6)
        kstar = reset_period_Kstar(ti)
        rho = ti.rhohat
        pss = p_stall_nr_ss(rho)
        acc = 0.0
        for K in range(1, 2 * kstar + 1):
            s = p_stall_nr_transient(K, B2, rho) / pss
            acc += max(0.0, (s - 0.6) / 0.4)
            lhs = acc / K
            rhs = remaining_error_E(K, B2)
            if K < kstar:
                assert lhs < rhs, K
            else:
                assert lhs >= rhs, K

    def test_period_column_crosses_at_kstar(self):
        # both sides of the crossing, recomputed from the public functions
        ti = TheoryInputs(beta2=B2, format=FP4_E2M2U, s0=0.6)
        kstar = period_columns(ti, (0.6,))["Kstar@0.6"]
        assert kstar == reset_period_Kstar(ti)
        assert avg_excess_staleness(kstar, ti) >= remaining_error_E(kstar, B2)
        assert avg_excess_staleness(kstar - 1, ti) < remaining_error_E(kstar - 1, B2)


class TestPredictorColumns:
    def test_row_contents(self):
        ti = TheoryInputs(beta2=B2, format=FP8_E4M3, p_init=0.53)
        row = {**stall_columns(ti), **window_columns(ti, (0.5, 0.8, 0.9, 0.95)),
               **period_columns(ti, (0.5, 0.6, 0.7))}
        assert list(row) == ["epsilon", "rhohat", "p_nr", "p_sr", "p_init",
                             "jstar@0.5", "jstar@0.8", "jstar@0.9", "jstar@0.95",
                             "Kstar@0.5", "Kstar@0.6", "Kstar@0.7"]
        assert row["jstar@0.5"] == 0
        assert row["Kstar@0.6"] == 320
        assert abs(row["p_sr"] - 0.989) < 0.002

    def test_unreachable_cell_is_sentinel(self):
        ti = TheoryInputs(beta2=0.5, format=BF16)
        assert window_columns(ti, (0.99,))["jstar@0.99"] == "unreachable"


@pytest.mark.parametrize("call,message", [
    # these once raised from deep inside (chi2_1_cdf, a division, numpy's
    # arange) or returned a value: -0.0, n_stat 4.69, tau_eff -4.0
    (lambda: p_stall_nr_transient(5, 1.5, 2.0), "beta2 must be in (0, 1)"),
    (lambda: p_stall_nr_transient(5, 1.0, 2.0), "beta2 must be in (0, 1)"),
    (lambda: p_stall_nr_transient(5, 0.0, 2.0), "beta2 must be in (0, 1)"),
    (lambda: p_stall_nr_transient(1.5, B2, 2.0), "j must be an integer >= 0, got 1.5"),
    (lambda: p_stall_nr_transient(True, B2, 2.0), "j must be an integer >= 0, got True"),
    (lambda: p_stall_nr_transient(-1, B2, 2.0), "j must be an integer >= 0, got -1"),
    (lambda: n_stat_inf(1.0), "beta2 must be in (0, 1)"),
    (lambda: n_stat(5, 1.2), "beta2 must be in (0, 1)"),
    (lambda: n_stat(2.5, B2), "K must be an integer >= 1, got 2.5"),
    (lambda: n_stat(0, B2), "K must be an integer >= 1, got 0"),
    (lambda: effective_decay(1.5, 0.5), "beta2 must be in (0, 1)"),
    (lambda: rhohat_value(0.1, -1.0), "beta2 must be in (0, 1)"),
    (lambda: rhohat_value(0.1, math.nan), "beta2 must be in (0, 1)"),
    (lambda: remaining_error_E(1500.5, B2), "K must be an integer >= 1, got 1500.5"),
    (lambda: remaining_error_E(True, B2), "K must be an integer >= 1, got True"),
    (lambda: remaining_error_E(5, 1.0), "beta2 must be in (0, 1)"),
    (lambda: remaining_error_table(B2, 2.5), "k_max must be an integer >= 0, got 2.5"),
    (lambda: remaining_error_table(B2, -1), "k_max must be an integer >= 0, got -1"),
    (lambda: remaining_error_table(1.5, 10), "beta2 must be in (0, 1)"),
], ids=["transient-beta2-above", "transient-beta2-one", "transient-beta2-zero",
        "transient-j-half", "transient-j-bool", "transient-j-negative",
        "n_stat_inf-beta2", "n_stat-beta2", "n_stat-K-half", "n_stat-K-zero",
        "effective_decay-beta2", "rhohat-beta2-negative", "rhohat-beta2-nan",
        "E-K-half", "E-K-bool", "E-beta2", "table-k_max-half",
        "table-k_max-negative", "table-beta2"])
def test_scalar_predictors_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_scalar_predictors_take_numpy_integers():
    i5 = np.int64(5)
    assert p_stall_nr_transient(i5, B2, 2.0) == p_stall_nr_transient(5, B2, 2.0)
    assert n_stat(i5, B2) == n_stat(5, B2)
    assert remaining_error_E(i5, B2) == remaining_error_E(5, B2)
    assert remaining_error_table(B2, i5).tolist() == remaining_error_table(B2, 5).tolist()
    assert remaining_error_table(B2, 0).tolist() == [math.inf]
