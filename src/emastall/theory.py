"""Closed-form predictors for quantized-EMA stalling.

Everything here reduces to the chi-squared(1) CDF. The predictors cover
one-step stall probabilities under nearest and stochastic rounding, the
transient buildup after a reset, the effective decay induced by stalling,
the initialization floor model, startup windows, and the reset-period
heuristic.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable

from .formats import FpFormat

# mean normalized mantissa under the log-uniform mantissa model
MBAR = 1.0 / math.log(2.0)

# E|z - 1| for z ~ chi2_1, i.e. 4 * phi(1) with phi the standard normal pdf
MU1 = 4.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)

erf = math.erf


class ThresholdUnreachableError(ValueError):
    """The stall-probability target exceeds what the format can reach."""


def normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def chi2_1_cdf(x: float) -> float:
    """CDF of the chi-squared distribution with one degree of freedom.

    Uses the identity F(x) = 2*Phi(sqrt(x)) - 1 = erf(sqrt(x/2)).
    """
    if x < 0:
        raise ValueError("chi2_1_cdf requires x >= 0")
    return erf(math.sqrt(0.5 * x))


def chi2_1_inv(p: float) -> float:
    """Inverse of chi2_1_cdf by bracketed bisection."""
    if not 0.0 <= p < 1.0:
        raise ValueError("chi2_1_inv requires 0 <= p < 1")
    if p == 0.0:
        return 0.0
    hi = 1.0
    while chi2_1_cdf(hi) < p:
        hi *= 2.0
        if hi > 1e6:
            break
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if chi2_1_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + x1)
        xr = 0.5 * (x1 + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, x1, f0, fl, f1)
        right = simpson(x1, x2, f1, fr, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, f0, fl, f1, left, tol / 2.0, depth - 1) + recurse(
            x1, x2, f1, fr, f2, right, tol / 2.0, depth - 1
        )

    if a >= b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 48)


@dataclasses.dataclass(frozen=True)
class TheoryInputs:
    """Everything the closed-form predictors need.

    p_init is an input (measured, or modeled via p_init_model); it is not
    substituted automatically. s0 is the staleness tolerance of the reset
    heuristic, p_zero the fraction of exactly-zero first-step signals, and
    block_size_B the scaling-group size of the initialization-floor model.
    """

    beta2: float
    format: FpFormat
    p_init: float = 0.0
    s0: float = 0.6
    p_zero: float = 0.0
    block_size_B: int = 128

    def __post_init__(self) -> None:
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta2 must be in (0, 1)")
        if not 0.0 <= self.p_init < 1.0:
            raise ValueError("p_init must be in [0, 1)")
        if not 0.0 <= self.s0 < 1.0:
            raise ValueError("s0 must be in [0, 1)")
        if not 0.0 <= self.p_zero <= 1.0:
            raise ValueError("p_zero must be in [0, 1]")
        if self.block_size_B < 1:
            raise ValueError("block_size_B must be >= 1")

    @property
    def rhohat(self) -> float:
        """Effective precision ratio: grid spacing over typical update size."""
        return rhohat_value(self.format.epsilon, self.beta2)

    @property
    def tau_crush(self) -> float:
        return self.format.s_min / (2.0 * self.format.x_max)


@dataclasses.dataclass
class PredictorOutput:
    """A predictor value with its intermediate quantities, for debugging."""

    value: float
    meta: dict


def rhohat_value(epsilon: float, beta2: float) -> float:
    if beta2 >= 1.0:
        raise ValueError("beta2 must be < 1")
    return epsilon / (2.0 * (1.0 - beta2) * MBAR)


def p_stall_nr_ss(rho: float) -> float:
    """Steady-state one-step stall probability under nearest rounding."""
    if rho <= 0:
        raise ValueError("rhohat must be positive")
    return chi2_1_cdf(1.0 + rho) - chi2_1_cdf(max(0.0, 1.0 - rho))


def p_stall_sr_ss(rho: float, tol: float = 1e-9) -> float:
    """Steady-state stall probability under stochastic rounding.

    Expectation of the soft gate max(0, 1 - |z-1| / (2 rho)) over z ~ chi2_1,
    integrated adaptively after the substitution z = y^2 (which removes the
    density's singularity at zero). Pieces are split at the gate's kink.
    """
    if rho <= 0:
        raise ValueError("rhohat must be positive")
    y_lo = math.sqrt(max(0.0, 1.0 - 2.0 * rho))
    y_hi = math.sqrt(1.0 + 2.0 * rho)

    def integrand(y: float) -> float:
        return (1.0 - abs(y * y - 1.0) / (2.0 * rho)) * normal_pdf(y)

    left = _adaptive_simpson(integrand, y_lo, 1.0, tol / 4.0)
    right = _adaptive_simpson(integrand, 1.0, y_hi, tol / 4.0)
    return 2.0 * (left + right)


def p_stall_sr_large_rho(rho: float) -> float:
    """Large-rhohat approximation 1 - mu1 / (2 rho)."""
    return 1.0 - MU1 / (2.0 * rho)


def p_stall_nr_transient(j: int, beta2: float, rho: float) -> float:
    """Stall probability j steps after a zero initialization (NR).

    General two-sided form; the stall interval is centered at the current
    reference state scale phi_j = 1 - beta2^j, not at the steady state.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if rho <= 0:
        raise ValueError("rhohat must be positive")
    ph = -math.expm1(j * math.log(beta2))
    return chi2_1_cdf(ph * (1.0 + rho)) - chi2_1_cdf(max(0.0, ph * (1.0 - rho)))


def effective_decay(beta2: float, p_stall: float) -> tuple[float, float]:
    """Effective decay and time constant once a fraction of steps stall.

    Returns (beta_eff, tau_eff); tau_eff is math.inf at p_stall = 1, since a
    fully stalled EMA has unbounded memory.
    """
    if not 0.0 <= p_stall <= 1.0:
        raise ValueError("p_stall must be in [0, 1]")
    beta_eff = 1.0 - (1.0 - beta2) * (1.0 - p_stall)
    if p_stall == 1.0:
        return beta_eff, math.inf
    tau_eff = 1.0 / ((1.0 - beta2) * (1.0 - p_stall))
    return beta_eff, tau_eff


def _soft_crush(c: float, tol: float = 1e-9) -> float:
    # E[max(0, 1 - z/c)] for z ~ chi2_1, via z = y^2
    if c <= 0:
        return 0.0

    def integrand(y: float) -> float:
        return (1.0 - y * y / c) * normal_pdf(y)

    return 2.0 * _adaptive_simpson(integrand, 0.0, math.sqrt(c), tol)


def p_init_info(
    inputs: TheoryInputs, mode_sr: bool = False
) -> PredictorOutput:
    """Model of the stalled fraction right after initialization.

    Combines exactly-zero signals (p_zero) with dynamic-range crushing: a
    coordinate whose scaled magnitude falls below tau times the typical
    block maximum M_B rounds back to the initialized value. The SR variant
    averages the corresponding soft gate and is never above the NR value.
    """
    if inputs.block_size_B < 2:
        raise ValueError("initialization-floor model needs block size >= 2")
    tau = inputs.tau_crush
    m_b = chi2_1_inv(1.0 - 1.0 / inputs.block_size_B)
    if mode_sr:
        f_crush = _soft_crush(2.0 * tau * m_b)
    else:
        f_crush = chi2_1_cdf(tau * m_b)
    value = inputs.p_zero + (1.0 - inputs.p_zero) * f_crush
    return PredictorOutput(
        value=value,
        meta={"tau": tau, "M_B": m_b, "f_crush": f_crush, "sr": mode_sr},
    )


def p_init_model(inputs: TheoryInputs, mode_sr: bool = False) -> float:
    return p_init_info(inputs, mode_sr).value


def startup_window_info(P0: float, inputs: TheoryInputs) -> PredictorOutput:
    """Steps after a reset until total stalling first reaches P0.

    Zero when the initialization floor already meets the target. Raises
    ThresholdUnreachableError when even the steady state stays below the
    effective target.
    """
    if not 0.0 < P0 < 1.0:
        raise ValueError("P0 must be in (0, 1)")
    meta: dict = {"p_init": inputs.p_init, "rhohat": inputs.rhohat}
    if P0 <= inputs.p_init:
        meta["p0_eff"] = 0.0
        return PredictorOutput(value=0, meta=meta)
    p0_eff = (P0 - inputs.p_init) / (1.0 - inputs.p_init)
    phi_star = chi2_1_inv(p0_eff) / (1.0 + inputs.rhohat)
    meta.update({"p0_eff": p0_eff, "phi_star": phi_star})
    if phi_star >= 1.0:
        raise ThresholdUnreachableError(
            f"target P0={P0} needs state scale {phi_star:.3f} >= 1"
        )
    j = math.ceil(math.log1p(-phi_star) / math.log(inputs.beta2))
    return PredictorOutput(value=max(0, j), meta=meta)


def startup_window(P0: float, inputs: TheoryInputs) -> int:
    return int(startup_window_info(P0, inputs).value)


def n_stat(K: int, beta2: float) -> float:
    """Effective sample size of the bias-corrected EMA after K steps."""
    if K < 1:
        raise ValueError("K must be >= 1")
    bk = beta2**K
    return (1.0 + beta2) * (1.0 - bk) / ((1.0 - beta2) * (1.0 + bk))


def n_stat_inf(beta2: float) -> float:
    return (1.0 + beta2) / (1.0 - beta2)


def remaining_error_E(K: int, beta2: float) -> float:
    """Remaining statistical error of the bias-corrected EMA after K steps."""
    if K < 1:
        raise ValueError("K must be >= 1")
    bk = beta2**K
    return 2.0 * bk / (1.0 + bk)


def _excess_sums(inputs: TheoryInputs, s0s: tuple[float, ...], max_K: int):
    """For K = 1..max_K, yield the sums over j <= K of the excess staleness
    max(0, (S(j) - s0) / (1 - s0)) for each s0 (one list, updated in place).
    S(j), the NR transient normalized by its steady state, is evaluated once
    per j for all s0, with the terms that do not depend on j hoisted."""
    if not all(0.0 <= s0 < 1.0 for s0 in s0s):
        raise ValueError("s0 must be in [0, 1)")
    rho = inputs.rhohat
    p_ss = p_stall_nr_ss(rho)
    log_b = math.log(inputs.beta2)
    hi, lo = 1.0 + rho, 1.0 - rho
    sums = [0.0] * len(s0s)
    for j in range(1, max_K + 1):
        ph = -math.expm1(j * log_b)
        s = erf(math.sqrt(0.5 * (ph * hi))) - erf(math.sqrt(0.5 * max(0.0, ph * lo)))
        s /= p_ss
        for i, s0 in enumerate(s0s):
            if s > s0:  # the excess is exactly 0.0 otherwise
                sums[i] += (s - s0) / (1.0 - s0)
        yield sums


def avg_excess_staleness(K: int, inputs: TheoryInputs) -> float:
    """Cycle-averaged staleness in excess of the tolerance s0."""
    if K < 1:
        raise ValueError("K must be >= 1")
    for sums in _excess_sums(inputs, (inputs.s0,), K):
        pass
    return sums[0] / K


def _kstar_scan(inputs: TheoryInputs, s0s: Iterable, max_K: int = 10_000_000) -> dict:
    """kstar_info for each distinct s0, from one scan that stops once every
    s0 has crossed."""
    s0s = tuple(dict.fromkeys(s0s))
    found: dict = {}
    for K, sums in enumerate(_excess_sums(inputs, s0s, max_K), 1):
        e = remaining_error_E(K, inputs.beta2)
        for s0, acc in zip(s0s, sums):
            if acc / K >= e and s0 not in found:
                found[s0] = PredictorOutput(
                    value=K, meta={"sbar": acc / K, "E": e, "rhohat": inputs.rhohat}
                )
        if len(found) == len(s0s):
            return found
    raise RuntimeError(f"no crossing found up to K={max_K}")


def kstar_info(inputs: TheoryInputs, max_K: int = 10_000_000) -> PredictorOutput:
    """Smallest cycle length K* at which the cycle-averaged excess staleness
    at tolerance inputs.s0 reaches the remaining error E(K).

    The left side is nondecreasing and E(K) strictly decreasing, so the
    crossing is unique; an incremental scan finds it, the one-s0 case of the
    scan period_columns shares across its tolerances. meta holds sbar and E
    at the crossing and rhohat; RuntimeError when no crossing comes by max_K.
    """
    return _kstar_scan(inputs, (inputs.s0,), max_K)[inputs.s0]


def reset_period_Kstar(inputs: TheoryInputs) -> int:
    return int(kstar_info(inputs).value)


def stall_columns(inputs: TheoryInputs) -> dict:
    """Steady-state stall columns of a predictor row."""
    rho = inputs.rhohat
    return {
        "epsilon": inputs.format.epsilon,
        "rhohat": rho,
        "p_nr": p_stall_nr_ss(rho),
        "p_sr": p_stall_sr_ss(rho),
    }


def _column_keys(prefix: str, values: Iterable[float]) -> dict[str, float]:
    """Column label -> value, in first-seen order. A label carries the
    value's shortest round-trip text, so distinct values get distinct
    columns and exact duplicates share one."""
    keys: dict[str, float] = {}
    for v in values:
        keys.setdefault(f"{prefix}@{float(v)!r}", v)
    return keys


def window_columns(inputs: TheoryInputs, P0_list: Iterable[float]) -> dict:
    """Startup-window columns: p_init, then j* per target ("unreachable"
    where the steady state stays below it)."""
    row: dict = {"p_init": inputs.p_init}
    for key, p0 in _column_keys("jstar", P0_list).items():
        try:
            row[key] = startup_window(p0, inputs)
        except ThresholdUnreachableError:
            row[key] = "unreachable"
    return row


def period_columns(inputs: TheoryInputs, s0_list: Iterable[float]) -> dict:
    """Reset-period columns: K* per staleness tolerance, all from one scan."""
    keys = _column_keys("Kstar", s0_list)
    found = _kstar_scan(inputs, keys.values())
    return {key: int(found[s0].value) for key, s0 in keys.items()}


def predictor_row(
    inputs: TheoryInputs,
    P0_list: tuple[float, ...] = (0.5, 0.8, 0.9, 0.95),
    s0_list: tuple[float, ...] = (0.5, 0.6, 0.7),
) -> dict:
    """One full predictor-table row for a format."""
    return {
        "format": inputs.format.name,
        "beta2": inputs.beta2,
        **stall_columns(inputs),
        **window_columns(inputs, P0_list),
        **period_columns(inputs, s0_list),
    }
