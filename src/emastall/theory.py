"""Closed-form predictors for quantized-EMA stalling.

Everything here reduces to the chi-squared(1) CDF. The predictors cover
one-step stall probabilities under nearest and stochastic rounding, the
transient buildup after a reset, the effective decay induced by stalling,
the initialization floor model, startup windows, and the reset-period
heuristic, each as one function that returns its value. They reject a
beta2 outside (0, 1) and a non-integer step count with a one-line
ValueError.

The reset period K* comes from a scan over K in chunks that grow with the
scan (``_excess_chunks``): each chunk evaluates the normalized transient
S(j), the excess staleness and its running sums as arrays, with the libm
calls kept in Python so that every value equals the step-by-step scan's;
E(K) is evaluated per K only in a chunk where a tolerance crosses.
``excess_staleness`` is the one excess term; the scan applies it to arrays
and the adaptive reset rule in ``engine`` to each row's float.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Iterable

import numpy as np

from .formats import FpFormat, _check_int, _is_integer

# mean normalized mantissa under the log-uniform mantissa model
MBAR = 1.0 / math.log(2.0)

_SQRT_2PI = math.sqrt(2.0 * math.pi)

erf = math.erf


class ThresholdUnreachableError(ValueError):
    """The stall-probability target exceeds what the format can reach."""


def _check_beta2(beta2: float) -> None:
    if not 0.0 < beta2 < 1.0:
        raise ValueError("beta2 must be in (0, 1)")


def chi2_1_cdf(x: float) -> float:
    """CDF of the chi-squared distribution with one degree of freedom.

    Uses the identity F(x) = 2*Phi(sqrt(x)) - 1 = erf(sqrt(x/2)).
    """
    if x < 0:
        raise ValueError("chi2_1_cdf requires x >= 0")
    return erf(math.sqrt(0.5 * x))


def chi2_1_inv(p: float) -> float:
    """Inverse of chi2_1_cdf by bracketed bisection (every probe is >= 0,
    so the loops evaluate the CDF without its range check)."""
    if not 0.0 <= p < 1.0:
        raise ValueError("chi2_1_inv requires 0 <= p < 1")
    if p == 0.0:
        return 0.0
    hi = 1.0
    while erf(math.sqrt(0.5 * hi)) < p:
        hi *= 2.0
        if hi > 1e6:
            break
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if erf(math.sqrt(0.5 * mid)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _soft_gate_integral(center: float, c: float, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson integral over [a, b] of the soft gate (1 - |y*y -
    center| / c) * phi(y), phi the standard normal pdf, written out at each
    node (calls cost most of the time) with the generic rule's arithmetic."""

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + x1)
        xr = 0.5 * (x1 + x2)
        fl = (1.0 - abs(xl * xl - center) / c) * (math.exp(-0.5 * xl * xl) / _SQRT_2PI)
        fr = (1.0 - abs(xr * xr - center) / c) * (math.exp(-0.5 * xr * xr) / _SQRT_2PI)
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * fl + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * fr + f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, f0, fl, f1, left, tol / 2.0, depth - 1) + recurse(
            x1, x2, f1, fr, f2, right, tol / 2.0, depth - 1
        )

    if a >= b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = ((1.0 - abs(y * y - center) / c) * (math.exp(-0.5 * y * y) / _SQRT_2PI)
                  for y in (a, m, b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
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
        _check_beta2(self.beta2)
        if not isinstance(self.format, FpFormat):
            raise ValueError(f"format must be an FpFormat, got {self.format!r}")
        if not 0.0 <= self.p_init < 1.0:
            raise ValueError("p_init must be in [0, 1)")
        if not 0.0 <= self.s0 < 1.0:
            raise ValueError("s0 must be in [0, 1)")
        if not 0.0 <= self.p_zero <= 1.0:
            raise ValueError("p_zero must be in [0, 1]")
        _check_int("block_size_B", self.block_size_B, 1)

    @property
    def rhohat(self) -> float:
        """Effective precision ratio: grid spacing over typical update size."""
        return rhohat_value(self.format.epsilon, self.beta2)

    @property
    def tau_crush(self) -> float:
        return self.format.s_min / (2.0 * self.format.x_max)


def rhohat_value(epsilon: float, beta2: float) -> float:
    _check_beta2(beta2)
    return epsilon / (2.0 * (1.0 - beta2) * MBAR)


def _check_rho(rho: float) -> None:
    # an infinite rhohat would send the SR integral over an infinite interval
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rhohat must be positive and finite, got {rho!r}")


def p_stall_nr_ss(rho: float) -> float:
    """Steady-state one-step stall probability under nearest rounding."""
    _check_rho(rho)
    return chi2_1_cdf(1.0 + rho) - chi2_1_cdf(max(0.0, 1.0 - rho))


def p_stall_sr_ss(rho: float, tol: float = 1e-9) -> float:
    """Steady-state stall probability under stochastic rounding.

    Expectation of the soft gate max(0, 1 - |z-1| / (2 rho)) over z ~ chi2_1,
    by _soft_gate_integral (center 1, c = 2 rho) after z = y^2, which removes
    the density's singularity at zero. Pieces are split at the gate's kink.
    The quadrature error can carry the sum past 1 as rhohat grows; the
    result is capped there.
    """
    _check_rho(rho)
    y_lo = math.sqrt(max(0.0, 1.0 - 2.0 * rho))
    y_hi = math.sqrt(1.0 + 2.0 * rho)
    left = _soft_gate_integral(1.0, 2.0 * rho, y_lo, 1.0, tol / 4.0)
    right = _soft_gate_integral(1.0, 2.0 * rho, 1.0, y_hi, tol / 4.0)
    return min(1.0, 2.0 * (left + right))


def p_stall_nr_transient(j: int, beta2: float, rho: float) -> float:
    """Stall probability j steps after a zero initialization (NR).

    General two-sided form; the stall interval is centered at the current
    reference state scale phi_j = 1 - beta2^j, not at the steady state.
    """
    _check_int("j", j, 0)
    _check_beta2(beta2)
    _check_rho(rho)
    ph = -math.expm1(j * math.log(beta2))
    return chi2_1_cdf(ph * (1.0 + rho)) - chi2_1_cdf(max(0.0, ph * (1.0 - rho)))


def effective_decay(beta2: float, p_stall: float) -> tuple[float, float]:
    """Effective decay and time constant once a fraction of steps stall.

    Returns (beta_eff, tau_eff); tau_eff is math.inf at p_stall = 1, since a
    fully stalled EMA has unbounded memory.
    """
    _check_beta2(beta2)
    if not 0.0 <= p_stall <= 1.0:
        raise ValueError("p_stall must be in [0, 1]")
    beta_eff = 1.0 - (1.0 - beta2) * (1.0 - p_stall)
    if p_stall == 1.0:
        return beta_eff, math.inf
    tau_eff = 1.0 / ((1.0 - beta2) * (1.0 - p_stall))
    return beta_eff, tau_eff


def _soft_crush(c: float, tol: float = 1e-9) -> float:
    # E[max(0, 1 - z/c)] for z ~ chi2_1, via z = y^2 (center 0: |y*y - 0.0|
    # is y*y, so the gate is 1 - y*y/c bit for bit)
    if c <= 0:
        return 0.0
    return 2.0 * _soft_gate_integral(0.0, c, 0.0, math.sqrt(c), tol)


def p_init_model(inputs: TheoryInputs, mode_sr: bool = False) -> float:
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
    return inputs.p_zero + (1.0 - inputs.p_zero) * f_crush


def startup_window(P0: float, inputs: TheoryInputs) -> int:
    """Steps after a reset until total stalling first reaches P0.

    Zero when the initialization floor already meets the target. Otherwise
    the effective target p0_eff = (P0 - p_init) / (1 - p_init) needs the
    state scale phi* = chi2_1_inv(p0_eff) / (1 + rhohat), reached after
    ceil(log(1 - phi*) / log(beta2)) steps. Raises
    ThresholdUnreachableError when phi* >= 1: even the steady state stays
    below the effective target.
    """
    if not 0.0 < P0 < 1.0:
        raise ValueError("P0 must be in (0, 1)")
    if P0 <= inputs.p_init:
        return 0
    p0_eff = (P0 - inputs.p_init) / (1.0 - inputs.p_init)
    phi_star = chi2_1_inv(p0_eff) / (1.0 + inputs.rhohat)
    if phi_star >= 1.0:
        raise ThresholdUnreachableError(
            f"target P0={P0} needs state scale {phi_star:.3f} >= 1"
        )
    j = math.ceil(math.log1p(-phi_star) / math.log(inputs.beta2))
    return max(0, j)


def n_stat(K: int, beta2: float) -> float:
    """Effective sample size of the bias-corrected EMA after K steps."""
    _check_int("K", K, 1)
    _check_beta2(beta2)
    bk = beta2**K
    return (1.0 + beta2) * (1.0 - bk) / ((1.0 - beta2) * (1.0 + bk))


def n_stat_inf(beta2: float) -> float:
    _check_beta2(beta2)
    return (1.0 + beta2) / (1.0 - beta2)


def remaining_error_E(K: int, beta2: float) -> float:
    """Remaining statistical error of the bias-corrected EMA after K steps."""
    _check_int("K", K, 1)
    _check_beta2(beta2)
    bk = beta2**K
    return 2.0 * bk / (1.0 + bk)


def remaining_error_table(beta2: float, k_max: int) -> np.ndarray:
    """E(k) for k = 0 … k_max as an array, each entry equal to
    ``remaining_error_E``'s; entry 0, where no cycle has run, is inf. A
    last-bit difference would move an adaptive reset by a step, so the
    powers stay Python's, whose last bit numpy's does not always match."""
    _check_beta2(beta2)
    _check_int("k_max", k_max, 0)
    bk = np.fromiter(map(pow, itertools.repeat(beta2), range(1, k_max + 1)), np.float64)
    return np.concatenate(([math.inf], 2.0 * bk / (1.0 + bk)))


def excess_staleness(s, s0):
    """Staleness in excess of the tolerance, max(0, (s - s0) / (1 - s0)), on
    floats or elementwise on arrays (s0 broadcasts against s). The K* scan
    and the adaptive reset rule both use it, so the two cannot drift apart.

    A negative excess comes out as -0.0, which adds nothing to a sum. The
    product keeps a scalar call as cheap as Python's max; np.maximum costs
    about a microsecond a call on scalars.
    """
    x = (s - s0) / (1.0 - s0)
    return x * (x > 0.0)


# K* scans run in chunks: the first holds _FIRST_CHUNK values of K, each
# later one a quarter of the K scanned before it (so a scan past the first
# chunk overshoots its crossing by at most a quarter), capped at _MAX_CHUNK
_FIRST_CHUNK, _MAX_CHUNK = 128, 4096


def _pymap(f, x: np.ndarray) -> np.ndarray:
    # a libm function applied through Python's math module, element by element
    return np.fromiter(map(f, x.tolist()), np.float64, len(x))


def _excess_chunks(inputs: TheoryInputs, s0s: tuple[float, ...], max_K: int):
    """Scan K = 1..max_K in chunks. Yields each chunk's first K and the sums
    over j <= K of excess_staleness(S(j), s0), one row per s0, where S(j) is
    the NR transient normalized by its steady state.

    The libm calls (expm1, erf) stay Python's, whose last bits numpy's do
    not always reproduce; the other operations act on the same operands in
    the same order as a scalar loop, and cumsum adds in sequence, so every
    sum equals the scalar loop's. Adding a zero excess (0.0 or -0.0)
    leaves a sum unchanged, as skipping it does.
    """
    if not all(0.0 <= s0 < 1.0 for s0 in s0s):
        raise ValueError("s0 must be in [0, 1)")
    s0 = np.array(s0s)[:, None]
    rho = inputs.rhohat
    p_ss = p_stall_nr_ss(rho)
    log_b = math.log(inputs.beta2)
    hi, lo = 1.0 + rho, 1.0 - rho
    carry = np.zeros(len(s0s))
    k0, size = 1, _FIRST_CHUNK
    while k0 <= max_K:
        k1 = min(k0 + size, max_K + 1)
        # phi_j = -expm1(j log beta2), and (-em1) * hi is em1 * (-hi) bit
        # for bit
        em1 = _pymap(math.expm1, np.arange(k0, k1) * log_b)
        s = _pymap(erf, np.sqrt(0.5 * (em1 * -hi)))
        if lo > 0.0:  # otherwise the lower term is erf(0.0) = 0.0
            s -= _pymap(erf, np.sqrt(0.5 * (em1 * -lo)))
        s /= p_ss
        terms = excess_staleness(s, s0)
        terms[:, 0] += carry
        sums = terms.cumsum(axis=1)
        carry = sums[:, -1]
        yield k0, sums
        k0, size = k1, min(max(1, (k1 - 1) // 4), _MAX_CHUNK)


def avg_excess_staleness(K: int, inputs: TheoryInputs) -> float:
    """Cycle-averaged staleness in excess of the tolerance s0."""
    _check_int("K", K, 1)
    for _, sums in _excess_chunks(inputs, (inputs.s0,), K):
        pass
    return float(sums[0, -1]) / K


def _kstar_scan(inputs: TheoryInputs, s0s: Iterable, max_K: int = 10_000_000) -> dict:
    """K* for each distinct s0 (s0 -> int), from one scan that stops after
    the chunk in which the last s0 crosses. sbar(K) - E(K) strictly increases
    (E falls by about E (1 - beta2) / 2 a step, far above the rounding of
    sbar), so E is needed only at a chunk's last K and, in a chunk whose
    last K crosses, at the K of a bisection for the first crossing."""
    if not _is_integer(max_K):
        raise ValueError(f"max_K must be an integer, got {max_K!r}")
    s0s = tuple(dict.fromkeys(s0s))
    beta2 = inputs.beta2
    found: dict = {}
    for k0, sums in _excess_chunks(inputs, s0s, max_K):
        k_last = k0 + sums.shape[1] - 1
        e_last = remaining_error_E(k_last, beta2)
        rows = [i for i, s0 in enumerate(s0s)
                if s0 not in found and sums[i, -1] / k_last >= e_last]
        for i in rows:
            lo, hi = k0, k_last  # hi crosses
            while lo < hi:
                K = (lo + hi) // 2
                if sums[i, K - k0] / K >= remaining_error_E(K, beta2):
                    hi = K
                else:
                    lo = K + 1
            found[s0s[i]] = lo
        if len(found) == len(s0s):
            return found
    raise RuntimeError(f"no crossing found up to K={max_K}")


def reset_period_Kstar(inputs: TheoryInputs, max_K: int = 10_000_000) -> int:
    """Smallest cycle length K* at which the cycle-averaged excess staleness
    at tolerance inputs.s0 reaches the remaining error E(K).

    The left side is nondecreasing and E(K) strictly decreasing, so the
    crossing is unique; a chunked scan finds it, the one-s0 case of the scan
    period_columns shares across its tolerances. Both sides at the crossing
    are avg_excess_staleness(K*, inputs) and remaining_error_E(K*, beta2).
    RuntimeError when no crossing comes by max_K.
    """
    return _kstar_scan(inputs, (inputs.s0,), max_K)[inputs.s0]


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
    return {key: found[s0] for key, s0 in keys.items()}
