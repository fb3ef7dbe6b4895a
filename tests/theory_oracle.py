"""Reference K* scan, SR integrator and chi2_1 inverse for equivalence tests.

These are the per-tolerance predictors that the shared scan in
``emastall.theory`` replaced: ``stalling_progress`` re-derives rhohat, the
steady state and the transient at every j, and ``kstar_info`` scans once for
each s0, so ``period_columns`` evaluates the S(j) sequence once per column.
``kstar_info`` returns K* with both sides of the crossing (``Crossing``).
The arithmetic is kept as it was; docstrings are dropped. Only the closed
forms (``chi2_1_cdf``, ``p_stall_nr_transient``, ``p_stall_nr_ss``,
``remaining_error_E``) and ``TheoryInputs`` come from the package, so the
shared scan must reproduce every K*, crossing value and average bit for bit.

``chi2_1_inv`` is the bisection that calls the range-checked ``chi2_1_cdf``
at every probe; the package's inlines the CDF and must give the same bits.

``p_stall_sr_ss`` and ``_soft_crush`` are the SR integrals as a generic
adaptive Simpson rule that calls its integrand, and the integrand
``normal_pdf``, at every node; the package's specialized integrator must
give the same bits.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

from emastall.theory import (
    TheoryInputs,
    chi2_1_cdf,
    p_stall_nr_ss,
    p_stall_nr_transient,
    remaining_error_E,
)


class Crossing(NamedTuple):
    """K* and, at K*, the cycle-averaged excess staleness and E(K*)."""

    value: int
    sbar: float
    E: float


def chi2_1_inv(p: float) -> float:
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


def stalling_progress(j: int, inputs: TheoryInputs) -> float:
    rho = inputs.rhohat
    return p_stall_nr_transient(j, inputs.beta2, rho) / p_stall_nr_ss(rho)


def avg_excess_staleness(K: int, inputs: TheoryInputs) -> float:
    if K < 1:
        raise ValueError("K must be >= 1")
    acc = 0.0
    for j in range(1, K + 1):
        acc += max(0.0, (stalling_progress(j, inputs) - inputs.s0) / (1.0 - inputs.s0))
    return acc / K


def kstar_info(inputs: TheoryInputs, max_K: int = 10_000_000) -> Crossing:
    acc = 0.0
    s0 = inputs.s0
    for K in range(1, max_K + 1):
        acc += max(0.0, (stalling_progress(K, inputs) - s0) / (1.0 - s0))
        e = remaining_error_E(K, inputs.beta2)
        sbar = acc / K
        if sbar >= e:
            return Crossing(K, sbar, e)
    raise RuntimeError(f"no crossing found up to K={max_K}")


def reset_period_Kstar(inputs: TheoryInputs) -> int:
    return int(kstar_info(inputs).value)


def period_columns(inputs: TheoryInputs, s0_list) -> dict:
    return {
        f"Kstar@{s0:g}": reset_period_Kstar(dataclasses.replace(inputs, s0=s0))
        for s0 in s0_list
    }


def normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


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


def p_stall_sr_ss(rho: float, tol: float = 1e-9) -> float:
    y_lo = math.sqrt(max(0.0, 1.0 - 2.0 * rho))
    y_hi = math.sqrt(1.0 + 2.0 * rho)

    def integrand(y: float) -> float:
        return (1.0 - abs(y * y - 1.0) / (2.0 * rho)) * normal_pdf(y)

    left = _adaptive_simpson(integrand, y_lo, 1.0, tol / 4.0)
    right = _adaptive_simpson(integrand, 1.0, y_hi, tol / 4.0)
    return min(1.0, 2.0 * (left + right))


def _soft_crush(c: float, tol: float = 1e-9) -> float:
    if c <= 0:
        return 0.0

    def integrand(y: float) -> float:
        return (1.0 - y * y / c) * normal_pdf(y)

    return 2.0 * _adaptive_simpson(integrand, 0.0, math.sqrt(c), tol)
