"""Independent closed forms used to check the benchmark's outputs.

Nothing here imports emastall: every predictor value a workload writes is
recomputed from the chi-squared(1) identities with the standard library
alone, so a change to the package's theory code is checked against a
second implementation rather than against itself.
"""

from __future__ import annotations

import math
from statistics import NormalDist

# mantissa bits of the presets the workloads use; epsilon = 2**-mant_bits
MANT_BITS = {"bf16": 7, "fp8_e4m3": 3, "fp4_e2m1": 1, "fp4_e2m2u": 2}

_STD_NORMAL = NormalDist()


def chi2_cdf(x: float) -> float:
    return math.erf(math.sqrt(0.5 * x))


def chi2_partial_mean(x: float) -> float:
    """E[z 1{z < x}] for z ~ chi2_1, from z f_1(z) = f_3(z)."""
    return chi2_cdf(x) - math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)


def chi2_inv(p: float) -> float:
    return _STD_NORMAL.inv_cdf(0.5 * (1.0 + p)) ** 2


def epsilon(fmt: str) -> float:
    return 2.0 ** -MANT_BITS[fmt]


def rhohat(fmt: str, beta2: float) -> float:
    # epsilon / (2 (1 - beta2) Mbar) with Mbar = 1 / ln 2
    return epsilon(fmt) * math.log(2.0) / (2.0 * (1.0 - beta2))


def p_nr(rho: float) -> float:
    return chi2_cdf(1.0 + rho) - chi2_cdf(max(0.0, 1.0 - rho))


def p_sr(rho: float) -> float:
    """E[max(0, 1 - |z - 1| / (2 rho))] for z ~ chi2_1, in closed form."""
    c = 1.0 / (2.0 * rho)
    a, b = max(0.0, 1.0 - 2.0 * rho), 1.0 + 2.0 * rho
    F, G = chi2_cdf, chi2_partial_mean
    below = (1.0 - c) * (F(1.0) - F(a)) + c * (G(1.0) - G(a))
    above = (1.0 + c) * (F(b) - F(1.0)) - c * (G(b) - G(1.0))
    return below + above


def p_nr_transient(j: int, beta2: float, rho: float) -> float:
    ph = -math.expm1(j * math.log(beta2))
    return chi2_cdf(ph * (1.0 + rho)) - chi2_cdf(max(0.0, ph * (1.0 - rho)))


def startup_window(p0: float, p_init: float, beta2: float, rho: float) -> int | None:
    """Steps until total stalling reaches p0; None when unreachable."""
    if p0 <= p_init:
        return 0
    phi = chi2_inv((p0 - p_init) / (1.0 - p_init)) / (1.0 + rho)
    if phi >= 1.0:
        return None
    return max(0, math.ceil(math.log1p(-phi) / math.log(beta2)))


def is_first_kstar_crossing(K: int, beta2: float, rho: float, s0: float,
                            rel: float = 1e-9) -> bool:
    """True when the cycle-averaged excess staleness first reaches the
    remaining error E(K) at K, up to a relative tolerance on both sides."""
    if K < 1:
        return False
    pss = p_nr(rho)
    acc = 0.0
    for j in range(1, K + 1):
        s = p_nr_transient(j, beta2, rho) / pss
        acc += max(0.0, (s - s0) / (1.0 - s0))
        bk = beta2**j
        e = 2.0 * bk / (1.0 + bk)
        if j < K and acc / j >= e * (1.0 + rel):
            return False
    return acc / K >= e * (1.0 - rel)
