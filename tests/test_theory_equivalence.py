"""The shared K* scan against the per-tolerance reference scan.

``theory_oracle`` keeps the scan that re-derived S(j) for every s0 and every
j. The shared scan evaluates S(j) once per j for all tolerances and hoists
what does not depend on j, with the same float operations in the same
order, so every K*, meta value and cycle average must equal the oracle's
(``==`` on floats) over every preset, custom formats and a log-spaced beta2
grid.
"""

import math

import pytest

from emastall import theory
from emastall.formats import PRESETS, FpFormat
from emastall.theory import TheoryInputs

import theory_oracle as oracle

CUSTOM = [
    FpFormat("e3m2_nosub", 1, 3, 2, 3, has_subnormals=False),
    FpFormat("e5m10", 1, 5, 10, 15),
]
FORMATS = list(PRESETS.values()) + CUSTOM
# 40 values of beta2 in [0.9, 0.99995], log-spaced in 1 - beta2
BETA2S = [1.0 - 0.1 * 5e-4 ** (i / 39) for i in range(40)]
# the CLI default, and an unsorted list with the extremes 0.0 and 0.9, an
# exact duplicate and 0 after 0.0 (equal values under one label)
S0_LISTS = [(0.6,), (0.7, 0.0, 0.5, 0.9, 0.6, 0.5, 0)]


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_period_columns_equal_the_per_s0_scans(fmt):
    for beta2 in BETA2S:
        inputs = TheoryInputs(beta2=beta2, format=fmt)
        for s0s in S0_LISTS:
            got = theory.period_columns(inputs, s0s)
            want = oracle.period_columns(inputs, s0s)
            assert list(got.items()) == list(want.items()), (beta2, s0s)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_kstar_info_value_and_meta(fmt):
    for beta2 in BETA2S[::3]:
        for s0 in (0.0, 0.6, 0.9):
            inputs = TheoryInputs(beta2=beta2, format=fmt, s0=s0)
            got, want = theory.kstar_info(inputs), oracle.kstar_info(inputs)
            assert (got.value, got.meta) == (want.value, want.meta), (beta2, s0)
            assert theory.reset_period_Kstar(inputs) == want.value


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_avg_excess_staleness_at_several_K(fmt):
    for beta2 in BETA2S[::7]:
        for s0 in (0.0, 0.6, 0.9):
            inputs = TheoryInputs(beta2=beta2, format=fmt, s0=s0)
            for K in (1, 2, 17, 300, math.ceil(2.0 / (1.0 - beta2))):
                got = theory.avg_excess_staleness(K, inputs)
                assert got == oracle.avg_excess_staleness(K, inputs), (beta2, s0, K)


def test_max_K_without_a_crossing_raises():
    inputs = TheoryInputs(beta2=0.999, format=PRESETS["bf16"], s0=0.9)
    kstar = oracle.kstar_info(inputs).value
    assert theory.kstar_info(inputs, max_K=kstar).value == kstar
    for max_K in (0, 1, kstar - 1):
        with pytest.raises(RuntimeError, match=f"no crossing found up to K={max_K}$"):
            theory.kstar_info(inputs, max_K=max_K)
        with pytest.raises(RuntimeError, match=f"no crossing found up to K={max_K}$"):
            oracle.kstar_info(inputs, max_K=max_K)
