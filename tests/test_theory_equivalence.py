"""The shared K* scan against the per-tolerance reference scan.

``theory_oracle`` keeps the scan that re-derived S(j) for every s0 and every
j. The shared scan evaluates S(j) once per j for all tolerances and hoists
what does not depend on j, with the same float operations in the same
order, so every K*, cycle average and E(K*) must equal the oracle's (``==``
on floats) over every preset, custom formats and a log-spaced beta2 grid.
"""

import math

import numpy as np
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


def crossing(inputs: TheoryInputs, **kwargs) -> oracle.Crossing:
    """The package's K* with both sides of the crossing, each from its
    public function."""
    K = theory.reset_period_Kstar(inputs, **kwargs)
    return oracle.Crossing(K, theory.avg_excess_staleness(K, inputs),
                           theory.remaining_error_E(K, inputs.beta2))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_period_columns_equal_the_per_s0_scans(fmt):
    for beta2 in BETA2S:
        inputs = TheoryInputs(beta2=beta2, format=fmt)
        for s0s in S0_LISTS:
            got = theory.period_columns(inputs, s0s)
            want = oracle.period_columns(inputs, s0s)
            assert list(got.values()) == list(want.values()), (beta2, s0s)
            # labels are the shortest round-trip text; the oracle keeps :g
            labels = dict.fromkeys(f"Kstar@{float(s0)!r}" for s0 in s0s)
            assert list(got) == list(labels)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_reset_period_kstar_and_crossing(fmt):
    for beta2 in BETA2S[::3]:
        for s0 in (0.0, 0.6, 0.9):
            inputs = TheoryInputs(beta2=beta2, format=fmt, s0=s0)
            assert crossing(inputs) == oracle.kstar_info(inputs), (beta2, s0)


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
    assert theory.reset_period_Kstar(inputs, max_K=kstar) == kstar
    for max_K in (0, 1, kstar - 1):
        with pytest.raises(RuntimeError, match=f"no crossing found up to K={max_K}$"):
            theory.reset_period_Kstar(inputs, max_K=max_K)
        with pytest.raises(RuntimeError, match=f"no crossing found up to K={max_K}$"):
            oracle.kstar_info(inputs, max_K=max_K)


# The scan runs in chunks of K carrying the sums from one chunk to the next:
# the first holds theory._FIRST_CHUNK values, each later one a quarter of the
# K before it (at least one), capped at theory._MAX_CHUNK. The cases below
# put crossings and max_K on chunk edges, under the default layout and
# under patched ones that make every K an edge.
BF16, FP8 = PRESETS["bf16"], PRESETS["fp8_e4m3"]
# (format, beta2, s0, whether rhohat < 1)
EDGE_INPUTS = [
    (BF16, 0.99, 0.6, True),  # rhohat 0.27
    (BF16, 0.999, 0.0, False),  # rhohat 2.7
    (PRESETS["fp4_e2m2u"], 0.999, 0.9, False),
    # rhohat one ulp below 1 (the lower erf term is tiny but computed) and
    # just above 1 (where the scan skips it as exactly 0.0)
    (FP8, 0.9566783012150034, 0.6, True),
    (FP8, 0.9566783012150035, 0.6, False),
]


def _chunk_ends(n: int) -> list[int]:
    """The last K of each of the first n chunks of the current layout."""
    ends, end = [], theory._FIRST_CHUNK
    for _ in range(n):
        ends.append(end)
        end += min(max(1, end // 4), theory._MAX_CHUNK)
    return ends


@pytest.mark.parametrize("layout", [None, (1, 1), (1, 2), (9, 2), (5, 64)],
                         ids=["default", "1-1", "1-2", "9-2", "5-64"])
def test_chunk_ends_describe_the_scan(monkeypatch, layout):
    if layout is not None:
        monkeypatch.setattr(theory, "_FIRST_CHUNK", layout[0])
        monkeypatch.setattr(theory, "_MAX_CHUNK", layout[1])
    ends = _chunk_ends(30)
    inputs = TheoryInputs(beta2=0.999, format=BF16)
    chunks = [(k0, sums.shape[1])
              for k0, sums in theory._excess_chunks(inputs, (0.6,), ends[-1])]
    starts = [1] + [e + 1 for e in ends[:-1]]
    assert chunks == [(k0, e - k0 + 1) for k0, e in zip(starts, ends)]


def _layouts(kstar: int) -> list[tuple[int, int]]:
    # (first chunk, cap): K* as the last K of the first chunk and the first
    # K of the second; one K per chunk; two-K chunks from K = 9 on that end
    # at even K (after single K up to 8) and from K = 10 on that end at odd
    # K, so that K* is both the first and the last K of a later chunk
    return [(kstar, kstar), (kstar - 1, kstar), (1, 1), (1, 2), (2, 2), (9, 2)]


@pytest.mark.parametrize("fmt,beta2,s0,below_one", EDGE_INPUTS,
                         ids=[f"{f.name}-{b!r}" for f, b, _, _ in EDGE_INPUTS])
def test_crossing_on_a_chunk_edge(monkeypatch, fmt, beta2, s0, below_one):
    inputs = TheoryInputs(beta2=beta2, format=fmt, s0=s0)
    assert (inputs.rhohat < 1.0) == below_one
    want = oracle.kstar_info(inputs)
    for first, cap in _layouts(want.value):
        monkeypatch.setattr(theory, "_FIRST_CHUNK", first)
        monkeypatch.setattr(theory, "_MAX_CHUNK", cap)
        assert crossing(inputs) == want, (first, cap)
        K = want.value
        for k in (K - 1, K):
            got = theory.avg_excess_staleness(k, inputs)
            assert got == oracle.avg_excess_staleness(k, inputs), (first, cap, k)


@pytest.mark.parametrize("layout", [None, (4, 16)], ids=["default", "small"])
def test_tolerances_crossing_in_different_chunks(monkeypatch, layout):
    # at beta2 0.999 the K* of these tolerances run from 671 to 2269, over
    # three chunks of the default layout and dozens of the small one
    if layout is not None:
        monkeypatch.setattr(theory, "_FIRST_CHUNK", layout[0])
        monkeypatch.setattr(theory, "_MAX_CHUNK", layout[1])
    inputs = TheoryInputs(beta2=0.999, format=BF16)
    s0s = (0.9, 0.0, 0.6, 0.95)
    got = theory.period_columns(inputs, s0s)
    assert list(got.values()) == list(oracle.period_columns(inputs, s0s).values())
    if layout is None:
        # 671, 1116, then 1856 and 2269 in one chunk
        ends = _chunk_ends(14)
        chunks = {sum(k > e for e in ends) for k in got.values()}
        assert len(chunks) == 3


def test_max_K_on_a_chunk_edge_of_a_long_scan():
    # beta2 0.99995 with s0 0.95 crosses at 9352, past twenty default chunks
    inputs = TheoryInputs(beta2=0.99995, format=BF16, s0=0.95)
    want = oracle.kstar_info(inputs)
    ends = [e for e in _chunk_ends(30) if e < want.value]
    assert len(ends) >= 20
    for max_K in sorted({e + d for e in ends for d in (-1, 0, 1)}):
        with pytest.raises(RuntimeError, match=f"^no crossing found up to K={max_K}$"):
            theory.reset_period_Kstar(inputs, max_K=max_K)
    for max_K in (want.value, want.value + 1):
        assert crossing(inputs, max_K=max_K) == want
    with pytest.raises(RuntimeError, match=f"^no crossing found up to K={want.value - 1}$"):
        oracle.kstar_info(inputs, max_K=want.value - 1)
    for K in (ends[2], ends[2] + 1, ends[-1], ends[-1] + 1):
        assert theory.avg_excess_staleness(K, inputs) == oracle.avg_excess_staleness(K, inputs)


# The SR integrals against the generic adaptive Simpson rule that calls its
# integrand at every node. The specialized integrator writes the soft gate
# out at each node, so every value must equal the oracle's (``==``).
# 2000 values log-spaced over [1e-4, 1e3]; fp8_e4m3's at beta2
# 0.9986359594251875, where the benchmark's p_sr check fails at seed 33; and
# 0.5 with its neighbours, where the left piece's lower limit reaches 0
RHOS = [10.0 ** (-4.0 + 7.0 * i / 1999) for i in range(2000)] + [
    theory.rhohat_value(FP8.epsilon, 0.9986359594251875),
    math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)]


def test_p_stall_sr_ss_equals_the_generic_integrator():
    assert 31.75 < RHOS[-4] < 31.77
    assert math.sqrt(1.0 - 2.0 * RHOS[-3]) > 0.0 == math.sqrt(1.0 - 2.0 * RHOS[-2])
    bad = [r for r in RHOS if theory.p_stall_sr_ss(r) != oracle.p_stall_sr_ss(r)]
    assert bad == []
    for tol in (1e-6, 1e-12):
        bad = [r for r in RHOS[::50]
               if theory.p_stall_sr_ss(r, tol) != oracle.p_stall_sr_ss(r, tol)]
        assert bad == [], tol


def test_soft_crush_equals_the_generic_integrator():
    cs = [10.0 ** (-8.0 + 10.0 * i / 1999) for i in range(2000)]
    bad = [c for c in cs if theory._soft_crush(c) != oracle._soft_crush(c)]
    assert bad == []
    for c in (0.0, -1.0):
        assert theory._soft_crush(c) == oracle._soft_crush(c) == 0.0


def test_chi2_1_inv_equals_the_range_checked_bisection():
    # both ends log-spaced (p in [1e-300, 0.1], 1 - p in [1e-16, 0.1]), a
    # linear grid and uniform draws: the inverse behind every j* and p_init
    ps = [10.0 ** (-300.0 + 299.0 * i / 999) for i in range(1000)]
    ps += [1.0 - 10.0 ** (-16.0 + 15.0 * i / 999) for i in range(1000)]
    ps += [i / 1000 for i in range(1000)]
    ps += np.random.default_rng(24).random(2000).tolist()
    bad = [p for p in ps if theory.chi2_1_inv(p) != oracle.chi2_1_inv(p)]
    assert bad == []
    for p in (1.0, -0.2, math.nan):
        with pytest.raises(ValueError, match="^chi2_1_inv requires 0 <= p < 1$"):
            theory.chi2_1_inv(p)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_p_init_model_sr_equals_the_generic_integrator(fmt):
    for block in (2, 16, 128, 1024):
        for p_zero in (0.0, 0.25):
            inputs = TheoryInputs(beta2=0.999, format=fmt, p_zero=p_zero,
                                  block_size_B=block)
            m_b = theory.chi2_1_inv(1.0 - 1.0 / block)
            f_crush = oracle._soft_crush(2.0 * inputs.tau_crush * m_b)
            want = p_zero + (1.0 - p_zero) * f_crush
            assert theory.p_init_model(inputs, mode_sr=True) == want, (block, p_zero)
