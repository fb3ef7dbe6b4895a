"""Reference K* scan for equivalence tests.

These are the per-tolerance predictors that the shared scan in
``emastall.theory`` replaced: ``stalling_progress`` re-derives rhohat, the
steady state and the transient at every j, and ``kstar_info`` scans once for
each s0, so ``period_columns`` evaluates the S(j) sequence once per column.
The arithmetic is kept as it was; docstrings are dropped. Only the closed
forms (``p_stall_nr_transient``, ``p_stall_nr_ss``, ``remaining_error_E``)
and ``TheoryInputs`` come from the package, so the shared scan must
reproduce every K*, meta value and average bit for bit.
"""

from __future__ import annotations

import dataclasses

from emastall.theory import (
    PredictorOutput,
    TheoryInputs,
    p_stall_nr_ss,
    p_stall_nr_transient,
    remaining_error_E,
)


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


def kstar_info(inputs: TheoryInputs, max_K: int = 10_000_000) -> PredictorOutput:
    acc = 0.0
    s0 = inputs.s0
    for K in range(1, max_K + 1):
        acc += max(0.0, (stalling_progress(K, inputs) - s0) / (1.0 - s0))
        e = remaining_error_E(K, inputs.beta2)
        sbar = acc / K
        if sbar >= e:
            return PredictorOutput(
                value=K, meta={"sbar": sbar, "E": e, "rhohat": inputs.rhohat}
            )
    raise RuntimeError(f"no crossing found up to K={max_K}")


def reset_period_Kstar(inputs: TheoryInputs) -> int:
    return int(kstar_info(inputs).value)


def period_columns(inputs: TheoryInputs, s0_list) -> dict:
    return {
        f"Kstar@{s0:g}": reset_period_Kstar(dataclasses.replace(inputs, s0=s0))
        for s0 in s0_list
    }
