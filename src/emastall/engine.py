"""Quantized EMA recursion with stall tracking and reset policies.

One update dequantizes the stored state, forms the high-precision proposal
``x + (1-beta)*(signal - x)``, and requantizes for storage. The increment
form makes the no-op case exact: a signal equal to the stored state leaves
every code untouched. A config with ``format=None`` keeps the state at
working precision and is the full-precision control used by experiments.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .formats import FpFormat, RoundingMode
from .quantize import (
    QuantizedBlock,
    ScalingScheme,
    dequantize,
    quantize,
    quantize_with_scales,
    stalled_fraction,
)
from .theory import remaining_error_E


@dataclasses.dataclass(frozen=True)
class EmaConfig:
    """Storage and rounding configuration for one EMA state tensor.

    freeze_scale pins the block scales at their current values instead of
    recomputing them from each incoming proposal; with init_scale it anchors
    the grid absolutely (init_scale = x_max reproduces raw-format storage).
    """

    beta: float
    format: FpFormat | None
    scheme: ScalingScheme = ScalingScheme()
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN
    freeze_scale: bool = False
    init_scale: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if self.freeze_scale and self.format is not None and self.init_scale is None:
            raise ValueError("freeze_scale needs an init_scale anchor")
        if self.init_scale is not None and self.init_scale <= 0:
            raise ValueError("init_scale must be positive")


@dataclasses.dataclass
class EmaState:
    """Stored (quantized) state plus its position in the reset cycle.

    excess is the staleness in excess of the tolerance accumulated over the
    current cycle; only the adaptive reset policy reads and advances it.
    """

    stored: QuantizedBlock | np.ndarray
    k: int
    config: EmaConfig
    excess: float = 0.0

    @classmethod
    def initialize(cls, config: EmaConfig, dim: int) -> "EmaState":
        zeros = np.zeros(dim)
        if config.format is None:
            return cls(stored=zeros, k=0, config=config)
        if config.freeze_scale and config.init_scale is not None:
            n_blocks = config.scheme.n_blocks(dim)
            stored = quantize_with_scales(
                zeros,
                config.format,
                config.scheme,
                np.full(n_blocks, float(config.init_scale)),
            )
        else:
            stored = quantize(zeros, config.format, config.scheme)
        return cls(stored=stored, k=0, config=config)

    def values(self) -> np.ndarray:
        if self.config.format is None:
            return self.stored.copy()
        return dequantize(self.stored)

    def __len__(self) -> int:
        return len(self.stored)


def _proposal(state: EmaState, signal: np.ndarray) -> np.ndarray:
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != (len(state),):
        raise ValueError("signal shape does not match state")
    if not np.all(np.isfinite(signal)):
        raise ValueError("non-finite signal")
    x = state.values()
    return x + (1.0 - state.config.beta) * (signal - x)


def _store(
    state: EmaState, proposal: np.ndarray, rng: np.random.Generator | None
) -> tuple[EmaState, float]:
    cfg = state.config
    if cfg.format is None:
        frac = float(np.mean(proposal == state.stored))
        return EmaState(proposal, state.k + 1, cfg, state.excess), frac
    if cfg.freeze_scale:
        new = quantize_with_scales(
            proposal, cfg.format, cfg.scheme, state.stored.scales, cfg.rounding, rng
        )
    else:
        new = quantize(proposal, cfg.format, cfg.scheme, cfg.rounding, rng)
    frac = stalled_fraction(state.stored, new, include_scale=False)
    return EmaState(new, state.k + 1, cfg, state.excess), frac


def ema_step(
    state: EmaState,
    signal: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[EmaState, float]:
    """Advance the EMA one step and report the stalled fraction.

    The fraction compares stored codes before and after the write (the
    stored-bit-pattern convention); per-step scale recomputation does not
    count as movement on its own.
    """
    return _store(state, _proposal(state, signal), rng)


def skip_intervention_step(
    state: EmaState,
    signal: np.ndarray,
    p_skip: float,
    rng: np.random.Generator,
) -> EmaState:
    """Run ema_step, except the whole update is skipped with probability
    p_skip (a forced stall; the cycle counter still advances)."""
    if not 0.0 <= p_skip <= 1.0:
        raise ValueError("p_skip must be in [0, 1]")
    if p_skip > 0.0 and rng.random() < p_skip:
        return EmaState(state.stored, state.k + 1, state.config, state.excess)
    new, _ = ema_step(state, signal, rng)
    return new


class ResetKind(Enum):
    NONE = "none"
    PERIODIC = "periodic"
    ADAPTIVE = "adaptive"


@dataclasses.dataclass(frozen=True)
class ResetPolicy:
    """When to clear an EMA state.

    PERIODIC resets every K steps. ADAPTIVE accumulates the observed excess
    staleness on the state and resets once its cycle average overtakes the
    remaining statistical error E(k).
    """

    kind: ResetKind
    K: int | None = None
    s0: float = 0.6
    p_ss: float = 1.0
    beta2: float | None = None
    applies_to: str = "both"

    def __post_init__(self) -> None:
        if self.applies_to not in ("first", "second", "both"):
            raise ValueError("applies_to must be first, second or both")
        if self.kind is ResetKind.PERIODIC and (self.K is None or self.K < 1):
            raise ValueError("PERIODIC needs K >= 1")
        if self.kind is ResetKind.ADAPTIVE:
            if self.beta2 is None or not 0.0 < self.beta2 < 1.0:
                raise ValueError("ADAPTIVE needs beta2 in (0, 1)")
            if not 0.0 <= self.s0 < 1.0 or self.p_ss <= 0.0:
                raise ValueError("ADAPTIVE needs s0 in [0, 1) and p_ss > 0")

    @classmethod
    def none(cls) -> "ResetPolicy":
        return cls(ResetKind.NONE)

    @classmethod
    def periodic(cls, K: int, applies_to: str = "both") -> "ResetPolicy":
        return cls(ResetKind.PERIODIC, K=K, applies_to=applies_to)

    @classmethod
    def adaptive(
        cls,
        beta2: float,
        s0: float = 0.6,
        p_ss: float = 1.0,
        applies_to: str = "both",
    ) -> "ResetPolicy":
        return cls(
            ResetKind.ADAPTIVE, s0=s0, p_ss=p_ss, beta2=beta2, applies_to=applies_to
        )


def _reset_state(state: EmaState) -> EmaState:
    cfg = state.config
    if cfg.format is not None and cfg.freeze_scale:
        # frozen anchors survive resets
        stored = quantize_with_scales(
            np.zeros(len(state)), cfg.format, cfg.scheme, state.stored.scales
        )
        return EmaState(stored, 0, cfg, 0.0)
    return EmaState.initialize(cfg, len(state))


def apply_reset_policy(
    state: EmaState, policy: ResetPolicy, last_fraction: float = 0.0
) -> tuple[EmaState, bool]:
    """Apply the reset rule after a step; returns (state, did_reset).

    For ADAPTIVE, last_fraction is the empirical stalled fraction of the
    step just taken.
    """
    if policy.kind is ResetKind.NONE:
        return state, False
    if policy.kind is ResetKind.PERIODIC:
        if state.k >= policy.K:
            return _reset_state(state), True
        return state, False
    # adaptive: cycle-average the observed excess staleness online
    k = state.k
    if k < 1:
        return state, False
    s = last_fraction / policy.p_ss
    excess = state.excess + max(0.0, (s - policy.s0) / (1.0 - policy.s0))
    if excess / k >= remaining_error_E(k, policy.beta2):
        return _reset_state(state), True
    return EmaState(state.stored, k, state.config, excess), False


@dataclasses.dataclass(frozen=True)
class AdamHyper:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    weight_decay: float = 0.0


def _adam_update(
    params: np.ndarray,
    m_vals: np.ndarray,
    v_vals: np.ndarray,
    k_m: int,
    k_v: int,
    hyper: AdamHyper,
) -> np.ndarray:
    if k_m < 1 or k_v < 1:
        raise ValueError("bias correction needs at least one accumulated step")
    m_hat = m_vals / -np.expm1(k_m * np.log(hyper.beta1))
    v_hat = v_vals / -np.expm1(k_v * np.log(hyper.beta2))
    step = m_hat / (np.sqrt(v_hat) + hyper.eps)
    return params - hyper.lr * step - hyper.lr * hyper.weight_decay * params


def apply_adam_update(
    params: np.ndarray,
    m_state: EmaState,
    v_state: EmaState,
    hyper: AdamHyper,
    t_global: int | None = None,
) -> np.ndarray:
    """Parameter update from the stored moments.

    Bias correction uses each moment's own cycle step, so the correction
    clock resets together with the state; pass t_global to use a global
    clock instead. Epsilon is added outside the square root, and weight
    decay is decoupled.
    """
    k_m = t_global if t_global is not None else m_state.k
    k_v = t_global if t_global is not None else v_state.k
    return _adam_update(params, m_state.values(), v_state.values(), k_m, k_v, hyper)


def adam_step(
    m_state: EmaState,
    v_state: EmaState,
    grad: np.ndarray,
    hyper: AdamHyper,
    params: np.ndarray,
    rng: np.random.Generator | None = None,
    t_global: int | None = None,
) -> tuple[np.ndarray, EmaState, EmaState, dict]:
    """One Adam step with both moments stored through their EMA configs.

    The parameter update is computed from the high-precision moment
    proposals; quantization error enters future steps through storage only.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.shape:
        raise ValueError("gradient/parameter shape mismatch")
    if m_state.config.beta != hyper.beta1 or v_state.config.beta != hyper.beta2:
        raise ValueError("moment config betas must match the hyperparameters")
    pm = _proposal(m_state, grad)
    pv = _proposal(v_state, grad * grad)
    m2, frac_m = _store(m_state, pm, rng)
    v2, frac_v = _store(v_state, pv, rng)
    k_m = t_global if t_global is not None else m2.k
    k_v = t_global if t_global is not None else v2.k
    new_params = _adam_update(params, pm, pv, k_m, k_v, hyper)
    return new_params, m2, v2, {"stalled_m": frac_m, "stalled_v": frac_v}


@dataclasses.dataclass
class StallTrace:
    """Per-step stalled fractions with reset-cycle bookkeeping."""

    tensor_id: str = "state"
    fractions: list = dataclasses.field(default_factory=list)
    cycle_ks: list = dataclasses.field(default_factory=list)
    reset_flags: list = dataclasses.field(default_factory=list)

    def append(self, fraction: float, cycle_k: int, did_reset: bool) -> None:
        self.fractions.append(fraction)
        self.cycle_ks.append(cycle_k)
        self.reset_flags.append(bool(did_reset))

    def __len__(self) -> int:
        return len(self.fractions)

    @property
    def reset_steps(self) -> list:
        return [i + 1 for i, r in enumerate(self.reset_flags) if r]

    def to_csv(self, path: str | Path) -> None:
        write_csv(
            path,
            ["step", "tensor_id", "stalled_fraction", "cycle_k", "reset_flag"],
            (
                [i, self.tensor_id, f, k, int(r)]
                for i, (f, k, r) in enumerate(
                    zip(self.fractions, self.cycle_ks, self.reset_flags), start=1
                )
            ),
        )
