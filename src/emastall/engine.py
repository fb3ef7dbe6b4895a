"""Quantized EMA recursion with stall tracking and reset policies.

One update dequantizes the stored state, forms the high-precision proposal
``x + (1-beta)*(signal - x)``, and requantizes for storage. The increment
form makes the no-op case exact: a signal equal to the stored state leaves
every code untouched. A config with ``format=None`` keeps the state at
working precision and is the full-precision control used by experiments.

A state may also be a batch: a ``(rows, dim)`` stack of independent states
of one config, with a per-row cycle counter and excess. The row functions
(``adam_lockstep``, ``reset_rows``) step batches at once, ``adam_lockstep``
those of several storage configs in one step; every operation is
elementwise or a reduction along the last axis, so each row comes out
bit-identical to the same state stepped on its own. ``ema_step``,
``adam_step``, ``apply_reset_policy`` and ``skip_intervention_step`` are
the single-state forms.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .formats import FpFormat, RoundingMode
from .quantize import (
    QuantizedBlock,
    ScalingScheme,
    _block_absmax,
    _quantize_unchecked,
    dequantize,
    quantize,
    quantize_with_scales,
)
from .theory import excess_staleness, remaining_error_E


@dataclasses.dataclass(frozen=True)
class EmaConfig:
    """Storage and rounding configuration for one EMA state tensor.

    freeze_scale pins the block scales at their current values instead of
    recomputing them from each incoming proposal; init_scale, which only a
    frozen scale reads, anchors the grid absolutely (init_scale = x_max
    reproduces raw-format storage).
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
        if self.init_scale is not None:
            if not self.freeze_scale:
                raise ValueError("init_scale needs freeze_scale")
            if not (math.isfinite(self.init_scale) and self.init_scale > 0):
                raise ValueError("init_scale must be positive and finite")


@dataclasses.dataclass
class EmaState:
    """Stored (quantized) state plus its position in the reset cycle.

    excess is the staleness in excess of the tolerance accumulated over the
    current cycle; only the adaptive reset policy reads and advances it.
    A batch stores ``(rows, dim)`` and holds k and excess as ``(rows,)``
    arrays.
    """

    stored: QuantizedBlock | np.ndarray
    k: int | np.ndarray
    config: EmaConfig
    excess: float | np.ndarray = 0.0

    @classmethod
    def initialize(
        cls, config: EmaConfig, dim: int, rows: int | None = None
    ) -> "EmaState":
        """Zero state of one tensor, or of a batch of ``rows`` tensors."""
        if rows is None:
            shape, k, excess = (dim,), 0, 0.0
        else:
            shape, k, excess = (rows, dim), np.zeros(rows, np.int64), np.zeros(rows)
        zeros = np.zeros(shape)
        if config.format is None:
            return cls(zeros, k, config, excess)
        if config.init_scale is not None:
            scales = np.full(shape[:-1] + (config.scheme.n_blocks(dim),),
                             float(config.init_scale))
            stored = quantize_with_scales(zeros, config.format, config.scheme, scales)
        else:
            stored = quantize(zeros, config.format, config.scheme)
        return cls(stored, k, config, excess)

    def values(self) -> np.ndarray:
        if self.config.format is None:
            return self.stored.copy()
        return dequantize(self.stored)

    def __len__(self) -> int:
        return len(self.stored)


class RowStreams:
    """Rounding stream of a batch whose rows share per-seed generators.

    Row r draws from ``generators[r // rows_per_stream]``. ``random`` draws
    one ``(dim,)`` vector from each generator in turn and hands it to all
    of that generator's rows, so each generator advances exactly as it
    does for one of its rows stepped alone.
    """

    def __init__(self, generators: list, rows_per_stream: int):
        self.generators = list(generators)
        self.rows_per_stream = rows_per_stream

    def random(self, shape: tuple) -> np.ndarray:
        rows, dim = shape
        if rows != len(self.generators) * self.rows_per_stream:
            raise ValueError("draw shape does not match the batch")
        draws = np.empty((len(self.generators), dim))
        for g, row in zip(self.generators, draws):
            g.random(out=row)
        return np.repeat(draws, self.rows_per_stream, axis=0)


# the floating-point errors a proposal may raise, left to its finiteness check
_QUIET = {"over": "ignore", "invalid": "ignore"}


def _proposal(
    state: EmaState,
    signal: np.ndarray,
    hold: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    # the one validation of a write: a NaN, infinite or overflowing signal
    # leaves a non-finite proposal, so storage trusts what passes. Callers
    # run it under _QUIET, so an overflow surfaces as this ValueError rather
    # than as a warning. Rows flagged in hold propose their stored value,
    # which storage then reproduces exactly: a skipped update
    signal = np.asarray(signal, dtype=np.float64)
    x = state.stored if state.config.format is None else dequantize(state.stored)
    if signal.shape != x.shape:
        raise ValueError("signal shape does not match state")
    proposal = np.subtract(signal, x, out=out)
    proposal *= 1.0 - state.config.beta
    proposal += x
    if not np.isfinite(proposal).all():
        raise ValueError("non-finite or overflowing signal")
    if hold is not None:
        np.copyto(proposal, x, where=hold[:, None])
    return proposal


def _store(
    state: EmaState, proposal: np.ndarray, rng
) -> tuple[EmaState, np.ndarray]:
    # the stalled fraction of each row, as a 0-d array for a single state;
    # the proposal comes from _proposal, which has validated it
    cfg = state.config
    if cfg.format is None:
        stalled = proposal == state.stored
        new = proposal
    else:
        if cfg.freeze_scale:
            scales = state.stored.scales
        else:
            scales = _block_absmax(proposal, cfg.scheme)
        new = _quantize_unchecked(
            proposal, cfg.format, cfg.scheme, scales, cfg.rounding, rng
        )
        # code-only comparison: the stored-bit-pattern convention
        stalled = state.stored.codes == new.codes
    # an exact count over dim, the same bits as the mean of the flags
    frac = stalled.sum(axis=-1) / stalled.shape[-1]
    return EmaState(new, state.k + 1, cfg, state.excess), frac


def _require_single(*states: EmaState) -> None:
    if any(np.ndim(state.k) for state in states):
        raise ValueError("a batch of states steps through adam_lockstep and reset_rows")


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
    _require_single(state)
    with np.errstate(**_QUIET):
        proposal = _proposal(state, signal)
    new, frac = _store(state, proposal, rng)
    return new, float(frac)


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
    _require_single(state)
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


class ResetRows:
    """The reset rules of a batch as per-row vectors, for one moment.

    Row r follows ``policies[r]``; with ``moment`` ("first" or "second"),
    a policy whose applies_to excludes that moment never resets its row.
    """

    def __init__(self, policies: list, moment: str | None = None):
        if moment is not None:
            policies = [
                p if p.applies_to in (moment, "both") else ResetPolicy.none()
                for p in policies
            ]
        self.period = np.array(
            [p.K if p.kind is ResetKind.PERIODIC else np.inf for p in policies]
        )
        self.adaptive = [
            (r, p) for r, p in enumerate(policies) if p.kind is ResetKind.ADAPTIVE
        ]


def reset_rows(
    state: EmaState, rules: ResetRows, fractions: np.ndarray
) -> tuple[EmaState, np.ndarray]:
    """Apply each row's reset rule after a batch step; returns the state and
    the per-row reset flags. fractions are the rows' stalled fractions of
    the step just taken (only ADAPTIVE reads them)."""
    k = state.k
    reset = k >= rules.period
    excess = state.excess
    if rules.adaptive:
        # one row at a time: with the few adaptive rows of a study, numpy's
        # per-call cost makes a vectorized rule slower than this loop
        excess = excess.copy()
        for r, policy in rules.adaptive:
            if k[r] < 1:
                continue
            # cycle-average the observed excess staleness online
            s = fractions[r] / policy.p_ss
            excess[r] += excess_staleness(s, policy.s0)
            reset[r] = excess[r] / k[r] >= remaining_error_E(int(k[r]), policy.beta2)
    if not reset.any():
        return EmaState(state.stored, k, state.config, excess), reset
    cfg = state.config
    fresh = EmaState.initialize(cfg, state.stored.shape[-1], len(reset))
    keep = ~reset[:, None]
    if cfg.format is None:
        stored = np.where(keep, state.stored, fresh.stored)
    else:
        old = state.stored
        # frozen anchors survive resets; a zero row encodes the same under
        # any scale
        scales = old.scales if cfg.freeze_scale else np.where(keep, old.scales, 0.0)
        codes = np.where(keep, old.codes, fresh.stored.codes)
        stored = QuantizedBlock(codes, scales, old.format, old.scheme)
    k, excess = np.where(reset, 0, k), np.where(reset, 0.0, excess)
    return EmaState(stored, k, cfg, excess), reset


def _map_stored(state: EmaState, f):
    stored = state.stored
    if isinstance(stored, QuantizedBlock):
        return QuantizedBlock(f(stored.codes), f(stored.scales), stored.format,
                              stored.scheme)
    return f(stored)


def apply_reset_policy(
    state: EmaState, policy: ResetPolicy, last_fraction: float = 0.0
) -> tuple[EmaState, bool]:
    """Apply the reset rule after a step; returns (state, did_reset).

    For ADAPTIVE, last_fraction is the empirical stalled fraction of the
    step just taken.
    """
    _require_single(state)
    batch = EmaState(_map_stored(state, lambda a: a[None]), np.array([state.k]),
                     state.config, np.array([state.excess]))
    batch, reset = reset_rows(batch, ResetRows([policy]), np.array([last_fraction]))
    single = EmaState(_map_stored(batch, lambda a: a[0]), int(batch.k[0]),
                      state.config, float(batch.excess[0]))
    return single, bool(reset[0])


@dataclasses.dataclass(frozen=True)
class AdamHyper:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lr", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be non-negative and finite")
        for name in ("beta1", "beta2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")


def _adam_update(
    params: np.ndarray,
    m_vals: np.ndarray,
    v_vals: np.ndarray,
    k_m: int | np.ndarray,
    k_v: int | np.ndarray,
    hyper: AdamHyper,
) -> np.ndarray:
    # k_m and k_v are ints, or (rows,) arrays for a batch
    k_m, k_v = np.asarray(k_m), np.asarray(k_v)
    if k_m.min() < 1 or k_v.min() < 1:
        raise ValueError("bias correction needs at least one accumulated step")
    # one correction per row, broadcast along the row; the temporaries are
    # updated in place, with the float operations of
    # params - lr * m_hat / (sqrt(v_hat) + eps) - lr * weight_decay * params
    step = m_vals / -np.expm1(k_m * np.log(hyper.beta1))[..., None]
    denom = v_vals / -np.expm1(k_v * np.log(hyper.beta2))[..., None]
    np.sqrt(denom, out=denom)
    denom += hyper.eps
    step /= denom
    step *= hyper.lr
    new = params - step
    np.multiply(params, hyper.lr * hyper.weight_decay, out=step)
    new -= step
    return new


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


def adam_lockstep(
    moments: list,
    grad: np.ndarray,
    hyper: AdamHyper,
    params: np.ndarray,
    rngs: list,
    t_global: int | None = None,
    hold_m: np.ndarray | None = None,
    hold_v: np.ndarray | None = None,
) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
    """``adam_step`` for the row batches of several storage configs at once.

    ``moments[c]`` is config c's (m, v) pair of ``(rows, dim)`` batches,
    stepped on ``grad[c]`` and ``params[c]`` with ``rngs[c]``, a Generator
    or a ``RowStreams``. Rows flagged in hold_m (hold_v) skip that moment's
    update in every config: its stored value stays, its cycle counter still
    advances, and the parameter update reads the stored value. One update
    moves the whole parameter stack. Returns (params, moments, stalled_m,
    stalled_v), the per-row fractions stacked by config.
    """
    shape = (len(moments),) + params.shape[1:]
    if grad.shape != params.shape or params.shape != shape:
        raise ValueError("gradient/parameter shape mismatch")
    pm, pv = np.empty(shape), np.empty(shape)
    # every proposal first, under one errstate; _proposal rejects an
    # infinite square
    with np.errstate(**_QUIET):
        square = grad * grad
        for c, (m, v) in enumerate(moments):
            if m.config.beta != hyper.beta1 or v.config.beta != hyper.beta2:
                raise ValueError("moment config betas must match the hyperparameters")
            _proposal(m, grad[c], hold_m, pm[c])
            _proposal(v, square[c], hold_v, pv[c])
    stepped, frac_m, frac_v = [], [], []
    for c, ((m, v), rng) in enumerate(zip(moments, rngs)):
        m2, fm = _store(m, pm[c], rng)
        v2, fv = _store(v, pv[c], rng)
        stepped.append((m2, v2))
        frac_m.append(fm)
        frac_v.append(fv)
    if t_global is not None:
        k_m = k_v = t_global
    else:
        k_m = np.array([m.k for m, _ in stepped])
        k_v = np.array([v.k for _, v in stepped])
    new_params = _adam_update(params, pm, pv, k_m, k_v, hyper)
    return new_params, stepped, np.array(frac_m), np.array(frac_v)


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
    _require_single(m_state, v_state)
    grad = np.asarray(grad, dtype=np.float64)
    new_params, [(m2, v2)], frac_m, frac_v = adam_lockstep(
        [(m_state, v_state)], grad[None], hyper, params[None], [rng], t_global
    )
    stalled = {"stalled_m": float(frac_m[0]), "stalled_v": float(frac_v[0])}
    return new_params[0], m2, v2, stalled


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
