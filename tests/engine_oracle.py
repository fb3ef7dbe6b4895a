"""Reference engine and per-cell study loops for equivalence tests.

These are the single-state EMA/Adam engine, its block quantizer and the
per-cell training loops that the batched study engine replaced. The
arithmetic and the order of every draw are kept as they were; docstrings,
type hints and the unused ``t_global`` clock are dropped, ``OracleState``
is the old ``EmaState``, and ``skip_study_losses`` is the old
``run_skip_study`` inner loop. Only the rounding kernel
(``RoundingGrid.encode``, every element in one mode), the configs and the
problems come from the package; a cell steps its seed's one-seed stack,
``problem.make_stack((seed,))``. Each (config, policy, seed) or
(p_skip, seed) cell runs alone here, with its own freshly seeded streams,
so the batched studies must reproduce these losses bit for bit. Each
moment reads its beta from its state's config, and the adaptive rule its
beta2 from the second moment's, where the old engine read them from the
hyperparameters and the policy.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from emastall.engine import (
    AdamHyper,
    EmaConfig,
    ResetKind,
    ResetPolicy,
    StallTrace,
)
from emastall.formats import RoundingMode, _normalized_grid
from emastall.quantize import QuantizedBlock
from emastall.simlab import _KEY_ROUND, _trailing_window, moment_configs
from emastall.theory import remaining_error_E

# ---------------------------------------------------------------- quantizer


def _block_absmax(values, scheme):
    starts = scheme.block_starts(len(values))
    return np.maximum.reduceat(np.abs(values), starts)


def quantize(values, fmt, scheme, mode=RoundingMode.NEAREST_EVEN, rng=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("expected a nonempty 1-d array")
    scales = _block_absmax(values, scheme)
    return quantize_with_scales(values, fmt, scheme, scales, mode, rng)


def quantize_with_scales(values, fmt, scheme, scales, mode=RoundingMode.NEAREST_EVEN,
                         rng=None):
    values = np.asarray(values, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    if len(scales) != scheme.n_blocks(len(values)):
        raise ValueError("one scale per block required")
    if np.any(scales < 0):
        raise ValueError("scales must be nonnegative")
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot quantize non-finite values")
    if len(scales) == 1:
        w = values / scales[0] if scales[0] > 0 else np.zeros_like(values)
    else:
        starts = scheme.block_starts(len(values))
        rep = np.repeat(scales, np.diff(np.append(starts, len(values))))
        w = np.divide(values, rep, out=np.zeros_like(values), where=rep > 0)
    n_nearest = len(w) if mode is RoundingMode.NEAREST_EVEN else 0
    codes = _normalized_grid(fmt).encode(w, n_nearest, rng)
    return QuantizedBlock(codes=codes, scales=scales, format=fmt, scheme=scheme)


def _scales_per_element(q):
    starts = q.scheme.block_starts(len(q.codes))
    lengths = np.diff(np.append(starts, len(q.codes)))
    return np.repeat(q.scales, lengths)


def dequantize(q):
    vals = _normalized_grid(q.format).decoded.take(q.codes)
    vals *= q.scales[0] if len(q.scales) == 1 else _scales_per_element(q)
    return vals


def stalled_fraction(prev, next):
    return float(np.mean(prev.codes == next.codes))


# ------------------------------------------------------------------- engine


@dataclasses.dataclass
class OracleState:
    stored: QuantizedBlock | np.ndarray
    k: int
    config: EmaConfig
    excess: float = 0.0

    @classmethod
    def initialize(cls, config, dim):
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

    def values(self):
        if self.config.format is None:
            return self.stored.copy()
        return dequantize(self.stored)

    def __len__(self):
        return len(self.stored)


def _proposal(state, signal):
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != (len(state),):
        raise ValueError("signal shape does not match state")
    if not np.all(np.isfinite(signal)):
        raise ValueError("non-finite signal")
    x = state.values()
    return x + (1.0 - state.config.beta) * (signal - x)


def _store(state, proposal, rng):
    cfg = state.config
    if cfg.format is None:
        frac = float(np.mean(proposal == state.stored))
        return OracleState(proposal, state.k + 1, cfg, state.excess), frac
    if cfg.freeze_scale:
        new = quantize_with_scales(
            proposal, cfg.format, cfg.scheme, state.stored.scales, cfg.rounding, rng
        )
    else:
        new = quantize(proposal, cfg.format, cfg.scheme, cfg.rounding, rng)
    frac = stalled_fraction(state.stored, new)
    return OracleState(new, state.k + 1, cfg, state.excess), frac


def ema_step(state, signal, rng=None):
    return _store(state, _proposal(state, signal), rng)


def skip_intervention_step(state, signal, p_skip, rng):
    if not 0.0 <= p_skip <= 1.0:
        raise ValueError("p_skip must be in [0, 1]")
    if p_skip > 0.0 and rng.random() < p_skip:
        return OracleState(state.stored, state.k + 1, state.config, state.excess)
    new, _ = ema_step(state, signal, rng)
    return new


def _reset_state(state):
    cfg = state.config
    if cfg.format is not None and cfg.freeze_scale:
        stored = quantize_with_scales(
            np.zeros(len(state)), cfg.format, cfg.scheme, state.stored.scales
        )
        return OracleState(stored, 0, cfg, 0.0)
    return OracleState.initialize(cfg, len(state))


def apply_reset_policy(state, policy, beta2, last_fraction=0.0):
    if policy.kind is ResetKind.NONE:
        return state, False
    if policy.kind is ResetKind.PERIODIC:
        if state.k >= policy.K:
            return _reset_state(state), True
        return state, False
    k = state.k
    if k < 1:
        return state, False
    s = last_fraction / policy.p_ss
    excess = state.excess + max(0.0, (s - policy.s0) / (1.0 - policy.s0))
    if excess / k >= remaining_error_E(k, beta2):
        return _reset_state(state), True
    return OracleState(state.stored, k, state.config, excess), False


def _adam_update(params, m_vals, v_vals, k_m, k_v, beta1, beta2, hyper):
    if k_m < 1 or k_v < 1:
        raise ValueError("bias correction needs at least one accumulated step")
    m_hat = m_vals / -np.expm1(k_m * np.log(beta1))
    v_hat = v_vals / -np.expm1(k_v * np.log(beta2))
    step = m_hat / (np.sqrt(v_hat) + hyper.eps)
    return params - hyper.lr * step - hyper.lr * hyper.weight_decay * params


def apply_adam_update(params, m_state, v_state, hyper):
    return _adam_update(
        params, m_state.values(), v_state.values(), m_state.k, v_state.k,
        m_state.config.beta, v_state.config.beta, hyper,
    )


def adam_step(m_state, v_state, grad, hyper, params, rng=None):
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.shape:
        raise ValueError("gradient/parameter shape mismatch")
    pm = _proposal(m_state, grad)
    pv = _proposal(v_state, grad * grad)
    m2, frac_m = _store(m_state, pm, rng)
    v2, frac_v = _store(v_state, pv, rng)
    new_params = _adam_update(params, pm, pv, m2.k, v2.k, m2.config.beta,
                              v2.config.beta, hyper)
    return new_params, m2, v2, {"stalled_m": frac_m, "stalled_v": frac_v}


# ---------------------------------------------------------------- per cell


# a cell's parameters are the one row of its seed's one-seed stack
def _grad(stack, params):
    return stack.grad(params[None, None, None])[0, 0, 0]


def _loss(stack, params):
    return float(stack.losses(params[None, None, None])[0, 0, 0])


def run_reset_training(
    problem,
    cfg_m: EmaConfig,
    cfg_v: EmaConfig,
    policy: ResetPolicy,
    steps: int,
    seed: int,
    hyper: AdamHyper,
    record_trace: bool = False,
) -> dict:
    stack = problem.make_stack((seed,))
    params = stack.init_params()[0]
    m = OracleState.initialize(cfg_m, len(params))
    v = OracleState.initialize(cfg_v, len(params))
    round_rng = np.random.default_rng([seed, _KEY_ROUND])
    trace_m = StallTrace("first_moment")
    trace_v = StallTrace("second_moment")
    window = _trailing_window(steps)
    tail = []
    for t in range(1, steps + 1):
        g = _grad(stack, params)
        params, m, v, stats = adam_step(m, v, g, hyper, params, round_rng)
        reset_m = reset_v = False
        if policy.kind is not ResetKind.NONE:
            if policy.applies_to in ("first", "both"):
                m, reset_m = apply_reset_policy(m, policy, v.config.beta,
                                                stats["stalled_m"])
            if policy.applies_to in ("second", "both"):
                v, reset_v = apply_reset_policy(v, policy, v.config.beta,
                                                stats["stalled_v"])
        if record_trace:
            trace_m.append(stats["stalled_m"], m.k, reset_m)
            trace_v.append(stats["stalled_v"], v.k, reset_v)
        if t > steps - window:
            tail.append(_loss(stack, params))
    out = {"final_loss": float(np.mean(tail))}
    if record_trace:
        out["trace_m"] = trace_m
        out["trace_v"] = trace_v
    return out


def skip_study_losses(problem, p_skip_grid, target, steps, seeds, hyper,
                      warmup_fraction=0.1) -> list:
    """Final losses in the study's row order (p_skip major, then seed)."""
    warmup = int(round(warmup_fraction * steps))
    window = _trailing_window(steps)
    rows_loss = []
    for p in p_skip_grid:
        for seed in seeds:
            stack = problem.make_stack((seed,))
            cfg_m, cfg_v = moment_configs(None)
            params = stack.init_params()[0]
            m = OracleState.initialize(cfg_m, len(params))
            v = OracleState.initialize(cfg_v, len(params))
            skip_rng = np.random.default_rng([seed, _KEY_ROUND, int(p * 10**6)])
            tail = []
            for t in range(1, steps + 1):
                g = _grad(stack, params)
                live = t > warmup and p > 0.0
                if target == "first" and live:
                    m = skip_intervention_step(m, g, p, skip_rng)
                else:
                    m, _ = ema_step(m, g)
                if target == "second" and live:
                    v = skip_intervention_step(v, g * g, p, skip_rng)
                else:
                    v, _ = ema_step(v, g * g)
                params = apply_adam_update(params, m, v, hyper)
                if t > steps - window:
                    tail.append(_loss(stack, params))
            rows_loss.append(float(np.mean(tail)))
    return rows_loss
