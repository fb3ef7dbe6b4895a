"""Reference lockstep study loop for equivalence tests.

This is the study loop the fused step replaced: ``train_rows`` is the old
``simlab._train_rows``, which stepped each storage config's ``(rows, dim)``
batch through its own proposal, store and reset calls, drew each seed's
gradient apart from the others, walked the adaptive rows in a Python loop
and took the tail loss one row at a time.
``adam_lockstep``, ``ResetRows``, ``reset_rows``, ``RowStreams``, the
batch ``_proposal``/``_store`` and ``initialize``, the batch branch of the
old ``EmaState.initialize``, are the old engine's (``adam_lockstep``
without its unused ``t_global`` clock). A ``Batch``, the old batch
``EmaState``, holds a ``(rows, dim)`` stored state and ``(rows,)`` arrays
``k`` and ``excess``. The arithmetic and the order of every draw are kept
as they were; docstrings and type hints are dropped. Only the quantizer,
the rounding kernel, the theory terms, the skip draws and the problems
come from the package; each seed steps its own one-seed stack,
``problem.make_stack((seed,))``. Each moment reads its beta from its
state's config, and the adaptive rule its beta2 from the second moment's,
where the old engine read them from the hyperparameters and the policy.
The fused study loop must reproduce its losses and traces bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from emastall.engine import (
    EmaConfig,
    ResetKind,
    ResetPolicy,
    StallTrace,
    _QUIET,
    _adam_update,
)
from emastall.quantize import (
    QuantizedBlock,
    _block_absmax,
    _layout,
    dequantize,
    quantize,
    quantize_with_scales,
)
from emastall.simlab import _KEY_ROUND, _trailing_window
from emastall.theory import excess_staleness, remaining_error_E


@dataclasses.dataclass
class Batch:
    stored: QuantizedBlock | np.ndarray
    k: np.ndarray
    config: EmaConfig
    excess: np.ndarray


def initialize(config, dim, rows):
    shape, k, excess = (rows, dim), np.zeros(rows, np.int64), np.zeros(rows)
    zeros = np.zeros(shape)
    if config.format is None:
        return Batch(zeros, k, config, excess)
    if config.init_scale is not None:
        scales = np.full(shape[:-1] + (config.scheme.n_blocks(dim),),
                         float(config.init_scale))
        stored = quantize_with_scales(zeros, config.format, config.scheme, scales)
    else:
        stored = quantize(zeros, config.format, config.scheme)
    return Batch(stored, k, config, excess)


class RowStreams:
    def __init__(self, generators, rows_per_stream):
        self.generators = list(generators)
        self.rows_per_stream = rows_per_stream

    def random(self, shape):
        rows, dim = shape
        if rows != len(self.generators) * self.rows_per_stream:
            raise ValueError("draw shape does not match the batch")
        draws = np.empty((len(self.generators), dim))
        for g, row in zip(self.generators, draws):
            g.random(out=row)
        return np.repeat(draws, self.rows_per_stream, axis=0)


def _proposal(state, signal, hold=None, out=None):
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


def _store(state, proposal, rng):
    cfg = state.config
    if cfg.format is None:
        stalled = proposal == state.stored
        new = proposal
    else:
        if cfg.freeze_scale:
            scales = state.stored.scales
        else:
            scales = _block_absmax(proposal, _layout(cfg.scheme, proposal.shape[-1])[0])
        new = quantize_with_scales(
            proposal, cfg.format, cfg.scheme, scales, cfg.rounding, rng
        )
        stalled = state.stored.codes == new.codes
    frac = stalled.sum(axis=-1) / stalled.shape[-1]
    return Batch(new, state.k + 1, cfg, state.excess), frac


class ResetRows:
    def __init__(self, policies, moment=None):
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


def reset_rows(state, rules, fractions, beta2):
    k = state.k
    reset = k >= rules.period
    excess = state.excess
    if rules.adaptive:
        excess = excess.copy()
        for r, policy in rules.adaptive:
            if k[r] < 1:
                continue
            s = fractions[r] / policy.p_ss
            excess[r] += excess_staleness(s, policy.s0)
            reset[r] = excess[r] / k[r] >= remaining_error_E(int(k[r]), beta2)
    if not reset.any():
        return Batch(state.stored, k, state.config, excess), reset
    cfg = state.config
    fresh = initialize(cfg, state.stored.shape[-1], len(reset))
    keep = ~reset[:, None]
    if cfg.format is None:
        stored = np.where(keep, state.stored, fresh.stored)
    else:
        old = state.stored
        scales = old.scales if cfg.freeze_scale else np.where(keep, old.scales, 0.0)
        codes = np.where(keep, old.codes, fresh.stored.codes)
        stored = QuantizedBlock(codes, scales, old.format, old.scheme)
    k, excess = np.where(reset, 0, k), np.where(reset, 0.0, excess)
    return Batch(stored, k, cfg, excess), reset


def adam_lockstep(moments, grad, hyper, params, rngs, hold_m=None, hold_v=None):
    shape = (len(moments),) + params.shape[1:]
    if grad.shape != params.shape or params.shape != shape:
        raise ValueError("gradient/parameter shape mismatch")
    pm, pv = np.empty(shape), np.empty(shape)
    with np.errstate(**_QUIET):
        square = grad * grad
        for c, (m, v) in enumerate(moments):
            _proposal(m, grad[c], hold_m, pm[c])
            _proposal(v, square[c], hold_v, pv[c])
    stepped, frac_m, frac_v = [], [], []
    for c, ((m, v), rng) in enumerate(zip(moments, rngs)):
        m2, fm = _store(m, pm[c], rng)
        v2, fv = _store(v, pv[c], rng)
        stepped.append((m2, v2))
        frac_m.append(fm)
        frac_v.append(fv)
    k_m = np.array([m.k for m, _ in stepped])
    k_v = np.array([v.k for _, v in stepped])
    beta_m, beta_v = (np.array([s.config.beta for s in moment])[:, None, None]
                      for moment in zip(*stepped))
    new_params = _adam_update(params, pm, pv, k_m, k_v, beta_m, beta_v, hyper)
    return new_params, stepped, np.array(frac_m), np.array(frac_v)


def train_rows(problem, configs, policies, steps, seeds, hyper, skips=None,
               record_trace=False):
    cells = len(policies)
    stacks = [problem.make_stack((seed,)) for seed in seeds]
    start = np.repeat([stack.init_params()[0] for stack in stacks], cells, axis=0)
    rows, dim = start.shape
    params = np.repeat(start[None], len(configs), axis=0)
    moments = [
        (initialize(cfg_m, dim, rows), initialize(cfg_v, dim, rows))
        for cfg_m, cfg_v in configs
    ]
    round_rngs = [
        RowStreams([np.random.default_rng([seed, _KEY_ROUND]) for seed in seeds], cells)
        for _ in configs
    ]
    row_policies = list(policies) * len(seeds)
    rules_m = ResetRows(row_policies, "first")
    rules_v = ResetRows(row_policies, "second")
    blocks = [slice(i * cells, (i + 1) * cells) for i in range(len(seeds))]
    window = _trailing_window(steps)
    tail = np.empty((len(configs), rows, window))
    traces = [
        [(StallTrace("first_moment"), StallTrace("second_moment"))
         for _ in range(rows if record_trace else 0)]
        for _ in configs
    ]
    g = np.empty_like(params)
    for t in range(1, steps + 1):
        for stack, block in zip(stacks, blocks):
            g[:, block] = stack.grad(params[:, None, block])[:, 0]
        hold_m, hold_v = skips.draw(t) if skips is not None else (None, None)
        params, moments, frac_m, frac_v = adam_lockstep(
            moments, g, hyper, params, round_rngs, hold_m=hold_m, hold_v=hold_v
        )
        for c, (m, v) in enumerate(moments):
            m, reset_m = reset_rows(m, rules_m, frac_m[c], v.config.beta)
            v, reset_v = reset_rows(v, rules_v, frac_v[c], v.config.beta)
            moments[c] = (m, v)
            for r, (trace_m, trace_v) in enumerate(traces[c]):
                trace_m.append(float(frac_m[c, r]), int(m.k[r]), reset_m[r])
                trace_v.append(float(frac_v[c, r]), int(v.k[r]), reset_v[r])
        j = t - 1 - (steps - window)
        if j >= 0:
            for c in range(len(configs)):
                for r in range(rows):
                    tail[c, r, j] = stacks[r // cells].losses(
                        params[c, r][None, None, None])[0, 0, 0]
    losses = [[float(np.mean(row)) for row in cfg_tail] for cfg_tail in tail]
    out = {"final_loss": np.reshape(losses, (len(configs), len(seeds), cells))}
    if record_trace:
        out["traces"] = traces
    return out
