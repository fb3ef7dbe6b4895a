"""Quantized EMA recursion with stall tracking and reset policies.

One update dequantizes the stored state, forms the high-precision proposal
``x + (1-beta)*(signal - x)``, and requantizes for storage. The increment
form makes the no-op case exact: a signal equal to the stored state leaves
every code untouched. A config with ``format=None`` keeps the state at
working precision and is the full-precision control used by experiments.

An ``EmaState`` is one ``(dim,)`` tensor. A ``StateStack`` holds states
under several storage configs, several rows each, as one
``(configs, rows, dim)`` stack with a cycle counter and excess per row.
The Adam studies stack both moments in one: the first-moment configs,
then the second-moment ones. ``adam_lockstep`` and ``reset_rows`` step
such a stack in place, each operation once per step over both moments:
one proposal expression over the stacked signal ``[g; g*g]``, one
quantizer pass per storage group (a run of adjacent configs that share
format, scheme and scale anchor), one cycle-counter increment, one stall
count, one Adam update and one array form of every row's reset rule.
Every operation is elementwise or a reduction along the last axis, so each
row comes out bit-identical to the same state stepped alone in a one-row
stack. ``ema_step`` is the one single-state form: one EMA write of one
state, with its stalled fraction.

Every stored state is written by one class, ``_Store``, always of shape
``(members, rows, dim)``: a storage group of a stack is one store, which
writes its stored values and stall flags into views of the stack's own
arrays, so the stack reads them without a copy; ``ema_step`` and the
curve drivers write a single state through a ``(1, 1, dim)`` store, which
the curve drivers keep per config across steps. Every write takes one
path, the steps of ``quantize_with_scales`` and ``dequantize`` on the
store's own buffers: scale (``_scaled``), encode (``RoundingGrid.encode``),
compare the codes with the stored ones for the stall flags, and decode
(``_decode``). Every rounding stream is a ``RowStreams``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .formats import FpFormat, RoundingMode, _check_int, _is_integer, _normalized_grid
from .quantize import (
    QuantizedBlock,
    ScalingScheme,
    _block_absmax,
    _broadcast_scales,
    _decode,
    _layout,
    _scaled,
    dequantize,
    quantize,
    quantize_with_scales,
)
from .theory import excess_staleness, remaining_error_table


def _require_real(name: str, value) -> None:
    # a string would fail later as a TypeError, and a bool pass as 0 or 1
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_beta(name: str, value) -> None:
    _require_real(name, value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1)")


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
        _check_beta("beta", self.beta)
        # a string here would round stochastically (the store tests the
        # mode by identity) or fail at the first write
        if self.format is not None and not isinstance(self.format, FpFormat):
            raise ValueError(f"format must be an FpFormat or None, got {self.format!r}")
        if not isinstance(self.scheme, ScalingScheme):
            raise ValueError(f"scheme must be a ScalingScheme, got {self.scheme!r}")
        if not isinstance(self.rounding, RoundingMode):
            raise ValueError(f"rounding must be a RoundingMode, got {self.rounding!r}")
        if self.freeze_scale and self.format is not None and self.init_scale is None:
            raise ValueError("freeze_scale needs an init_scale anchor")
        if self.init_scale is not None:
            if not self.freeze_scale:
                raise ValueError("init_scale needs freeze_scale")
            if not (math.isfinite(self.init_scale) and self.init_scale > 0):
                raise ValueError("init_scale must be positive and finite")


@dataclasses.dataclass
class EmaState:
    """Stored (quantized) state of one ``(dim,)`` tensor plus its position
    in the reset cycle.

    excess is the staleness in excess of the tolerance accumulated over the
    current cycle; only the adaptive reset policy reads and advances it.
    """

    stored: QuantizedBlock | np.ndarray
    k: int
    config: EmaConfig
    excess: float = 0.0

    def __post_init__(self) -> None:
        # a truncated k would shift bias correction and reset timing, and a
        # NaN excess would keep the adaptive rule from ever firing
        _check_int("k", self.k, 0)
        if not (isinstance(self.excess, numbers.Real) and math.isfinite(self.excess)
                and self.excess >= 0):
            raise ValueError(f"excess must be finite and >= 0, got {self.excess!r}")

    @classmethod
    def initialize(cls, config: EmaConfig, dim: int) -> "EmaState":
        """Zero state of one tensor."""
        _check_int("dim", dim, 1)
        zeros = np.zeros(dim)
        if config.format is None:
            return cls(zeros, 0, config)
        if config.init_scale is not None:
            scales = np.full(config.scheme.n_blocks(dim), float(config.init_scale))
            stored = quantize_with_scales(zeros, config.format, config.scheme, scales)
        else:
            stored = quantize(zeros, config.format, config.scheme)
        return cls(stored, 0, config)

    def values(self) -> np.ndarray:
        if self.config.format is None:
            return self.stored.copy()
        return dequantize(self.stored)

    def __len__(self) -> int:
        return len(self.stored)


class RowStreams:
    """Rounding stream of a batch whose rows share per-seed generators.

    Row r draws from ``generators[r // rows_per_stream]``, rows counted over
    every axis but the last. ``random`` draws one ``(dim,)`` vector from
    each generator in turn and hands it to all of that generator's rows, so
    each generator advances exactly as it does for one of its rows stepped
    alone. ``RowStreams([rng], 1)`` draws what ``rng.random((dim,))`` draws.
    """

    def __init__(self, generators: list, rows_per_stream: int):
        self.generators = list(generators)
        self.rows_per_stream = rows_per_stream

    def random(self, shape: tuple) -> np.ndarray:
        """The draws of a batch of ``shape``: the lone generator's own draw
        when there is one row, else one draw per generator as a
        ``(generators, 1, dim)`` array, which the generator's
        ``rows_per_stream`` consecutive rows of the batch share."""
        dim, gens = shape[-1], self.generators
        if math.prod(shape[:-1]) != len(gens) * self.rows_per_stream:
            raise ValueError("draw shape does not match the batch")
        if len(gens) * self.rows_per_stream == 1:
            return gens[0].random(shape)
        draws = np.empty((len(gens), 1, dim))
        for g, row in zip(gens, draws):
            g.random(out=row[0])
        return draws


# the floating-point errors a proposal may raise, left to its finiteness check
_QUIET = {"over": "ignore", "invalid": "ignore"}


def _proposal(
    x: np.ndarray, signal: np.ndarray, decay: float | np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    # x + decay * (signal - x), decay = 1 - beta: a float, or an array of
    # x's shape. The one validation of a write: a NaN, infinite or
    # overflowing signal leaves a non-finite proposal, so storage trusts
    # what passes. Callers run it under _QUIET, so an overflow surfaces as
    # this ValueError rather than as a warning
    proposal = np.subtract(signal, x, out=out)
    proposal *= decay
    proposal += x
    if not np.isfinite(proposal).all():
        raise ValueError("non-finite or overflowing signal")
    return proposal


def _decoded(states: list) -> np.ndarray:
    # the (members, rows, dim) decoded values of states
    return np.array([[s.values() for s in rows] for rows in states])


class _Store:
    """Stored states of one storage layout, written in place: the one store
    path of the engine.

    Built from copies of ``states``, one list of rows per member, whose
    configs share format, scheme, freeze_scale and init_scale, members
    rounding to nearest first, it holds ``values``, the states as stored
    (their exact decoded values), the codes and scales behind them (None at
    full precision), all ``(members, rows, dim)``. The rounding grid and
    block layout are looked up once, a frozen scale is broadcast once, and
    the work buffers are reused. The stochastic members draw from their
    ``streams`` entries, RowStreams merged in member order. Given values,
    a ``(members, rows, dim)`` buffer that already holds the states'
    decoded values, and flags, one of that shape for the stall flags (views
    of a stack's own arrays), the store keeps the states and writes the
    flags in them instead of in buffers of its own.
    """

    def __init__(self, states: list, streams: list,
                 values: np.ndarray | None = None, flags: np.ndarray | None = None):
        for st in streams:
            if st is not None and not isinstance(st, RowStreams):
                raise ValueError(f"a rounding stream must be a RowStreams or None, "
                                 f"got {type(st).__name__}")
        cfg = self.config = states[0][0].config
        nearest = [rows[0].config.rounding is RoundingMode.NEAREST_EVEN
                   for rows in states]
        self.values = _decoded(states) if values is None else values
        self.flags = np.empty(self.values.shape, dtype=bool) if flags is None else flags
        self.n_nearest = sum(nearest)
        self.codes = self.scales = None
        if cfg.format is None:
            return
        drawn = [st for st, n in zip(streams, nearest) if not n]
        self.stream = None
        if drawn and None not in drawn:
            if len({st.rows_per_stream for st in drawn}) > 1:
                raise ValueError("merged RowStreams must share rows_per_stream")
            # one stream whose generators are every member's, in member order
            self.stream = RowStreams([g for st in drawn for g in st.generators],
                                     drawn[0].rows_per_stream)
        self.grid = _normalized_grid(cfg.format)
        self.codes = np.array([[s.stored.codes for s in rows] for rows in states])
        self.starts, self.block_of = _layout(cfg.scheme, self.values.shape[-1])
        self.mag = np.empty_like(self.values)
        self.w = np.empty_like(self.values)
        # several blocks' scales are gathered per element into this buffer
        self.rep = None if self.block_of is None else np.empty_like(self.values)
        self._set_scales(np.array([[s.stored.scales for s in rows] for rows in states]))

    def _set_scales(self, scales: np.ndarray) -> None:
        self.scales = scales
        self.rep = _broadcast_scales(scales, self.block_of, self.rep)
        self.positive = scales.min() > 0

    def store(self, proposal: np.ndarray) -> np.ndarray:
        """Write a validated ``(members, rows, dim)`` proposal; returns the
        stall flags, a buffer the next write reuses: stored codes unchanged
        by the write (the stored-bit-pattern convention), or values
        unchanged at full precision. Callers write under ``_QUIET``."""
        x, flags = self.values, self.flags
        if self.codes is None:
            np.equal(proposal, x, out=flags)
            np.copyto(x, proposal)
            return flags
        if not self.config.freeze_scale:
            self._set_scales(_block_absmax(proposal, self.starts, self.mag))
        w = _scaled(proposal, self.rep, self.positive, self.w)
        codes = self.grid.encode(w, self.n_nearest, self.stream, self.mag)
        np.equal(codes, self.codes, out=flags)
        self.codes = codes
        _decode(self.grid, codes, self.rep, x)
        return flags

    @cached_property
    def _fresh(self) -> EmaState:
        return EmaState.initialize(self.config, self.values.shape[-1])

    def clear(self, rows: np.ndarray) -> None:
        """Reset the flagged rows, a ``(members, rows)`` mask, to the zero
        state."""
        fresh = self._fresh
        self.values[rows] = fresh.values()
        if self.codes is not None:
            self.codes[rows] = fresh.stored.codes
            # frozen anchors survive resets; a zero row encodes the same
            # under any scale
            if not self.config.freeze_scale:
                self.scales[rows] = 0.0

    def stored(self, member: int, row: int) -> QuantizedBlock | np.ndarray:
        """A copy of one row of one member's stored state."""
        if self.codes is None:
            return self.values[member, row].copy()
        cfg = self.config
        return QuantizedBlock(self.codes[member, row].copy(),
                              self.scales[member, row].copy(), cfg.format, cfg.scheme)


def ema_step(
    state: EmaState,
    signal: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[EmaState, float]:
    """Advance the EMA one step and report the stalled fraction.

    The fraction compares stored codes before and after the write (the
    stored-bit-pattern convention); per-step scale recomputation does not
    count as movement on its own. The input state is left untouched.
    """
    if len(state.stored.shape) != 1:
        raise ValueError("a state is one (dim,) tensor; rows step through a StateStack")
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != state.stored.shape:
        raise ValueError("signal shape does not match state")
    store = _Store([[state]], [None if rng is None else RowStreams([rng], 1)])
    with np.errstate(**_QUIET):
        flags = store.store(_proposal(store.values, signal, 1.0 - state.config.beta))
    new = EmaState(store.stored(0, 0), state.k + 1, state.config, state.excess)
    # an exact count over dim, the same bits as the mean of the flags
    return new, np.count_nonzero(flags) / len(signal)


class StateStack:
    """States under several storage configs, stacked.

    Built from one list of single states per config: ``states[c][r]`` is
    row r of config c, which ``values[c, r]`` holds as stored (its exact
    decoded value), with cycle counter ``k[c, r]``, excess ``excess[c, r]``,
    beta ``beta[c, 0, 0]`` (for the bias correction) and ``1 - beta`` in
    ``decay[c, r]``, the proposal's contiguous factor. Config c's stochastic
    rounding draws from ``streams[c]``, a ``RowStreams`` over its rows or
    None, one entry per config. A run of adjacent configs that share
    format, scheme, freeze_scale and init_scale, nearest-rounding configs
    first, forms a storage group, whose rows one ``_Store`` writes in one
    quantizer pass; only the rank kernel runs once per rounding mode in it.
    ``groups`` holds (slice of the stack, store) per group, in stack order;
    each store holds its states and writes its stall flags in views of the
    stack's ``values`` and ``flags``, and its stochastic members draw from
    their streams in stack order. The Adam studies stack both moments, the
    first-moment configs and then the second-moment ones, and
    ``adam_lockstep`` and ``reset_rows`` step such a stack in place.
    """

    def __init__(self, states: list, streams: list):
        if len(streams) != len(states):
            raise ValueError(f"{len(streams)} streams for {len(states)} configs")
        self.configs = [rows[0].config for rows in states]
        if any(s.config != cfg for cfg, rows in zip(self.configs, states) for s in rows):
            raise ValueError("the rows of a config must share its EmaConfig")
        self.beta = np.array([cfg.beta for cfg in self.configs]).reshape(-1, 1, 1)
        self.values = _decoded(states)
        self.flags = np.empty(self.values.shape, dtype=bool)
        self.decay = np.broadcast_to(1.0 - self.beta, self.values.shape).copy()
        self.k = np.array([[s.k for s in rows] for rows in states], np.int64)
        self.excess = np.array([[s.excess for s in rows] for rows in states], float)
        keys = [None if cfg.format is None else
                (cfg.format, cfg.scheme, cfg.freeze_scale, cfg.init_scale)
                for cfg in self.configs]
        nearest = [cfg.rounding is RoundingMode.NEAREST_EVEN for cfg in self.configs]
        self.groups = []
        start = 0
        for c in range(1, len(states) + 1):
            # a group ends where the key changes or a nearest config follows
            # a stochastic one
            if c < len(states) and keys[c] == keys[c - 1] and nearest[c] <= nearest[c - 1]:
                continue
            sel = slice(start, c)
            self.groups.append((sel, _Store(states[sel], streams[sel],
                                            self.values[sel], self.flags[sel])))
            start = c

    def store(self, proposal: np.ndarray) -> np.ndarray:
        """Write a validated ``(configs, rows, dim)`` proposal; returns the
        stalled fraction of each row."""
        for sel, store in self.groups:
            store.store(proposal[sel])
        self.k += 1
        # an exact count over dim, the same bits as the mean of the flags
        counts = np.add.reduce(self.flags.view(np.uint8), axis=-1, dtype=np.int32)
        return counts / self.flags.shape[-1]

    def clear(self, flags: np.ndarray) -> None:
        """Reset the ``(configs, rows)`` flagged rows to the zero state."""
        self.k[flags] = 0
        self.excess[flags] = 0.0
        for sel, store in self.groups:
            store.clear(flags[sel])

    def state(self, c: int, r: int) -> EmaState:
        """Row r of config c as a single ``EmaState`` (copies)."""
        sel, store = next(g for g in self.groups if g[0].start <= c < g[0].stop)
        return EmaState(store.stored(c - sel.start, r), int(self.k[c, r]),
                        self.configs[c], float(self.excess[c, r]))


class ResetKind(Enum):
    NONE = "none"
    PERIODIC = "periodic"
    ADAPTIVE = "adaptive"


@dataclasses.dataclass(frozen=True)
class ResetPolicy:
    """When to clear an EMA state.

    PERIODIC resets every K steps. ADAPTIVE accumulates the observed excess
    staleness on the state and resets once its cycle average overtakes the
    remaining statistical error E(k) of the second moment's beta.
    """

    kind: ResetKind
    K: int | None = None
    s0: float = 0.6
    p_ss: float = 1.0
    applies_to: str = "both"

    def __post_init__(self) -> None:
        # a string kind would match no rule and never reset
        if not isinstance(self.kind, ResetKind):
            raise ValueError(f"kind must be a ResetKind, got {self.kind!r}")
        if self.applies_to not in ("first", "second", "both"):
            raise ValueError("applies_to must be first, second or both")
        periodic = self.kind is ResetKind.PERIODIC
        if periodic and not (_is_integer(self.K) and self.K >= 1):
            raise ValueError(f"PERIODIC needs an integer K >= 1, got {self.K!r}")
        if self.kind is ResetKind.ADAPTIVE:
            if not 0.0 <= self.s0 < 1.0:
                raise ValueError("ADAPTIVE needs s0 in [0, 1)")
            if not (math.isfinite(self.p_ss) and self.p_ss > 0.0):
                raise ValueError(
                    f"ADAPTIVE needs a positive, finite p_ss, got {self.p_ss!r}")

    @classmethod
    def none(cls) -> "ResetPolicy":
        return cls(ResetKind.NONE)

    @classmethod
    def periodic(cls, K: int, applies_to: str = "both") -> "ResetPolicy":
        return cls(ResetKind.PERIODIC, K=K, applies_to=applies_to)

    @classmethod
    def adaptive(
        cls, *, s0: float = 0.6, p_ss: float = 1.0, applies_to: str = "both"
    ) -> "ResetPolicy":
        return cls(ResetKind.ADAPTIVE, s0=s0, p_ss=p_ss, applies_to=applies_to)


class ResetRows:
    """The reset rules of a stack's rows as ``(configs, rows)`` arrays.

    Row r of config c follows ``policies[r]``, except that a policy whose
    applies_to excludes ``moments[c]``, the moment config c stores
    ("first" or "second"; None excludes nothing), never resets the row.
    Config c's adaptive rule reads E(k), for cycle counts up to k_max, at
    ``beta2[c]``, the second-moment beta, from one table per distinct
    beta2. The rules fit a stack of ``shape``, (len(beta2), len(policies)).
    """

    def __init__(self, policies: list, moments: list, k_max: int, beta2: list):
        if len(moments) != len(beta2):
            raise ValueError(f"{len(moments)} moments for {len(beta2)} configs")
        self.shape = (len(beta2), len(policies))
        rules = [
            [p if moment is None or p.applies_to in (moment, "both")
             else ResetPolicy.none() for p in policies]
            for moment in moments
        ]
        self.period = np.array(
            [[p.K if p.kind is ResetKind.PERIODIC else np.inf for p in row] for row in rules]
        )
        self.adaptive = np.array([[p.kind is ResetKind.ADAPTIVE for p in row]
                                  for row in rules])
        # neutral values on the other rows, which the rule masks out
        self.s0 = np.where(self.adaptive, [[p.s0 for p in row] for row in rules], 0.0)
        self.p_ss = np.where(self.adaptive, [[p.p_ss for p in row] for row in rules], 1.0)
        self.table = None
        if self.adaptive.any():
            betas = list(dict.fromkeys(beta2))
            # (configs, 1): each config's table, broadcast over its rows
            self.which = np.array([betas.index(b) for b in beta2])[:, None]
            self.table = np.stack([remaining_error_table(b, k_max) for b in betas])


def reset_rows(
    stack: StateStack, rules: ResetRows, fractions: np.ndarray
) -> np.ndarray:
    """Apply each row's reset rule after a stack step, in place; returns the
    ``(configs, rows)`` reset flags. fractions are the rows' stalled
    fractions of the step just taken (only ADAPTIVE reads them)."""
    k = stack.k
    if rules.shape != k.shape:
        raise ValueError(f"reset rules of shape {rules.shape} for a stack of {k.shape}")
    reset = k >= rules.period
    if rules.table is not None:
        # cycle-average the observed excess staleness online; k = 0 rows
        # have no cycle yet, and E's table reads inf there
        live = rules.adaptive & (k >= 1)
        excess = stack.excess + excess_staleness(fractions / rules.p_ss, rules.s0)
        stack.excess = np.where(live, excess, stack.excess)
        average = stack.excess / np.maximum(k, 1)
        reset |= live & (average >= rules.table[rules.which, k])
    if reset.any():
        stack.clear(reset)
    return reset


@dataclasses.dataclass(frozen=True)
class AdamHyper:
    lr: float
    eps: float = 1e-6
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lr", "eps", "weight_decay"):
            _require_real(name, getattr(self, name))
        for name in ("lr", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be non-negative and finite")


def _adam_update(
    params: np.ndarray,
    m_vals: np.ndarray,
    v_vals: np.ndarray,
    k_m: np.ndarray,
    k_v: np.ndarray,
    beta1: np.ndarray,
    beta2: np.ndarray,
    hyper: AdamHyper,
) -> np.ndarray:
    # k_m, k_v: (configs, rows) cycle counts; beta1, beta2: (configs, 1, 1)
    if k_m.min() < 1 or k_v.min() < 1:
        raise ValueError("bias correction needs at least one accumulated step")
    # one correction per row, broadcast along the row; the temporaries are
    # updated in place, with the float operations of
    # params - lr * m_hat / (sqrt(v_hat) + eps) - lr * weight_decay * params
    step = m_vals / -np.expm1(k_m[..., None] * np.log(beta1))
    denom = v_vals / -np.expm1(k_v[..., None] * np.log(beta2))
    np.sqrt(denom, out=denom)
    denom += hyper.eps
    step /= denom
    step *= hyper.lr
    new = params - step
    np.multiply(params, hyper.lr * hyper.weight_decay, out=step)
    new -= step
    return new


def adam_lockstep(
    stack: StateStack,
    grad: np.ndarray,
    hyper: AdamHyper,
    params: np.ndarray,
    hold: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One Adam step of both moments of several storage configs.

    stack is a ``StateStack`` of shape ``(2 * configs, rows, dim)``, the
    first moments of the configs and then their second moments, stepped in
    place; params have shape ``(configs, rows, dim)``. grad is a buffer of
    the stack's shape whose first half holds the gradient: the step squares
    it into the second half and then overwrites the whole buffer with the
    proposals. One proposal expression covers both moments of every config
    at its own beta, each storage group stores in one pass, and one update
    moves the whole parameter stack. The update reads the high-precision
    proposals, so quantization error enters later steps through storage
    only; bias correction uses each row's own cycle count, so the
    correction clock resets with the state; epsilon is added outside the
    square root, and weight decay is decoupled. Rows flagged in hold[0]
    (hold[1]), a ``(2, rows)`` mask, skip the first (second) moment's update
    in every config: the stored value stays, the cycle counter still
    advances, and the parameter update reads the stored value. Returns
    (params, stalled), the stalled fractions as a ``(2 * configs, rows)``
    array.
    """
    n = len(params)
    if not (grad.shape == stack.values.shape == (2 * n,) + params.shape[1:]):
        raise ValueError("gradient/parameter shape mismatch")
    # _proposal rejects an infinite square
    with np.errstate(**_QUIET):
        np.multiply(grad[:n], grad[:n], out=grad[n:])
        proposal = _proposal(stack.values, grad, stack.decay, grad)
    # a held row proposes its stored value, which storage reproduces exactly
    if hold is not None:
        moments = (2, n) + params.shape[1:]
        np.copyto(proposal.reshape(moments), stack.values.reshape(moments),
                  where=hold[:, None, :, None])
    stalled = stack.store(proposal)
    k, beta = stack.k, stack.beta
    return _adam_update(params, proposal[:n], proposal[n:], k[:n], k[n:],
                        beta[:n], beta[n:], hyper), stalled


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
