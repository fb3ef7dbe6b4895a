"""Quantized EMA engine tests: fixed points, stability, resets, Adam."""

import dataclasses
import math

import numpy as np
import pytest

import engine_oracle as oracle
from gate_sweep import run_gate_sweep

from emastall.engine import (
    AdamHyper,
    EmaConfig,
    EmaState,
    ResetKind,
    ResetPolicy,
    StallTrace,
    ResetRows,
    RowStreams,
    StateStack,
    _QUIET,
    _Store,
    _adam_update,
    _proposal,
    adam_lockstep,
    ema_step,
    reset_rows,
)
from emastall.formats import (
    BF16,
    FP4_E2M1,
    FP4_E2M2U,
    FP8_E4M3,
    PRESETS,
    RoundingMode,
    _normalized_grid,
    round_nearest,
)
from emastall.quantize import (
    ScalingMode,
    ScalingScheme,
    dequantize,
    quantize,
    quantize_with_scales,
)
from emastall import simlab
from emastall.simlab import _KEY_ROUND, _Skips, moment_configs
from emastall.theory import p_stall_nr_ss, remaining_error_E

PER_TENSOR = ScalingScheme(ScalingMode.PER_TENSOR)
BLOCK128 = ScalingScheme(ScalingMode.BLOCKWISE, 128)
BLOCK16 = ScalingScheme(ScalingMode.BLOCKWISE, 16)
NR, SR = RoundingMode.NEAREST_EVEN, RoundingMode.STOCHASTIC

# one config per store path of the engine: full precision, a frozen single
# anchor, a recomputed single scale, recomputed block scales and frozen
# block anchors (an unsigned grid without zero)
STEP_CONFIGS = {
    "fp32": lambda r: EmaConfig(0.9, None),
    "bf16-frozen": lambda r: EmaConfig(0.9, BF16, PER_TENSOR, r, True, BF16.x_max),
    "fp8-tensor": lambda r: EmaConfig(0.9, FP8_E4M3, PER_TENSOR, r),
    "fp4-block": lambda r: EmaConfig(0.9, FP4_E2M1, BLOCK16, r),
    "fp4u-block-frozen": lambda r: EmaConfig(0.9, FP4_E2M2U, BLOCK16, r, True, 2.0),
}


def warm_state(config, dim, seed=0, steps=10):
    rng = np.random.default_rng(seed)
    state = EmaState.initialize(config, dim)
    for _ in range(steps):
        state, _ = ema_step(state, rng.standard_normal(dim) ** 2, rng)
    return state


def one_row(*states):
    """states as a one-row StateStack, one config each."""
    return StateStack([[state] for state in states], [None] * len(states))


def moment_stack(dim, beta1=0.9, beta2=0.999):
    """A zero full-precision one-row stack of the two moments: m at beta1,
    then v at beta2."""
    return one_row(*(EmaState.initialize(EmaConfig(beta, None), dim)
                     for beta in (beta1, beta2)))


def signal_of(grad):
    """The (2, 1, dim) signal buffer adam_lockstep reads on a one-row stack
    of the two moments: grad in its first half."""
    signal = np.empty((2, 1, len(grad)))
    signal[0, 0] = grad
    return signal


def adam_one_row(m_state, v_state, grad, hyper, params):
    """adam_lockstep on a one-row stack of the two moments: (params, m, v,
    (stalled_m, stalled_v))."""
    stack = one_row(m_state, v_state)
    new, stalled = adam_lockstep(stack, signal_of(grad), hyper, params[None, None])
    return new[0, 0], stack.state(0, 0), stack.state(1, 0), tuple(stalled[:, 0])


def reset_one_row(state, policy, fraction=0.0):
    """reset_rows on a one-row stack of state, after a step whose stalled
    fraction was fraction: (state, did_reset)."""
    stack = one_row(state)
    rules = ResetRows([policy], [None], max(1, state.k), [state.config.beta])
    reset = reset_rows(stack, rules, np.array([[fraction]]))
    return stack.state(0, 0), bool(reset[0, 0])


@pytest.mark.parametrize("fmt,init_scale,freeze", [
    (BF16, math.nan, True),
    (BF16, math.inf, True),
    (BF16, 3.0, False),
    (None, 3.0, False),
], ids=["nan", "inf", "unfrozen", "unfrozen-fp32"])
def test_config_rejects_an_unusable_init_scale(fmt, init_scale, freeze):
    # a non-finite anchor used to surface only at the first write, and one
    # without freeze_scale was silently ignored
    with pytest.raises(ValueError, match="init_scale"):
        EmaConfig(beta=0.9, format=fmt, freeze_scale=freeze, init_scale=init_scale)


@pytest.mark.parametrize("field,value", [
    ("format", "bf16"),
    ("scheme", "per_tensor"),
    ("rounding", "nr"),
    ("rounding", "stochastic"),
])
def test_config_rejects_fields_of_the_wrong_type(field, value):
    # rounding="nr" once rounded stochastically, and format="bf16" failed
    # at the first write with an AttributeError
    kwargs = {"beta": 0.9, "format": BF16, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an? [A-Za-z ]+, got '{value}'$"):
        EmaConfig(**kwargs)


@pytest.mark.parametrize("beta,message", [
    ("0.9", "beta must be a real number, got '0.9'"),
    (True, "beta must be a real number, got True"),
    (None, "beta must be a real number, got None"),
    (0.0, "beta must be in (0, 1)"),
    (1.0, "beta must be in (0, 1)"),
    (math.nan, "beta must be in (0, 1)"),
])
def test_config_rejects_an_unusable_beta(beta, message):
    # beta="0.9" once raised a TypeError from the comparison
    with pytest.raises(ValueError) as exc:
        EmaConfig(beta=beta, format=None)
    assert str(exc.value) == message


def test_config_takes_numpy_betas():
    assert EmaConfig(beta=np.float64(0.9), format=None).beta == 0.9


class TestEmaStep:
    @pytest.mark.parametrize(
        "fmt,scheme",
        [(FP4_E2M2U, PER_TENSOR), (FP4_E2M2U, BLOCK128), (FP8_E4M3, PER_TENSOR),
         (BF16, PER_TENSOR)],
        ids=["fp4-tensor", "fp4-block", "fp8", "bf16"],
    )
    def test_fixed_point_is_fully_stalled(self, fmt, scheme):
        config = EmaConfig(beta=0.999, format=fmt, scheme=scheme)
        state = warm_state(config, 300)
        signal = state.values()
        new, frac = ema_step(state, signal)
        assert frac == 1.0
        assert np.array_equal(new.stored.codes, state.stored.codes)
        assert np.array_equal(new.stored.scales, state.stored.scales)

    def test_write_read_stability(self):
        for fmt, scheme in ((FP4_E2M2U, BLOCK128), (FP8_E4M3, PER_TENSOR)):
            config = EmaConfig(beta=0.999, format=fmt, scheme=scheme)
            state = warm_state(config, 500, seed=4, steps=25)
            q = state.stored
            q2 = quantize(dequantize(q), fmt, scheme)
            assert np.array_equal(q.codes, q2.codes)
            assert np.array_equal(q.scales, q2.scales)

    def test_cycle_counter_increments(self):
        config = EmaConfig(beta=0.9, format=None)
        state = EmaState.initialize(config, 8)
        state, _ = ema_step(state, np.ones(8))
        state, _ = ema_step(state, np.ones(8))
        assert state.k == 2

    def test_transient_floor_then_rise_bf16(self):
        # zero-initialized state with a large signal stalls rarely at first,
        # then the fraction climbs as the state approaches the signal scale
        config = EmaConfig(
            beta=0.999, format=BF16, scheme=PER_TENSOR,
            freeze_scale=True, init_scale=BF16.x_max,
        )
        rng = np.random.default_rng(21)
        state = EmaState.initialize(config, 3000)
        sig_scale = np.exp2(rng.random(3000))
        fractions = []
        for _ in range(1200):
            g2 = sig_scale * rng.standard_normal(3000) ** 2
            state, frac = ema_step(state, g2)
            fractions.append(frac)
        assert fractions[0] < 0.05
        assert np.mean(fractions[-100:]) > 0.6

    def test_scalar_fp4_frozen_scale_long_run(self):
        config = EmaConfig(
            beta=0.999, format=FP4_E2M2U, scheme=PER_TENSOR,
            freeze_scale=True, init_scale=3.0,
        )
        rng = np.random.default_rng(33)
        state = EmaState.initialize(config, 1)
        fracs = []
        for t in range(3000):
            state, frac = ema_step(state, rng.standard_normal(1) ** 2)
            if t >= 1000:
                fracs.append(frac)
        assert abs(np.mean(fracs) - p_stall_nr_ss(86.6)) < 0.05

    def test_shape_and_finite_validation(self):
        config = EmaConfig(beta=0.999, format=FP4_E2M2U, scheme=PER_TENSOR)
        state = EmaState.initialize(config, 4)
        with pytest.raises(ValueError):
            ema_step(state, np.ones(5))
        with pytest.raises(ValueError):
            ema_step(state, np.array([1.0, np.nan, 1.0, 1.0]))

    @pytest.mark.parametrize("fmt", [None, FP4_E2M2U], ids=["fp32", "fp4_e2m2u"])
    def test_overflowing_signal_rejected(self, fmt):
        # finite signals whose increment overflows: full-precision storage
        # used to keep the infinite proposal
        state = EmaState.initialize(EmaConfig(beta=0.5, format=fmt), 2)
        state, _ = ema_step(state, np.full(2, 1.5e308))
        with pytest.raises(ValueError):
            ema_step(state, np.full(2, -1.5e308))
        hyper = AdamHyper(lr=0.01)
        m = EmaState.initialize(EmaConfig(beta=0.9, format=fmt), 2)
        v = EmaState.initialize(EmaConfig(beta=0.999, format=fmt), 2)
        with pytest.raises(ValueError):
            adam_one_row(m, v, np.full(2, 1e200), hyper, np.zeros(2))

    def test_power_of_two_signal_equivariance(self):
        config = EmaConfig(beta=0.999, format=FP4_E2M2U, scheme=PER_TENSOR)
        rng = np.random.default_rng(55)
        signals = [rng.standard_normal(200) ** 2 for _ in range(60)]
        for c in (0.25, 1024.0):
            s1 = EmaState.initialize(config, 200)
            s2 = EmaState.initialize(config, 200)
            f1s, f2s = [], []
            for sig in signals:
                s1, f1 = ema_step(s1, sig)
                s2, f2 = ema_step(s2, c * sig)
                f1s.append(f1)
                f2s.append(f2)
                assert np.array_equal(s1.stored.codes, s2.stored.codes)
            assert f1s == f2s

    def test_generic_positive_rescaling_preserves_codes(self):
        config = EmaConfig(beta=0.999, format=FP4_E2M2U, scheme=PER_TENSOR)
        rng = np.random.default_rng(56)
        signals = [rng.standard_normal(200) ** 2 for _ in range(40)]
        s1 = EmaState.initialize(config, 200)
        s2 = EmaState.initialize(config, 200)
        for sig in signals:
            s1, _ = ema_step(s1, sig)
            s2, _ = ema_step(s2, 3.0 * sig)
            assert np.array_equal(s1.stored.codes, s2.stored.codes)

    def test_deterministic_replay_sr(self):
        config = EmaConfig(
            beta=0.999, format=FP4_E2M2U, scheme=BLOCK128,
            rounding=RoundingMode.STOCHASTIC,
        )

        def trace(seed):
            rng = np.random.default_rng(seed)
            sig_rng = np.random.default_rng(1000 + seed)
            state = EmaState.initialize(config, 300)
            out = []
            for _ in range(50):
                state, frac = ema_step(state, sig_rng.standard_normal(300) ** 2, rng)
            return state.stored.codes.copy(), frac

        c1, f1 = trace(7)
        c2, f2 = trace(7)
        assert np.array_equal(c1, c2)
        assert f1 == f2


def _arrays(state):
    stored = state.stored
    return [stored] if state.config.format is None else [stored.codes, stored.scales]


class TestStore:
    @pytest.mark.parametrize("rounding", [NR, SR], ids=["nr", "sr"])
    @pytest.mark.parametrize("name", list(STEP_CONFIGS))
    def test_ema_step_leaves_the_input_state_untouched(self, name, rounding):
        config = STEP_CONFIGS[name](rounding)
        rng = np.random.default_rng(3)
        state = EmaState.initialize(config, 40)
        for _ in range(3):
            state, _ = ema_step(state, rng.standard_normal(40), rng)
        before = [a.copy() for a in _arrays(state)]
        new, _ = ema_step(state, 5.0 * rng.standard_normal(40), rng)
        assert (state.k, state.excess) == (3, 0.0)
        for old, kept, out in zip(_arrays(state), before, _arrays(new)):
            assert np.array_equal(old, kept)
            assert not np.shares_memory(old, out)

    @pytest.mark.parametrize("rounding", [NR, SR], ids=["nr", "sr"])
    @pytest.mark.parametrize("fmt", [BF16, FP8_E4M3, FP4_E2M1], ids=lambda f: f.name)
    def test_underflowing_negative_quotient_takes_the_zero_code(self, fmt, rounding):
        # in a block whose absmax is 1e300, -1e-300 / absmax is -0.0; the
        # store must write the zero point's one code there, as quantize
        # does, and so for +1e-300, -0.0 and the all-zero second block
        config = EmaConfig(0.9, fmt, BLOCK16, rounding)
        proposal = np.zeros((1, 1, 32))
        proposal[0, 0, :6] = [1e300, -1e-300, 1e-300, -0.0, -5.0, -1e300]
        proposal[0, 0, 20] = -0.0
        store = _Store([[EmaState.initialize(config, 32)]],
                       [RowStreams([np.random.default_rng(1)], 1)])
        with np.errstate(**_QUIET):
            store.store(proposal)
        want = quantize(proposal[0, 0], fmt, BLOCK16, rounding, np.random.default_rng(1))
        assert np.array_equal(store.codes[0, 0], want.codes)
        zero = round_nearest(fmt, 0.0).code
        assert store.codes[0, 0, 1:5].tolist() == [zero] * 4
        assert (store.codes[0, 0, 16:] == zero).all()

    @staticmethod
    def _signals():
        # zero-scale blocks included: the first signals leave blocks 0 and 2
        # all zero (every block, and so the single scale, at first), and the
        # last ones drive the state back towards zero
        sig_rng = np.random.default_rng(8)
        signals = [np.zeros(64)]
        for t in range(12):
            g = sig_rng.standard_normal(64) * np.exp2(sig_rng.random(64))
            if t < 4:
                g[:16] = g[32:48] = 0.0
            signals.append(g)
        return signals + [np.zeros(64)] * 3

    @staticmethod
    def _poison(store):
        # no write may read what an earlier one left in a work buffer
        store.flags.fill(True)
        for name in ("w", "mag"):
            # a store that takes its magnitudes from the absmax pass has no w
            if getattr(store, name, None) is not None:
                getattr(store, name).fill(np.nan)

    @pytest.mark.parametrize("kept", [False, True], ids=["ema_step", "kept-store"])
    @pytest.mark.parametrize("rounding", [NR, SR], ids=["nr", "sr"])
    @pytest.mark.parametrize("name", list(STEP_CONFIGS))
    def test_single_state_writes_equal_the_reference_engine(self, name, rounding, kept):
        # ema_step, or one (1, 1, dim) store kept across steps as the curve
        # drivers keep it, its buffers and the proposal's poisoned first
        config = STEP_CONFIGS[name](rounding)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        state = EmaState.initialize(config, 64)
        ref = oracle.OracleState.initialize(config, 64)
        store = _Store([[state]], [RowStreams([rng], 1)])
        self._poison(store)
        proposal = np.full((1, 1, 64), np.nan)
        zero_scales = 0
        for signal in self._signals():
            if kept:
                with np.errstate(**_QUIET):
                    p = _proposal(store.values, signal, 1.0 - config.beta, proposal)
                    frac = np.count_nonzero(store.store(p)) / 64
                state = EmaState(store.stored(0, 0), state.k + 1, config)
            else:
                state, frac = ema_step(state, signal, rng)
            ref, ref_frac = oracle.ema_step(ref, signal, ref_rng)
            assert frac == ref_frac
            assert state.k == ref.k
            for got, want in zip(_arrays(state), _arrays(ref)):
                assert np.array_equal(got, want)
            if config.format is not None:
                zero_scales += int((state.stored.scales == 0).sum())
        if config.format is not None and not config.freeze_scale:
            assert zero_scales > 0

    @pytest.mark.parametrize("rounding", [NR, SR], ids=["nr-sr-nr", "sr-nr-sr"])
    @pytest.mark.parametrize("name", list(STEP_CONFIGS))
    def test_stack_group_writes_equal_the_reference_engine(self, name, rounding):
        # three configs of one storage key whose nearest and stochastic
        # members alternate, so a nearest config after a stochastic one
        # starts a new group; each row steps as the reference engine steps
        # it alone, on its own signal and its own stream
        other = SR if rounding is NR else NR
        configs = [STEP_CONFIGS[name](r) for r in (rounding, other, rounding)]
        rows, dim = 2, 64
        seeds = [[100 + 10 * c + r for r in range(rows)] for c in range(3)]
        streams = [RowStreams([np.random.default_rng(s) for s in row], 1)
                   for row in seeds]
        stack = StateStack([[EmaState.initialize(cfg, dim)] * rows for cfg in configs],
                           streams)
        if configs[0].format is None:  # full precision has no rounding mode
            runs = [(0, 3)]
        else:
            runs = [(0, 2), (2, 3)] if rounding is NR else [(0, 1), (1, 3)]
        assert [(sel.start, sel.stop) for sel, _ in stack.groups] == runs
        for sel, store in stack.groups:
            if configs[0].format is not None:
                assert store.codes.shape == (sel.stop - sel.start, rows, dim)
            self._poison(store)
        refs = [[oracle.OracleState.initialize(cfg, dim) for _ in range(rows)]
                for cfg in configs]
        ref_rngs = [[np.random.default_rng(s) for s in row] for row in seeds]
        factors = np.array([[1.0, 3.0], [0.5, 2.0], [1.5, 0.25]])[..., None]
        zero_scales = 0
        for signal in self._signals():
            signals = factors * signal
            with np.errstate(**_QUIET):
                frac = stack.store(_proposal(stack.values, signals, 1.0 - 0.9))
            for c, cfg in enumerate(configs):
                for r in range(rows):
                    state = stack.state(c, r)
                    refs[c][r], ref_frac = oracle.ema_step(
                        refs[c][r], signals[c, r], ref_rngs[c][r])
                    assert frac[c, r] == ref_frac
                    assert state.k == refs[c][r].k
                    for got, want in zip(_arrays(state), _arrays(refs[c][r])):
                        assert np.array_equal(got, want)
                    assert np.array_equal(stack.values[c, r], refs[c][r].values())
                    if cfg.format is not None:
                        zero_scales += int((state.stored.scales == 0).sum())
        if configs[0].format is not None and not configs[0].freeze_scale:
            assert zero_scales > 0

    @staticmethod
    def _write_twice(v1, v2, fmt=FP4_E2M1):
        # one per-tensor (1, 1, dim) store written v1 then v2: the second
        # write's stall flags, and the scales after each write
        config = EmaConfig(0.9, fmt, PER_TENSOR)
        store = _Store([[EmaState.initialize(config, len(v1))]], [None])
        with np.errstate(**_QUIET):
            store.store(np.array(v1, dtype=np.float64)[None, None])
            scales = store.scales.copy()
            flags = store.store(np.array(v2, dtype=np.float64)[None, None])
        return flags[0, 0].copy(), scales[0, 0], store.scales[0, 0]

    def test_identical_writes_fully_stalled(self):
        v = np.random.default_rng(53).standard_normal(64)
        flags, _, _ = self._write_twice(v, v.copy())
        assert flags.all()

    def test_every_code_changed(self):
        flags, _, _ = self._write_twice([1.0, 2.0, 3.0, 4.0], [-1.0, -2.0, -3.0, -4.0])
        assert not flags.any()

    def test_constructed_fixture_exact_flags(self):
        # indices 1 and 2 move
        flags, s1, s2 = self._write_twice([0.6, 1.0, 2.0, 4.0], [0.6, 1.5, 2.5, 4.0])
        assert s1[0] == s2[0] == 4.0
        assert flags.tolist() == [True, False, False, True]

    def test_scale_change_alone_stalls(self):
        # same shape, larger absmax: the codes stay, and a recomputed scale
        # does not count as movement on its own
        flags, s1, s2 = self._write_twice([1.0, 2.0, 4.0], [1.25, 2.5, 5.0])
        assert (s1[0], s2[0]) == (4.0, 5.0)
        assert flags.all()

    @pytest.mark.parametrize("scheme", [PER_TENSOR, BLOCK128], ids=["tensor", "block"])
    @pytest.mark.parametrize("fmt", [BF16, FP8_E4M3, FP4_E2M1, FP4_E2M2U],
                             ids=lambda f: f.name)
    def test_row_flags_equal_single_row_flags(self, fmt, scheme):
        # a (1, rows, dim) store flags each row as a one-row store of that
        # row alone flags it, in both modes; row 1 stays all zero
        dim, seeds = 200, [31, 32, 33, 34]
        rng = np.random.default_rng([dim, len(fmt.name)])
        x = rng.standard_normal((4, dim)) * np.exp2(rng.integers(-6, 6, (4, dim)))
        x[1] = 0.0
        y = x * np.where(rng.random(x.shape) < 0.5, 1.0, 1.1)
        for mode in (NR, SR):
            config = EmaConfig(0.9, fmt, scheme, mode)
            zero = EmaState.initialize(config, dim)

            def streams(row_seeds):
                return [RowStreams([np.random.default_rng(s) for s in row_seeds], 1)]

            stack = _Store([[zero] * 4], streams(seeds))
            singles = [_Store([[zero]], streams([s])) for s in seeds]
            with np.errstate(**_QUIET):
                for signal in (x, y):
                    flags = stack.store(signal[None].copy())
                    rows = [one.store(signal[None, r:r + 1].copy())[0, 0]
                            for r, one in enumerate(singles)]
                    assert np.array_equal(flags[0], np.stack(rows))
                    assert np.array_equal(
                        stack.codes[0], np.concatenate([one.codes[0] for one in singles]))

    @pytest.mark.parametrize("freeze", [False, True], ids=["recomputed", "frozen"])
    @pytest.mark.parametrize("modes", [(NR, NR), (SR, SR), (NR, SR)],
                             ids=["nr", "sr", "nr+sr"])
    @pytest.mark.parametrize("scheme", [PER_TENSOR, BLOCK128], ids=["tensor", "block"])
    @pytest.mark.parametrize("fmt", list(PRESETS.values()), ids=lambda f: f.name)
    def test_store_writes_equal_quantize_with_scales(self, fmt, scheme, modes, freeze):
        # each row of a (2, 3, dim) store write equals quantize_with_scales
        # (quantize when the scales are recomputed) plus dequantize of that
        # row alone on a generator seeded as the row's: the codes, the
        # scales, the bits of the decoded values and the generator state.
        # Row (0, 1) has an all-zero block, row (1, 2) is all zero, and the
        # frozen anchor is below some blocks' absmax, so they saturate
        dim, anchor = 300, 1.5
        configs = [EmaConfig(0.9, fmt, scheme, m, freeze, anchor if freeze else None)
                   for m in modes]
        seeds = [[200 + 10 * c + r for r in range(3)] for c in range(2)]
        streams = [RowStreams([np.random.default_rng(s) for s in row], 1)
                   if cfg.rounding is SR else None for cfg, row in zip(configs, seeds)]
        store = _Store([[EmaState.initialize(cfg, dim)] * 3 for cfg in configs], streams)
        self._poison(store)
        ref_rngs = [[np.random.default_rng(s) for s in row] for row in seeds]
        scales = np.full(scheme.n_blocks(dim), anchor)
        sig_rng = np.random.default_rng([dim, len(fmt.name)])
        for _ in range(2):
            proposal = (sig_rng.standard_normal((2, 3, dim))
                        * np.exp2(sig_rng.integers(-4, 4, (2, 3, dim))))
            proposal[0, 1, :128] = 0.0
            proposal[1, 2] = 0.0
            with np.errstate(**_QUIET):
                store.store(proposal)
            for c, cfg in enumerate(configs):
                for r in range(3):
                    rng = ref_rngs[c][r] if cfg.rounding is SR else None
                    if freeze:
                        q = quantize_with_scales(proposal[c, r], fmt, scheme, scales,
                                                 cfg.rounding, rng)
                    else:
                        q = quantize(proposal[c, r], fmt, scheme, cfg.rounding, rng)
                    assert np.array_equal(store.codes[c, r], q.codes)
                    assert np.array_equal(store.scales[c, r], q.scales)
                    assert np.array_equal(store.values[c, r].view(np.int64),
                                          dequantize(q).view(np.int64))
                    if rng is not None:
                        assert (streams[c].generators[r].bit_generator.state
                                == rng.bit_generator.state)
        if not freeze:
            assert (store.scales == 0).any()


class TestGateEquivalence:
    def test_exhaustive_fp4_sweep(self):
        checked, mismatches = run_gate_sweep(FP4_E2M2U)
        assert checked > 4000
        assert mismatches == 0


class TestEffectiveDecayConsistency:
    def test_fitted_contraction_matches_mean_field(self):
        # the effective-decay equation models stalling as independent
        # thinning of update steps; forced skips realize exactly that, so
        # the fitted contraction toward a shifted signal mean must match
        # (1 - beta2) * (1 - measured stall fraction) within 10 percent.
        # The EMA under test is the first moment, whose update a hold mask
        # skips with probability p
        beta = 0.999
        dim = 64
        p = 0.95
        hyper = AdamHyper(lr=0.01)
        rng = np.random.default_rng(77)
        stack = moment_stack(dim, beta1=beta)
        params = np.zeros((1, 1, dim))

        def step(signal, hold):
            adam_lockstep(stack, signal_of(signal), hyper, params,
                          np.array([[hold], [False]]))

        for _ in range(500):
            step(rng.standard_normal(dim) ** 2, False)
        target = 4.0
        num = den = 0.0
        stalled = 0
        steps = 4000
        for _ in range(steps):
            v_before = stack.values[0, 0].copy()
            step(target * rng.standard_normal(dim) ** 2, rng.random() < p)
            if np.array_equal(stack.values[0, 0], v_before):
                stalled += 1
            num += float(np.sum(stack.values[0, 0] - v_before))
            den += float(np.sum(target - v_before))
        lam_fit = num / den
        lam_pred = (1 - beta) * (1 - stalled / steps)
        assert abs(lam_fit / lam_pred - 1.0) <= 0.10


class TestResetPolicies:
    def test_periodic_resets_once_in_six_steps(self):
        config = EmaConfig(beta=0.999, format=FP4_E2M2U, scheme=PER_TENSOR)
        state = EmaState.initialize(config, 32)
        policy = ResetPolicy.periodic(5)
        rng = np.random.default_rng(3)
        resets = []
        for _ in range(6):
            state, frac = ema_step(state, rng.standard_normal(32) ** 2)
            state, did = reset_one_row(state, policy, frac)
            resets.append(did)
        assert resets == [False, False, False, False, True, False]
        assert state.k == 1

    def test_reset_state_is_quantized_zero(self):
        config = EmaConfig(beta=0.999, format=FP4_E2M2U, scheme=PER_TENSOR)
        state = warm_state(config, 16)
        state = EmaState(state.stored, 5, config)
        reset, did = reset_one_row(state, ResetPolicy.periodic(5), 1.0)
        assert did
        assert reset.k == 0
        # exclude_zero grids park the reset at the s_min code, decoding to 0
        assert np.all(reset.stored.codes == round_nearest(FP4_E2M2U, 0.0).code)
        assert np.array_equal(reset.values(), np.zeros(16))

    def test_adaptive_never_resets_on_zero_fractions(self):
        config = EmaConfig(beta=0.999, format=None)
        state = EmaState.initialize(config, 8)
        policy = ResetPolicy.adaptive(s0=0.6, p_ss=1.0)
        for _ in range(500):
            state, _ = ema_step(state, np.ones(8))
            state, did = reset_one_row(state, policy, 0.0)
            assert not did
        assert state.excess == 0.0

    def test_adaptive_saturated_fractions_trigger_at_k1(self):
        # inequality-scan oracle: smallest k with avg of 1 >= E(k) is k = 1
        ks = [k for k in range(1, 10) if 1.0 >= remaining_error_E(k, 0.999)]
        assert ks[0] == 1
        config = EmaConfig(beta=0.999, format=None)
        state = EmaState.initialize(config, 8)
        policy = ResetPolicy.adaptive(s0=0.6, p_ss=1.0)
        state, _ = ema_step(state, np.ones(8))
        state, did = reset_one_row(state, policy, 1.0)
        assert did
        assert state.k == 0 and state.excess == 0.0

    def test_adaptive_matches_direct_inequality_scan(self):
        rng = np.random.default_rng(11)
        fractions = rng.uniform(0.5, 1.0, 400)
        s0, beta2 = 0.6, 0.999
        acc, trigger = 0.0, None
        for k, f in enumerate(fractions, start=1):
            acc += max(0.0, (f - s0) / (1 - s0))
            if acc / k >= remaining_error_E(k, beta2):
                trigger = k
                break
        config = EmaConfig(beta=beta2, format=None)
        state = EmaState.initialize(config, 4)
        policy = ResetPolicy.adaptive(s0=s0, p_ss=1.0)
        fired_at = None
        for k, f in enumerate(fractions, start=1):
            state, _ = ema_step(state, np.ones(4))
            state, did = reset_one_row(state, policy, float(f))
            if did:
                fired_at = k
                break
        assert fired_at == trigger

    def test_shared_adaptive_policy_resets_like_separate_instances(self):
        # the accumulator lives on each state, so one policy can serve both
        fractions = np.random.default_rng(5).uniform(0.5, 1.0, (300, 2))
        config = EmaConfig(beta=0.95, format=None)
        shared = ResetPolicy.adaptive()
        policies = {"shared": [shared, shared],
                    "separate": [ResetPolicy.adaptive() for _ in range(2)]}
        resets = {}
        for key, pair in policies.items():
            states = [EmaState.initialize(config, 4) for _ in range(2)]
            resets[key] = [[], []]
            for t, step_fractions in enumerate(fractions, start=1):
                for i, policy in enumerate(pair):
                    states[i], _ = ema_step(states[i], np.ones(4))
                    states[i], did = reset_one_row(
                        states[i], policy, float(step_fractions[i])
                    )
                    if did:
                        resets[key][i].append(t)
        assert resets["shared"] == resets["separate"]
        assert all(len(r) >= 2 for r in resets["separate"])

    def test_state_carries_excess_through_writes_and_skips(self):
        hyper = AdamHyper(lr=0.01)
        config = EmaConfig(beta=0.99, format=FP8_E4M3, scheme=PER_TENSOR)
        state = EmaState(EmaState.initialize(config, 8).stored, 3, config, 0.75)
        state, _ = ema_step(state, np.ones(8))
        assert (state.k, state.excess) == (4, 0.75)
        # a held update, a forced skip, still advances the cycle counter
        stack = one_row(state, EmaState.initialize(EmaConfig(0.999, None), 8))
        adam_lockstep(stack, signal_of(np.ones(8)), hyper, np.zeros((1, 1, 8)),
                      np.array([[True], [False]]))
        state = stack.state(0, 0)
        assert (state.k, state.excess) == (5, 0.75)
        state, did = reset_one_row(state, ResetPolicy.periodic(5))
        assert did and (state.k, state.excess) == (0, 0.0)

    def test_policy_is_immutable(self):
        policy = ResetPolicy.adaptive()
        with pytest.raises(AttributeError):
            policy.s0 = 0.5

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ResetPolicy(ResetKind.PERIODIC)
        with pytest.raises(ValueError):
            ResetPolicy(ResetKind.ADAPTIVE, s0=1.0)
        with pytest.raises(TypeError):
            ResetPolicy.adaptive(0.999)  # keyword-only: this would set s0
        with pytest.raises(ValueError):
            ResetPolicy.periodic(5, applies_to="third")

    @pytest.mark.parametrize("kind", ["periodic", "adaptive", None, 1])
    def test_policy_needs_a_reset_kind(self, kind):
        # ResetPolicy("periodic", K=5) was once accepted and never reset
        with pytest.raises(ValueError, match="^kind must be a ResetKind, got ") as exc:
            ResetPolicy(kind, K=5)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("K", [2.5, 5.0, True, math.inf, 0, -3, "5"])
    def test_periodic_needs_an_integer_period(self, K):
        # periodic(2.5) once reset every 3 steps under the label periodic2.5
        with pytest.raises(ValueError, match="^PERIODIC needs an integer K >= 1") as exc:
            ResetPolicy.periodic(K)
        assert "\n" not in str(exc.value)

    def test_periodic_takes_numpy_integers(self):
        assert ResetPolicy.periodic(np.int64(7)).K == 7

    @pytest.mark.parametrize("p_ss", [math.nan, math.inf, 0.0, -0.5])
    def test_adaptive_needs_a_positive_finite_p_ss(self, p_ss):
        with pytest.raises(ValueError, match="^ADAPTIVE needs a positive, finite p_ss"):
            ResetPolicy.adaptive(p_ss=p_ss)

    def test_rules_take_one_moment_per_config(self):
        with pytest.raises(ValueError, match=r"^1 moments for 2 configs$"):
            ResetRows([ResetPolicy.none()], ["first"], 10, [0.999, 0.99])

    @pytest.mark.parametrize("n_beta2,n_policies", [(1, 9), (2, 1), (3, 9)])
    def test_rules_must_fit_the_stack(self, n_beta2, n_policies):
        # a one-entry beta2 on a two-config stack once read E(k) at that
        # beta2 for both configs, and one policy on a nine-row stack once
        # ruled every row, both silently through broadcasting
        configs = [EmaConfig(beta=b, format=None) for b in (0.999, 0.99)]
        stack = StateStack([[EmaState.initialize(cfg, 4)] * 9 for cfg in configs],
                           [None, None])
        rules = ResetRows([ResetPolicy.adaptive()] * n_policies, [None] * n_beta2, 10,
                          [0.999] * n_beta2)
        with pytest.raises(ValueError, match=r"^reset rules of shape .* for a stack of "
                                             r"\(2, 9\)$"):
            reset_rows(stack, rules, np.zeros((2, 9)))
        assert stack.k.tolist() == [[0] * 9] * 2
        fitting = ResetRows([ResetPolicy.adaptive()] * 9, [None] * 2, 10, [0.999, 0.99])
        assert not reset_rows(stack, fitting, np.zeros((2, 9))).any()


@pytest.mark.parametrize("field,value", [
    ("lr", -1.0), ("lr", 0.0), ("lr", math.nan), ("lr", math.inf),
    ("eps", -1.0), ("eps", 0.0), ("eps", math.nan),
    ("weight_decay", -0.01), ("weight_decay", math.nan), ("weight_decay", math.inf),
    ("lr", True), ("lr", "0.01"), ("eps", False), ("eps", None),
    ("weight_decay", True), ("weight_decay", "0"),
])
def test_adam_hyper_rejects_unusable_values(field, value):
    # a negative lr once trained uphill, a nan lr failed later as a
    # non-finite signal, and lr=True trained at lr 1.0
    with pytest.raises(ValueError, match=f"^{field} must be") as exc:
        AdamHyper(**{"lr": 0.01, field: value})
    assert "\n" not in str(exc.value)


def test_adam_hyper_holds_no_beta():
    # each moment's beta is its EmaConfig's
    assert [f.name for f in dataclasses.fields(AdamHyper)] == ["lr", "eps",
                                                               "weight_decay"]
    assert AdamHyper(lr=np.float64(0.01), weight_decay=0).weight_decay == 0


@pytest.mark.parametrize("field,value", [
    ("beta1", 0.0), ("beta1", 1.0), ("beta1", math.nan),
    ("beta2", 0.0), ("beta2", 1.5), ("beta2", math.nan),
])
def test_moment_configs_reject_unusable_betas(field, value):
    # the betas a study's configs are built at, checked by name
    with pytest.raises(ValueError, match=f"^{field} must be"):
        moment_configs("fp4", **{field: value})


class TestAdam:
    def _configs(self, fmt=None, scheme=PER_TENSOR):
        if fmt is None:
            return (
                EmaConfig(beta=0.9, format=None),
                EmaConfig(beta=0.999, format=None),
            )
        return (
            EmaConfig(beta=0.9, format=FP4_E2M1, scheme=scheme),
            EmaConfig(beta=0.999, format=FP4_E2M2U, scheme=scheme),
        )

    def test_zero_gradients_decay_params_only(self):
        hyper = AdamHyper(lr=0.1, weight_decay=0.01)
        cfg_m, cfg_v = self._configs(fmt="fp4")
        m = EmaState.initialize(cfg_m, 8)
        v = EmaState.initialize(cfg_v, 8)
        params = np.full(8, 2.0)
        for t in range(5):
            params, m, v, stalled = adam_one_row(m, v, np.zeros(8), hyper, params)
            assert stalled == (1.0, 1.0)
        assert np.allclose(params, 2.0 * (1 - 0.1 * 0.01) ** 5)
        assert np.array_equal(m.values(), np.zeros(8))
        assert np.array_equal(v.values(), np.zeros(8))

    def test_one_step_from_zero_state(self):
        hyper = AdamHyper(lr=0.01)
        cfg_m, cfg_v = self._configs(fmt="fp4", scheme=BLOCK128)
        rng = np.random.default_rng(13)
        g = rng.standard_normal(256)
        m = EmaState.initialize(cfg_m, 256)
        v = EmaState.initialize(cfg_v, 256)
        params = np.zeros(256)
        params, m, v, _ = adam_one_row(m, v, g, hyper, params)
        # quantization error per element is at most half the local cell;
        # below the exclude_zero clamp floor the error is s_min-bounded
        from emastall.formats import ulp_at

        m_target = (1 - cfg_m.beta) * g
        v_target = (1 - cfg_v.beta) * g * g
        for state, target, fmt in ((m, m_target, FP4_E2M1), (v, v_target, FP4_E2M2U)):
            ratio = np.repeat(state.stored.scales, 128) / fmt.x_max
            vals = state.values()
            for i in range(256):
                err = abs(vals[i] - target[i])
                if fmt.exclude_zero and abs(target[i]) < fmt.s_min * ratio[i]:
                    assert err <= fmt.s_min * ratio[i] * (1 + 1e-9)
                    continue
                half_cell = ulp_at(fmt, int(state.stored.codes[i])) / 2.0
                assert err <= half_cell * ratio[i] * (1 + 1e-9), i

    def test_full_precision_matches_reference_adam(self):
        # independent textbook implementation on a fixed quadratic
        hyper = AdamHyper(lr=0.05, eps=1e-6, weight_decay=0.001)
        beta1, beta2 = 0.9, 0.999
        h = np.array([0.1, 0.5, 1.0, 2.0])
        theta_ref = np.array([1.0, -1.0, 2.0, 0.5])
        m_ref = np.zeros(4)
        v_ref = np.zeros(4)
        cfg_m, cfg_v = self._configs()
        m = EmaState.initialize(cfg_m, 4)
        v = EmaState.initialize(cfg_v, 4)
        theta = theta_ref.copy()
        for t in range(1, 101):
            g = h * theta_ref
            m_ref = beta1 * m_ref + (1 - beta1) * g
            v_ref = beta2 * v_ref + (1 - beta2) * g * g
            m_hat = m_ref / (1 - beta1**t)
            v_hat = v_ref / (1 - beta2**t)
            theta_ref = (
                theta_ref
                - hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)
                - hyper.lr * hyper.weight_decay * theta_ref
            )
            g2 = h * theta
            theta, m, v, _ = adam_one_row(m, v, g2, hyper, theta)
            assert np.max(np.abs(theta - theta_ref)) < 1e-6, t

    def test_moments_step_at_their_configs_betas(self):
        # the betas once also lived on AdamHyper, which had to match them
        hyper = AdamHyper(lr=0.01)
        cfg_m = EmaConfig(beta=0.8, format=None)
        cfg_v = EmaConfig(beta=0.5, format=None)
        m = EmaState.initialize(cfg_m, 4)
        v = EmaState.initialize(cfg_v, 4)
        g = np.array([1.0, -2.0, 0.5, 4.0])
        params, m, v, _ = adam_one_row(m, v, g, hyper, np.zeros(4))
        assert m.values().tolist() == ((1 - 0.8) * g).tolist()
        assert v.values().tolist() == ((1 - 0.5) * g * g).tolist()
        # one step's bias corrections recover g and g * g
        assert np.allclose(params, -0.01 * g / (np.abs(g) + hyper.eps), rtol=1e-12)

    def test_bias_correction_requires_steps(self):
        # the update of zero states that have accumulated no step
        hyper = AdamHyper(lr=0.01)
        zeros, k = np.zeros((1, 1, 4)), np.zeros((1, 1), np.int64)
        beta1, beta2 = np.full((1, 1, 1), 0.9), np.full((1, 1, 1), 0.999)
        with pytest.raises(ValueError):
            _adam_update(zeros, zeros, zeros, k, k, beta1, beta2, hyper)


class TestBatchState:
    def test_ema_step_rejects_a_batch(self):
        # hand-built (rows, dim) states: rows step through a StateStack
        m = EmaState(np.zeros((2, 4)), 0, EmaConfig(beta=0.9, format=None))
        q = EmaState(quantize(np.zeros((2, 4)), BF16, PER_TENSOR), 0,
                     EmaConfig(beta=0.999, format=BF16, scheme=PER_TENSOR))
        g = np.ones((2, 4))
        for state in (m, q):
            with pytest.raises(ValueError, match="StateStack"):
                ema_step(state, g)

    @pytest.mark.parametrize("fmt", [None, BF16], ids=["fp32", "bf16"])
    def test_generator_streams_are_rejected(self, fmt):
        # a group of two stochastic members once failed with
        # "'Generator' object has no attribute 'generators'"
        config = EmaConfig(beta=0.9, format=fmt, rounding=SR)
        rows = [[EmaState.initialize(config, 2)] * 4] * 2
        gens = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValueError, match="^a rounding stream must be a RowStreams"):
            StateStack(rows, gens)
        with pytest.raises(ValueError, match="^a rounding stream must be a RowStreams"):
            _Store(rows[:1], gens[:1])

    @pytest.mark.parametrize("n_streams", [0, 1, 3])
    def test_one_stream_entry_per_config(self, n_streams):
        # StateStack([[s]], []) once raised an IndexError, and extra
        # streams were dropped
        rows = [[EmaState.initialize(EmaConfig(beta=0.9, format=BF16), 3)]] * 2
        with pytest.raises(ValueError,
                           match=f"^{n_streams} streams for 2 configs$"):
            StateStack(rows, [None] * n_streams)

    def test_merged_streams_share_rows_per_stream(self):
        config = EmaConfig(beta=0.9, format=BF16, rounding=SR)
        gens = [np.random.default_rng(s) for s in range(3)]
        streams = [RowStreams(gens[:1], 2), RowStreams(gens[1:], 1)]
        with pytest.raises(ValueError, match="rows_per_stream"):
            StateStack([[EmaState.initialize(config, 3)] * 2] * 2, streams)

    def test_one_row_stream_draws_as_its_generator(self):
        stream, rng = RowStreams([np.random.default_rng(4)], 1), np.random.default_rng(4)
        for shape in ((5,), (1, 1, 5)):
            assert np.array_equal(stream.random(shape), rng.random((5,)).reshape(shape))
        # the curve drivers' (1, 1, dim) draw is the generator's own, shape
        # and bits
        got, want = stream.random((1, 1, 5)), rng.random((1, 1, 5))
        assert got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        with pytest.raises(ValueError, match="^draw shape does not match"):
            stream.random((2, 5))

    @staticmethod
    def _repeated_draws(gens, rows_per_stream, shape):
        # the draws as np.repeat handed them out before broadcasting
        draws = np.empty((len(gens), shape[-1]))
        for g, row in zip(gens, draws):
            g.random(out=row)
        return np.repeat(draws, rows_per_stream, axis=0).reshape(shape)

    @pytest.mark.parametrize("n_gens,rows_per_stream,shape", [
        (1, 1, (7,)), (1, 1, (1, 1, 7)), (3, 1, (1, 3, 7)), (3, 1, (3, 1, 7)),
        (1, 4, (1, 4, 7)), (2, 3, (2, 3, 7)), (4, 2, (2, 4, 7)),
    ])
    def test_draws_equal_the_repeated_draws(self, n_gens, rows_per_stream, shape):
        # the lone generator's own draw, and the (generators, 1, dim) draws
        # each generator's rows share, hold the bits np.repeat gave, row for
        # row, and every generator ends where the repeat path leaves it
        seeds = range(10, 10 + n_gens)
        stream = RowStreams([np.random.default_rng(s) for s in seeds], rows_per_stream)
        ref = [np.random.default_rng(s) for s in seeds]
        for _ in range(3):
            draws = stream.random(shape)
            if n_gens * rows_per_stream > 1:
                assert draws.shape == (n_gens, 1, shape[-1])
            rows = np.broadcast_to(draws, (n_gens, rows_per_stream, shape[-1]))
            got = rows.reshape(shape)
            want = self._repeated_draws(ref, rows_per_stream, shape)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        for g, r in zip(stream.generators, ref):
            assert g.bit_generator.state == r.bit_generator.state

    @pytest.mark.parametrize("fmt", [BF16, FP4_E2M1, FP4_E2M2U], ids=lambda f: f.name)
    def test_broadcast_draws_round_as_repeated_draws(self, fmt):
        # a (2, 6, dim) stochastic encode over 4 generators of 3 rows each
        class Repeated:
            def __init__(self, gens):
                self.gens = gens

            def random(self, shape):
                return TestBatchState._repeated_draws(self.gens, 3, shape)

        grid = _normalized_grid(fmt)
        w = np.random.default_rng(7).standard_normal((2, 6, 50)) / 3.0
        got = grid.encode(w, 0, RowStreams([np.random.default_rng(s) for s in range(4)], 3))
        want = grid.encode(w, 0, Repeated([np.random.default_rng(s) for s in range(4)]))
        assert np.array_equal(got, want)

    def test_stack_decay_is_one_minus_each_configs_beta(self):
        # the proposal's factor, built once as a contiguous stack-shaped
        # array with the bits of the float 1 - beta
        betas = (0.9, 0.999, 0.95)
        configs = [EmaConfig(beta=b, format=None) for b in betas]
        stack = StateStack([[EmaState.initialize(cfg, 5)] * 3 for cfg in configs],
                           [None] * 3)
        assert stack.decay.shape == (3, 3, 5) and stack.decay.flags.c_contiguous
        for c, b in enumerate(betas):
            assert stack.decay[c].ravel().tolist() == [1.0 - b] * 15

    def test_stack_rows_are_single_states(self):
        config = EmaConfig(beta=0.9, format=FP4_E2M1, scheme=BLOCK16)
        rows = [EmaState(EmaState.initialize(config, 40).stored, k, config, 0.5 * k)
                for k in range(3)]
        stack = StateStack([rows], [None])
        assert stack.values.shape == (1, 3, 40)
        assert stack.k.tolist() == [[0, 1, 2]] and stack.excess.tolist() == [[0, 0.5, 1]]
        got = stack.state(0, 2)
        assert (got.k, got.excess, got.config) == (2, 1.0, config)
        assert type(got.k) is int and type(got.excess) is float
        assert got.stored.codes.shape == (40,) and got.stored.scales.shape == (3,)
        for name in ("codes", "scales"):
            ours = getattr(got.stored, name)
            for _, store in stack.groups:
                assert not np.shares_memory(ours, getattr(store, name))
        other = EmaConfig(beta=0.8, format=FP4_E2M1, scheme=BLOCK16)
        with pytest.raises(ValueError, match="share its EmaConfig"):
            StateStack([rows + [EmaState.initialize(other, 40)]], [None])

    def test_groups_store_in_views_of_the_stack(self):
        # runs of one storage key split where the key changes and where a
        # nearest config follows a stochastic one; every store's values and
        # flags are the stack's own memory at the group's places
        configs = [EmaConfig(0.9, None), EmaConfig(0.9, FP4_E2M1, BLOCK16, SR),
                   EmaConfig(0.9, FP4_E2M1, BLOCK16), EmaConfig(0.8, FP4_E2M1, BLOCK16, SR),
                   EmaConfig(0.9, BF16, PER_TENSOR), EmaConfig(0.9, None)]
        gens = [np.random.default_rng(s) for s in range(2)]
        streams = [RowStreams(gens, 1)] * len(configs)
        stack = StateStack([[EmaState.initialize(cfg, 40)] * 2 for cfg in configs],
                           streams)
        assert [(sel.start, sel.stop) for sel, _ in stack.groups] == [
            (0, 1), (1, 2), (2, 4), (4, 5), (5, 6)]
        for sel, store in stack.groups:
            for ours, theirs in ((store.values, stack.values), (store.flags, stack.flags)):
                assert ours.base is theirs and ours.shape == theirs[sel].shape
                assert (ours.__array_interface__["data"][0]
                        == theirs[sel].__array_interface__["data"][0])
        with np.errstate(**_QUIET):
            stack.store(_proposal(stack.values, np.ones(stack.values.shape), 0.5))
        assert stack.values[:, :, 0].tolist() == [[0.5, 0.5]] * len(configs)

    @pytest.mark.parametrize("dim", [2.5, 0, -1, True, "4"])
    @pytest.mark.parametrize("fmt", [None, BF16], ids=["fp32", "bf16"])
    def test_initialize_needs_an_integer_dim(self, dim, fmt):
        with pytest.raises(ValueError, match="^dim must be an integer >= 1") as exc:
            EmaState.initialize(EmaConfig(beta=0.9, format=fmt), dim)
        assert "\n" not in str(exc.value)

    def test_initialize_takes_numpy_integers(self):
        assert len(EmaState.initialize(EmaConfig(beta=0.9, format=BF16), np.int64(3))) == 3

    @pytest.mark.parametrize("k", [2.5, -4, True, 1.0, "3"])
    def test_state_needs_an_integer_cycle_count(self, k):
        # a stack once truncated k = 2.5 to 2 and kept k = -4
        with pytest.raises(ValueError, match="^k must be an integer >= 0") as exc:
            EmaState(np.zeros(3), k, EmaConfig(beta=0.9, format=None))
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("excess", [math.nan, math.inf, -0.5, "0"])
    def test_state_needs_a_finite_nonnegative_excess(self, excess):
        # a NaN excess keeps the adaptive rule from ever firing
        with pytest.raises(ValueError, match="^excess must be finite and >= 0") as exc:
            EmaState(np.zeros(3), 0, EmaConfig(beta=0.9, format=None), excess)
        assert "\n" not in str(exc.value)

    def test_state_takes_numpy_scalars(self):
        state = EmaState(np.zeros(3), np.int64(2), EmaConfig(beta=0.9, format=None),
                         np.float64(0.5))
        assert (state.k, state.excess) == (2, 0.5)


class TestSkips:
    """Forced skips: ``simlab._Skips`` draws each row's holds after warmup,
    and ``adam_lockstep`` keeps a held moment's stored value while its
    cycle counter still advances."""

    def test_p_zero_identical_to_ema_step(self):
        hyper = AdamHyper(lr=0.01)
        rng = np.random.default_rng(17)
        skips = _Skips("first", [0.0], [17], 0)
        s1 = EmaState.initialize(EmaConfig(beta=0.99, format=None), 16)
        stack = moment_stack(16, beta1=0.99)
        for t in range(1, 51):
            sig = rng.standard_normal(16)
            s1, _ = ema_step(s1, sig)
            hold = skips.holds(t)
            assert hold is None
            adam_lockstep(stack, signal_of(sig), hyper, np.zeros((1, 1, 16)), hold)
            assert np.array_equal(s1.stored, stack.values[0, 0])

    def test_p_one_freezes_forever(self):
        hyper = AdamHyper(lr=0.01)
        rng = np.random.default_rng(19)
        skips = _Skips("first", [1.0], [19], 0)
        stack = moment_stack(16, beta1=0.99)
        params = np.zeros((1, 1, 16))
        adam_lockstep(stack, signal_of(np.ones(16)), hyper, params)
        frozen = stack.values[0].copy()
        for t in range(1, 101):
            hold = skips.holds(t)
            assert hold.tolist() == [[True], [False]]
            adam_lockstep(stack, signal_of(rng.standard_normal(16)), hyper, params, hold)
        assert np.array_equal(stack.values[0], frozen)
        assert stack.state(0, 0).k == 101

    @pytest.mark.parametrize("target", ["first", "second"])
    def test_block_draws_equal_scalar_draws(self, target, monkeypatch):
        # blocks of 4 steps for the three live rows: each step's holds are
        # every live row's next scalar rng.random() < p, across the block
        # edges; draw gives the same holds as (hold_m, hold_v)
        monkeypatch.setattr(simlab, "_BLOCK_BYTES", 4 * 8 * 3)
        p_rows, seed_rows, warmup = [0.3, 0.0, 0.5, 1.0], [5, 5, 6, 6], 2
        skips, twin = (_Skips(target, p_rows, seed_rows, warmup) for _ in range(2))
        assert skips.block == 4
        refs = {r: np.random.default_rng([seed_rows[r], _KEY_ROUND, int(p_rows[r] * 10**6)])
                for r in (0, 2, 3)}
        moment = ("first", "second").index(target)
        for t in range(1, warmup + 3 * 4 + 2):
            hold, pair = skips.holds(t), twin.draw(t)
            if t <= warmup:
                assert hold is None and pair == (None, None)
                continue
            want = np.zeros((2, 4), dtype=bool)
            for r, rng in refs.items():
                want[moment, r] = rng.random() < p_rows[r]
            assert hold.tolist() == want.tolist(), t
            assert pair[1 - moment] is None and pair[moment].tolist() == want[moment].tolist()

    def test_skip_rate_binomial(self):
        skips = _Skips("second", [0.5], [23], 0)
        n = 10_000
        skipped = sum(int(skips.draw(t)[1][0]) for t in range(1, n + 1))
        sigma = math.sqrt(0.25 / n)
        assert abs(skipped / n - 0.5) < 3 * sigma


class TestStallTrace:
    def test_csv_export(self, tmp_path):
        trace = StallTrace("second_moment")
        trace.append(0.5, 1, False)
        trace.append(0.75, 2, True)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_bytes() == (
            b"step,tensor_id,stalled_fraction,cycle_k,reset_flag\n"
            b"1,second_moment,0.5,1,0\n"
            b"2,second_moment,0.75,2,1\n"
        )
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,tensor_id,stalled_fraction,cycle_k,reset_flag"
        assert lines[1] == "1,second_moment,0.5,1,0"
        assert lines[2] == "2,second_moment,0.75,2,1"
        assert trace.reset_steps == [2]
