"""Quantized EMA engine tests: fixed points, stability, resets, Adam."""

import math

import numpy as np
import pytest

from gate_sweep import run_gate_sweep

from emastall.engine import (
    AdamHyper,
    EmaConfig,
    EmaState,
    ResetKind,
    ResetPolicy,
    StallTrace,
    adam_step,
    apply_adam_update,
    apply_reset_policy,
    ema_step,
    skip_intervention_step,
)
from emastall.formats import (
    BF16,
    FP4_E2M1,
    FP4_E2M2U,
    FP8_E4M3,
    RoundingMode,
    round_nearest,
)
from emastall.quantize import (
    ScalingMode,
    ScalingScheme,
    dequantize,
    quantize,
)
from emastall.theory import p_stall_nr_ss, remaining_error_E

PER_TENSOR = ScalingScheme(ScalingMode.PER_TENSOR)
BLOCK128 = ScalingScheme(ScalingMode.BLOCKWISE, 128)


def warm_state(config, dim, seed=0, steps=10):
    rng = np.random.default_rng(seed)
    state = EmaState.initialize(config, dim)
    for _ in range(steps):
        state, _ = ema_step(state, rng.standard_normal(dim) ** 2, rng)
    return state


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
        m = EmaState.initialize(EmaConfig(beta=hyper.beta1, format=fmt), 2)
        v = EmaState.initialize(EmaConfig(beta=hyper.beta2, format=fmt), 2)
        with pytest.raises(ValueError):
            adam_step(m, v, np.full(2, 1e200), hyper, np.zeros(2))

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
        # (1 - beta2) * (1 - measured stall fraction) within 10 percent
        beta = 0.999
        dim = 64
        p = 0.95
        config = EmaConfig(beta=beta, format=None)
        rng = np.random.default_rng(77)
        state = EmaState.initialize(config, dim)
        for _ in range(500):
            state, _ = ema_step(state, rng.standard_normal(dim) ** 2)
        target = 4.0
        num = den = 0.0
        stalled = 0
        steps = 4000
        for _ in range(steps):
            v_before = state.values()
            state = skip_intervention_step(
                state, target * rng.standard_normal(dim) ** 2, p, rng
            )
            if np.array_equal(state.stored, v_before):
                stalled += 1
            num += float(np.sum(state.values() - v_before))
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
            state, did = apply_reset_policy(state, policy, frac)
            resets.append(did)
        assert resets == [False, False, False, False, True, False]
        assert state.k == 1

    def test_reset_state_is_quantized_zero(self):
        config = EmaConfig(beta=0.999, format=FP4_E2M2U, scheme=PER_TENSOR)
        state = warm_state(config, 16)
        state = EmaState(state.stored, 5, config)
        reset, did = apply_reset_policy(state, ResetPolicy.periodic(5), 1.0)
        assert did
        assert reset.k == 0
        # exclude_zero grids park the reset at the s_min code, decoding to 0
        assert np.all(reset.stored.codes == round_nearest(FP4_E2M2U, 0.0).code)
        assert np.array_equal(reset.values(), np.zeros(16))

    def test_adaptive_never_resets_on_zero_fractions(self):
        config = EmaConfig(beta=0.999, format=None)
        state = EmaState.initialize(config, 8)
        policy = ResetPolicy.adaptive(beta2=0.999, s0=0.6, p_ss=1.0)
        for _ in range(500):
            state, _ = ema_step(state, np.ones(8))
            state, did = apply_reset_policy(state, policy, 0.0)
            assert not did
        assert state.excess == 0.0

    def test_adaptive_saturated_fractions_trigger_at_k1(self):
        # inequality-scan oracle: smallest k with avg of 1 >= E(k) is k = 1
        ks = [k for k in range(1, 10) if 1.0 >= remaining_error_E(k, 0.999)]
        assert ks[0] == 1
        config = EmaConfig(beta=0.999, format=None)
        state = EmaState.initialize(config, 8)
        policy = ResetPolicy.adaptive(beta2=0.999, s0=0.6, p_ss=1.0)
        state, _ = ema_step(state, np.ones(8))
        state, did = apply_reset_policy(state, policy, 1.0)
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
        policy = ResetPolicy.adaptive(beta2=beta2, s0=s0, p_ss=1.0)
        fired_at = None
        for k, f in enumerate(fractions, start=1):
            state, _ = ema_step(state, np.ones(4))
            state, did = apply_reset_policy(state, policy, float(f))
            if did:
                fired_at = k
                break
        assert fired_at == trigger

    def test_shared_adaptive_policy_resets_like_separate_instances(self):
        # the accumulator lives on each state, so one policy can serve both
        fractions = np.random.default_rng(5).uniform(0.5, 1.0, (300, 2))
        config = EmaConfig(beta=0.95, format=None)
        shared = ResetPolicy.adaptive(beta2=0.95)
        policies = {"shared": [shared, shared],
                    "separate": [ResetPolicy.adaptive(beta2=0.95) for _ in range(2)]}
        resets = {}
        for key, pair in policies.items():
            states = [EmaState.initialize(config, 4) for _ in range(2)]
            resets[key] = [[], []]
            for t, step_fractions in enumerate(fractions, start=1):
                for i, policy in enumerate(pair):
                    states[i], _ = ema_step(states[i], np.ones(4))
                    states[i], did = apply_reset_policy(
                        states[i], policy, float(step_fractions[i])
                    )
                    if did:
                        resets[key][i].append(t)
        assert resets["shared"] == resets["separate"]
        assert all(len(r) >= 2 for r in resets["separate"])

    def test_state_carries_excess_through_writes_and_skips(self):
        config = EmaConfig(beta=0.99, format=FP8_E4M3, scheme=PER_TENSOR)
        state = EmaState(EmaState.initialize(config, 8).stored, 3, config, 0.75)
        state, _ = ema_step(state, np.ones(8))
        assert (state.k, state.excess) == (4, 0.75)
        state = skip_intervention_step(state, np.ones(8), 1.0, np.random.default_rng(0))
        assert (state.k, state.excess) == (5, 0.75)
        state, did = apply_reset_policy(state, ResetPolicy.periodic(5))
        assert did and (state.k, state.excess) == (0, 0.0)

    def test_policy_is_immutable(self):
        policy = ResetPolicy.adaptive(beta2=0.999)
        with pytest.raises(AttributeError):
            policy.s0 = 0.5

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ResetPolicy(ResetKind.PERIODIC)
        with pytest.raises(ValueError):
            ResetPolicy(ResetKind.ADAPTIVE)
        with pytest.raises(ValueError):
            ResetPolicy.periodic(5, applies_to="third")


class TestAdam:
    def _configs(self, hyper, fmt=None, scheme=PER_TENSOR):
        if fmt is None:
            return (
                EmaConfig(beta=hyper.beta1, format=None),
                EmaConfig(beta=hyper.beta2, format=None),
            )
        return (
            EmaConfig(beta=hyper.beta1, format=FP4_E2M1, scheme=scheme),
            EmaConfig(beta=hyper.beta2, format=FP4_E2M2U, scheme=scheme),
        )

    def test_zero_gradients_decay_params_only(self):
        hyper = AdamHyper(lr=0.1, weight_decay=0.01)
        cfg_m, cfg_v = self._configs(hyper, fmt="fp4")
        m = EmaState.initialize(cfg_m, 8)
        v = EmaState.initialize(cfg_v, 8)
        params = np.full(8, 2.0)
        for t in range(5):
            params, m, v, stats = adam_step(m, v, np.zeros(8), hyper, params)
            assert stats["stalled_m"] == 1.0 and stats["stalled_v"] == 1.0
        assert np.allclose(params, 2.0 * (1 - 0.1 * 0.01) ** 5)
        assert np.array_equal(m.values(), np.zeros(8))
        assert np.array_equal(v.values(), np.zeros(8))

    def test_one_step_from_zero_state(self):
        hyper = AdamHyper(lr=0.01)
        cfg_m, cfg_v = self._configs(hyper, fmt="fp4", scheme=BLOCK128)
        rng = np.random.default_rng(13)
        g = rng.standard_normal(256)
        m = EmaState.initialize(cfg_m, 256)
        v = EmaState.initialize(cfg_v, 256)
        params = np.zeros(256)
        params, m, v, _ = adam_step(m, v, g, hyper, params)
        # quantization error per element is at most half the local cell;
        # below the exclude_zero clamp floor the error is s_min-bounded
        from emastall.formats import ulp_at

        m_target = (1 - hyper.beta1) * g
        v_target = (1 - hyper.beta2) * g * g
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
        hyper = AdamHyper(lr=0.05, beta1=0.9, beta2=0.999, eps=1e-6,
                          weight_decay=0.001)
        h = np.array([0.1, 0.5, 1.0, 2.0])
        theta_ref = np.array([1.0, -1.0, 2.0, 0.5])
        m_ref = np.zeros(4)
        v_ref = np.zeros(4)
        cfg_m, cfg_v = self._configs(hyper)
        m = EmaState.initialize(cfg_m, 4)
        v = EmaState.initialize(cfg_v, 4)
        theta = theta_ref.copy()
        for t in range(1, 101):
            g = h * theta_ref
            m_ref = hyper.beta1 * m_ref + (1 - hyper.beta1) * g
            v_ref = hyper.beta2 * v_ref + (1 - hyper.beta2) * g * g
            m_hat = m_ref / (1 - hyper.beta1**t)
            v_hat = v_ref / (1 - hyper.beta2**t)
            theta_ref = (
                theta_ref
                - hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)
                - hyper.lr * hyper.weight_decay * theta_ref
            )
            g2 = h * theta
            theta, m, v, _ = adam_step(m, v, g2, hyper, theta)
            assert np.max(np.abs(theta - theta_ref)) < 1e-6, t

    def test_global_bias_clock_flag(self):
        hyper = AdamHyper(lr=0.01)
        cfg_m, cfg_v = self._configs(hyper)
        m = EmaState.initialize(cfg_m, 4)
        v = EmaState.initialize(cfg_v, 4)
        m, _ = ema_step(m, np.ones(4))
        v, _ = ema_step(v, np.ones(4))
        m = EmaState(m.stored, 1, cfg_m)  # pretend the cycle was reset
        p_cycle = apply_adam_update(np.zeros(4), m, v, hyper)
        p_global = apply_adam_update(np.zeros(4), m, v, hyper, t_global=50)
        assert not np.allclose(p_cycle, p_global)

    def test_beta_mismatch_rejected(self):
        hyper = AdamHyper(lr=0.01, beta1=0.9, beta2=0.999)
        cfg_m = EmaConfig(beta=0.8, format=None)
        cfg_v = EmaConfig(beta=hyper.beta2, format=None)
        m = EmaState.initialize(cfg_m, 4)
        v = EmaState.initialize(cfg_v, 4)
        with pytest.raises(ValueError):
            adam_step(m, v, np.ones(4), hyper, np.zeros(4))

    def test_bias_correction_requires_steps(self):
        hyper = AdamHyper(lr=0.01)
        cfg_m, cfg_v = self._configs(hyper)
        m = EmaState.initialize(cfg_m, 4)
        v = EmaState.initialize(cfg_v, 4)
        with pytest.raises(ValueError):
            apply_adam_update(np.zeros(4), m, v, hyper)


class TestBatchState:
    def test_initialize_rows(self):
        for config in (EmaConfig(beta=0.9, format=None),
                       EmaConfig(beta=0.9, format=FP4_E2M1, scheme=BLOCK128),
                       EmaConfig(beta=0.9, format=BF16, freeze_scale=True,
                                 init_scale=BF16.x_max)):
            state = EmaState.initialize(config, 200, rows=3)
            one = EmaState.initialize(config, 200)
            assert state.values().shape == (3, 200)
            assert np.array_equal(state.values(), np.stack([one.values()] * 3))
            assert state.k.tolist() == [0, 0, 0]
            assert state.excess.tolist() == [0.0, 0.0, 0.0]

    def test_single_state_forms_reject_a_batch(self):
        hyper = AdamHyper(lr=0.01)
        m = EmaState.initialize(EmaConfig(beta=hyper.beta1, format=None), 4, rows=2)
        v = EmaState.initialize(EmaConfig(beta=hyper.beta2, format=None), 4, rows=2)
        g = np.ones((2, 4))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ema_step(m, g)
        with pytest.raises(ValueError):
            skip_intervention_step(m, g, 0.5, rng)
        with pytest.raises(ValueError):
            apply_reset_policy(m, ResetPolicy.periodic(1))
        with pytest.raises(ValueError):
            adam_step(m, v, g, hyper, np.zeros((2, 4)))


class TestSkipIntervention:
    def test_p_zero_identical_to_ema_step(self):
        config = EmaConfig(beta=0.99, format=None)
        rng = np.random.default_rng(17)
        s1 = EmaState.initialize(config, 16)
        s2 = EmaState.initialize(config, 16)
        for _ in range(50):
            sig = rng.standard_normal(16)
            s1, _ = ema_step(s1, sig)
            s2 = skip_intervention_step(s2, sig, 0.0, rng)
            assert np.array_equal(s1.stored, s2.stored)

    def test_p_one_freezes_forever(self):
        config = EmaConfig(beta=0.99, format=None)
        rng = np.random.default_rng(19)
        state = EmaState.initialize(config, 16)
        state, _ = ema_step(state, np.ones(16))
        frozen = state.stored.copy()
        for _ in range(100):
            state = skip_intervention_step(
                state, rng.standard_normal(16), 1.0, rng
            )
        assert np.array_equal(state.stored, frozen)
        assert state.k == 101

    def test_skip_rate_binomial(self):
        config = EmaConfig(beta=0.99, format=None)
        rng = np.random.default_rng(23)
        state = EmaState.initialize(config, 4)
        state, _ = ema_step(state, np.ones(4))
        n, skipped = 10_000, 0
        for _ in range(n):
            before = state.stored
            state = skip_intervention_step(
                state, rng.standard_normal(4), 0.5, rng
            )
            if np.array_equal(state.stored, before):
                skipped += 1
        sigma = math.sqrt(0.25 / n)
        assert abs(skipped / n - 0.5) < 3 * sigma

    def test_p_out_of_range(self):
        config = EmaConfig(beta=0.99, format=None)
        state = EmaState.initialize(config, 4)
        with pytest.raises(ValueError):
            skip_intervention_step(state, np.ones(4), 1.5, np.random.default_rng(0))


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
