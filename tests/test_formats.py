"""Minifloat emulation tests against first-principles oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from emastall.formats import (
    BF16,
    FP4_E2M1,
    FP4_E2M2U,
    FP8_E4M3,
    FpFormat,
    PRESETS,
    decode,
    decode_array,
    get_format,
    grid_codes,
    grid_values,
    round_nearest,
    round_nearest_array,
    round_stochastic,
    round_stochastic_array,
    ulp_at,
)

ALL_FORMATS = list(PRESETS.values())
NOSAT = FpFormat("e2m2u_nosat", 0, 2, 2, 1, saturate_on_overflow=False,
                 exclude_zero=True)


def oracle_decode(fmt: FpFormat, code: int) -> Fraction | None:
    """Independent decode from first principles, in exact rational arithmetic.

    Returns None for codes that are not grid points of the format.
    """
    mag_bits = fmt.exp_bits + fmt.mant_bits
    sign = code >> mag_bits if fmt.sign_bits else 0
    mag = code & ((1 << mag_bits) - 1)
    exp_field = mag >> fmt.mant_bits
    mant = mag & ((1 << fmt.mant_bits) - 1)
    if exp_field == 0:
        if mant == 0:
            if fmt.exclude_zero:
                return None
            val = Fraction(0)
        elif not fmt.has_subnormals:
            return None
        else:
            val = Fraction(mant, 1 << fmt.mant_bits) * Fraction(2) ** (1 - fmt.bias)
    else:
        val = (
            (1 + Fraction(mant, 1 << fmt.mant_bits))
            * Fraction(2) ** (exp_field - fmt.bias)
        )
    return -val if sign else val


class TestDecode:
    def test_unit_decode_e2m2u(self):
        # m=1.0 at exp field equal to the bias
        code = (FP4_E2M2U.bias << FP4_E2M2U.mant_bits) | 0
        assert decode(FP4_E2M2U, code) == 1.0

    def test_bf16_decodes_1p5(self):
        gv = round_nearest(BF16, 1.5)
        assert gv.value == 1.5
        assert decode(BF16, gv.code) == 1.5

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_full_code_table_vs_enumeration_oracle(self, fmt):
        for code in range(1 << fmt.width):
            expected = oracle_decode(fmt, code)
            if expected is None:
                with pytest.raises(ValueError):
                    decode(fmt, code)
            else:
                got = decode(fmt, code)
                assert got == float(expected), (fmt.name, code)

    def test_code_width_checked(self):
        with pytest.raises(ValueError):
            decode(FP4_E2M2U, 1 << FP4_E2M2U.width)
        with pytest.raises(ValueError):
            decode(FP4_E2M2U, -1)

    def test_zero_code_rejected_under_exclude_zero(self):
        with pytest.raises(ValueError):
            decode(FP4_E2M2U, 0)

    def test_derived_constants(self):
        assert FP4_E2M2U.x_max == 7.0
        assert FP4_E2M2U.s_min == 0.25
        assert FP4_E2M1.x_max == 6.0
        assert FP4_E2M1.s_min == 0.5
        assert FP8_E4M3.x_max == 480.0
        assert FP8_E4M3.s_min == 2.0**-9
        assert BF16.epsilon == 2.0**-7


class TestRoundNearest:
    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_grid_points_are_fixed_points(self, fmt):
        values = grid_values(fmt)
        codes = round_nearest_array(fmt, values)
        assert codes.tolist() == grid_codes(fmt).tolist()
        assert decode_array(fmt, codes).tolist() == values.tolist()

    @pytest.mark.parametrize(
        "fmt", [FP4_E2M1, FP4_E2M2U, FP8_E4M3], ids=lambda f: f.name
    )
    def test_exhaustive_midpoints_round_to_even(self, fmt):
        values = grid_values(fmt)
        codes = grid_codes(fmt)
        mids = (values[:-1] + values[1:]) / 2.0
        # midpoints of adjacent dyadic grid points are exact in float64
        assert np.array_equal(mids - values[:-1], values[1:] - mids)
        even = np.where(codes[:-1] % 2 == 0, codes[:-1], codes[1:])
        assert round_nearest_array(fmt, mids).tolist() == even.tolist()

    @pytest.mark.parametrize(
        "fmt", [FP4_E2M1, FP4_E2M2U, FP8_E4M3], ids=lambda f: f.name
    )
    def test_exhaustive_just_off_midpoints(self, fmt):
        values = grid_values(fmt)
        codes = grid_codes(fmt)
        mids = (values[:-1] + values[1:]) / 2.0
        above = round_nearest_array(fmt, np.nextafter(mids, np.inf))
        below = round_nearest_array(fmt, np.nextafter(mids, -np.inf))
        assert above.tolist() == codes[1:].tolist()
        assert below.tolist() == codes[:-1].tolist()

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_halfulp_error_bound(self, fmt):
        rng = np.random.default_rng(7)
        # below s_min an exclude_zero grid clamps, so the bound starts there
        lo = fmt.s_min if fmt.exclude_zero else fmt.s_min / 4.0
        x = np.exp(rng.uniform(np.log(lo), np.log(fmt.x_max), 4000))
        if fmt.sign_bits:
            x *= rng.choice([-1.0, 1.0], size=len(x))
        codes = round_nearest_array(fmt, x)
        for xi, c in zip(x, codes):
            gv = decode(fmt, int(c))
            assert abs(gv - xi) <= ulp_at(fmt, int(c)) / 2.0 * (1 + 1e-12)

    def test_saturation_and_overflow(self):
        assert round_nearest(FP4_E2M2U, 1e9).value == 7.0
        assert round_nearest(FP4_E2M1, -1e9).value == -6.0
        with pytest.raises(OverflowError):
            round_nearest(NOSAT, 100.0)

    def test_below_grid_maps_to_zero_or_smin(self):
        assert round_nearest(FP4_E2M1, 1e-9).value == 0.0
        assert round_nearest(FP4_E2M2U, 1e-9).value == 0.25
        assert round_nearest(FP4_E2M2U, 0.0).value == 0.25

    def test_unsigned_clamps_negative(self):
        assert round_nearest(FP4_E2M2U, -3.0).value == 0.25

    def test_binade_shift_equivariance(self):
        # holds in the normal range only; subnormal spacing does not scale
        rng = np.random.default_rng(11)
        for fmt in (BF16, FP8_E4M3, FP4_E2M1):
            min_normal = 2.0 ** (1 - fmt.bias)
            x = np.exp(rng.uniform(np.log(min_normal), np.log(fmt.x_max / 2), 500))
            a = np.array([round_nearest(fmt, float(v)).value for v in x])
            b = np.array([round_nearest(fmt, float(2 * v)).value for v in x])
            assert np.array_equal(2 * a, b)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            round_nearest(BF16, math.inf)
        with pytest.raises(ValueError):
            round_nearest(BF16, math.nan)


class TestRoundStochastic:
    def test_grid_points_returned_with_probability_one(self):
        # 20 draws per point, in the order 20 scalar calls per point draw
        rng = np.random.default_rng(3)
        for fmt in ALL_FORMATS:
            values = np.repeat(grid_values(fmt)[::3], 20)
            codes = round_stochastic_array(fmt, values, rng)
            assert decode_array(fmt, codes).tolist() == values.tolist()

    def test_midpoint_splits_half_half(self):
        rng = np.random.default_rng(5)
        n = 100_000
        x = np.full(n, 1.125)  # midpoint of 1.0 and 1.25 on the E2M2u grid
        codes = round_stochastic_array(FP4_E2M2U, x, rng)
        p_up = np.mean(codes == round_nearest(FP4_E2M2U, 1.25).code)
        sigma = math.sqrt(0.25 / n)
        assert abs(p_up - 0.5) < 3 * sigma

    def test_unbiasedness_monte_carlo(self):
        # fixed x between E2M2u neighbors 1.25 and 1.5
        rng = np.random.default_rng(9)
        x_val = 1.31
        n = 100_000
        codes = round_stochastic_array(FP4_E2M2U, np.full(n, x_val), rng)
        vals = np.array([decode(FP4_E2M2U, int(c)) for c in np.unique(codes)])
        assert set(np.unique(codes)) <= {
            round_nearest(FP4_E2M2U, 1.25).code,
            round_nearest(FP4_E2M2U, 1.5).code,
        }
        decoded = np.where(codes == round_nearest(FP4_E2M2U, 1.5).code, 1.5, 1.25)
        gap = 0.25
        p = (x_val - 1.25) / gap
        sigma = gap * math.sqrt(p * (1 - p) / n)
        assert abs(decoded.mean() - x_val) < 3 * sigma
        assert len(vals) == 2

    def test_support_is_bracketing_pair(self):
        rng = np.random.default_rng(13)
        for fmt in ALL_FORMATS:
            values = grid_values(fmt)
            x = np.exp(rng.uniform(np.log(fmt.s_min), np.log(fmt.x_max), 2000))
            codes = round_stochastic_array(fmt, x, rng)
            for xi, c in zip(x, codes):
                v = abs(decode(fmt, int(c)))
                i = np.searchsorted(values, xi)
                neighbors = {values[max(0, i - 1)], values[min(len(values) - 1, i)]}
                assert v in neighbors

    def test_requires_rng_argument(self):
        rng = np.random.default_rng(0)
        gv = round_stochastic(FP4_E2M1, 0.7, rng)
        assert gv.value in (0.5, 1.0)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_each_call_draws_what_one_element_array_draws(self, fmt):
        # a grid point, points between neighbours of both signs and a
        # saturating magnitude; each call advances the stream by
        # rng.random((1,)) and rounds as the array kernel does
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        for x in (1.0, 0.7, -1.3, 1e9):
            gv = round_stochastic(fmt, x, rng)
            code = round_stochastic_array(fmt, np.array([x]), ref)[0]
            assert rng.bit_generator.state == ref.bit_generator.state
            assert gv == (code, decode(fmt, int(code)))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_scalar_rejects_non_finite(x):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        round_nearest(PRESETS["bf16"], x)
    with pytest.raises(ValueError):
        round_stochastic(PRESETS["bf16"], x, rng)


def test_scalar_overflow_without_saturation_raises():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    top = NOSAT.x_max
    assert round_nearest(NOSAT, top).value == top
    with pytest.raises(OverflowError):
        round_nearest(NOSAT, math.nextafter(top, math.inf))
    with pytest.raises(OverflowError):
        round_stochastic(NOSAT, 100.0, rng)
    assert rng.bit_generator.state == state  # raised before drawing


def test_scalar_clamps_unsigned_and_keeps_positive_zero():
    u = PRESETS["fp4_e2m2u"]
    assert round_nearest(u, -3.0) == round_nearest(u, 0.0)
    assert round_nearest(u, -3.0).value == u.s_min
    zero = round_nearest(PRESETS["bf16"], -1e-300)
    assert zero.code == 0 and math.copysign(1.0, zero.value) == 1.0
    rng = np.random.default_rng(2)
    assert round_stochastic(PRESETS["fp4_e2m1"], -0.0, rng).code == 0


class TestUlp:
    def test_bf16_ulp_at_one(self):
        code = round_nearest(BF16, 1.0).code
        assert ulp_at(BF16, code) == 2.0**-7

    def test_binade_doubling_fp8(self):
        c1 = round_nearest(FP8_E4M3, 1.25).code
        c2 = round_nearest(FP8_E4M3, 2.5).code
        assert ulp_at(FP8_E4M3, c2) == 2 * ulp_at(FP8_E4M3, c1)

    def test_e2m2_spacings_vs_sorted_grid_diffs(self):
        values = grid_values(FP4_E2M2U)
        codes = grid_codes(FP4_E2M2U)
        diffs = np.diff(values)
        for i in range(len(values) - 1):
            assert ulp_at(FP4_E2M2U, int(codes[i])) == diffs[i]
        # top code documents the one-sided convention
        assert ulp_at(FP4_E2M2U, int(codes[-1])) == diffs[-1]

    def test_invalid_code(self):
        with pytest.raises(ValueError):
            ulp_at(FP4_E2M2U, 0)


class TestPresets:
    def test_registry_names(self):
        for name in ("bf16", "fp8_e4m3", "fp4_e2m1", "fp4_e2m2u"):
            assert get_format(name).name == name
        with pytest.raises(KeyError):
            get_format("fp6")

    def test_bit_layout(self):
        assert (BF16.sign_bits, BF16.exp_bits, BF16.mant_bits, BF16.bias) == (1, 8, 7, 127)
        assert (FP8_E4M3.sign_bits, FP8_E4M3.exp_bits, FP8_E4M3.mant_bits,
                FP8_E4M3.bias) == (1, 4, 3, 7)
        assert (FP4_E2M1.sign_bits, FP4_E2M1.exp_bits, FP4_E2M1.mant_bits,
                FP4_E2M1.bias) == (1, 2, 1, 1)
        assert (FP4_E2M2U.sign_bits, FP4_E2M2U.exp_bits, FP4_E2M2U.mant_bits,
                FP4_E2M2U.bias) == (0, 2, 2, 1)

    def test_width_cap(self):
        with pytest.raises(ValueError):
            FpFormat("too_wide", 1, 8, 10, 127)

    def test_negative_values_round_trip_through_sign_bit(self):
        gv = round_nearest(FP4_E2M1, -1.5)
        assert gv.value == -1.5
        assert decode(FP4_E2M1, gv.code) == -1.5
