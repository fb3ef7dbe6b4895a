"""The scalar rounding path against the vector kernel.

``round_nearest``/``round_stochastic`` take their input as a Python float,
run ``bisect`` over the kernel's boundary tables and draw one
``rng.random()``. Every format is at most 16 bits wide, so the check is
exhaustive: every code, every midpoint, the one-ulp neighbours of each, and
the signed zeros and the smallest subnormal double, in both modes. Codes
and decoded values must equal the vector kernel's (``==`` on the bit
patterns), and each stochastic call must advance the stream by exactly the
one draw the kernel makes.
"""

import math

import numpy as np
import pytest

from emastall.formats import (
    PRESETS,
    FpFormat,
    decode_array,
    grid_values,
    round_nearest,
    round_nearest_array,
    round_stochastic,
    round_stochastic_array,
)

CUSTOM = [
    FpFormat("e3m2_nosub", 1, 3, 2, 3, has_subnormals=False),
    FpFormat("e5m10", 1, 5, 10, 15),
    FpFormat("e3m2u_nozero", 0, 3, 2, 3, exclude_zero=True),
]
FORMATS = list(PRESETS.values()) + CUSTOM
NOSAT = FpFormat("e2m2u_nosat", 0, 2, 2, 1, saturate_on_overflow=False,
                 exclude_zero=True)


def probes(fmt: FpFormat) -> list:
    """Every code's value and every midpoint, each with its one-ulp
    neighbours, of both signs, plus 0.0, -0.0 and 5e-324."""
    values = grid_values(fmt)
    points = np.concatenate([values, (values[:-1] + values[1:]) / 2.0])
    mags = np.concatenate([
        points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf)
    ])
    return np.concatenate([mags, -mags, [0.0, -0.0, 5e-324]]).tolist()


def bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class CountingRng:
    """A Generator that records the arguments of every ``random`` call."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.calls = []

    def random(self, *args):
        self.calls.append(args)
        return self.rng.random(*args)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_round_nearest_scalar_equals_vector(fmt):
    x = probes(fmt)
    codes = round_nearest_array(fmt, np.array(x))
    got = [round_nearest(fmt, v) for v in x]
    assert [g.code for g in got] == codes.tolist()
    assert bits([g.value for g in got]) == bits(decode_array(fmt, codes))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_round_stochastic_scalar_equals_vector(fmt):
    x = probes(fmt)
    rng = CountingRng(np.random.default_rng(17))
    got = [round_stochastic(fmt, v, rng) for v in x]
    # one draw of one double per call, the draw rng.random((1,)) makes
    assert rng.calls == [()] * len(x)
    vector_rng = np.random.default_rng(17)
    codes = round_stochastic_array(fmt, np.array(x), vector_rng)
    assert [g.code for g in got] == codes.tolist()
    assert bits([g.value for g in got]) == bits(decode_array(fmt, codes))
    assert rng.rng.bit_generator.state == vector_rng.bit_generator.state


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
