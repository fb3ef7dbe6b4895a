"""The scalar rounding API against the vector kernel.

``round_nearest``/``round_stochastic`` round one Python float by running the
array kernel on a one-element array, drawing ``rng.random((1,))``. Rounding
each probe on its own must give what one array call over all the probes
gives: the same codes, the same decoded values (``==`` on the bit patterns)
and, for stochastic rounding, the same stream position, one draw per call.
The probes are every code's value and every midpoint, the one-ulp
neighbours of each, both signs, and the signed zeros and the smallest
subnormal double. The 16-bit formats have about 393,000 probes, which at
some 30 microseconds a scalar call would take 12 s a format and mode, so
they are probed at an even stride; ``test_kernel_equivalence.py`` checks
the vector kernel itself on every probe.
"""

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
MAX_PROBES = 4096


def probes(fmt: FpFormat) -> list:
    """Every code's value and every midpoint, each with its one-ulp
    neighbours, of both signs, plus 0.0, -0.0 and 5e-324; at most
    MAX_PROBES of them, at an even stride."""
    values = grid_values(fmt)
    points = np.concatenate([values, (values[:-1] + values[1:]) / 2.0])
    mags = np.concatenate([
        points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf)
    ])
    x = np.concatenate([mags, -mags, [0.0, -0.0, 5e-324]])
    stride = -(-len(x) // MAX_PROBES)
    return x[::stride].tolist()


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
    # one draw of one double per call
    assert rng.calls == [((1,),)] * len(x)
    vector_rng = np.random.default_rng(17)
    codes = round_stochastic_array(fmt, np.array(x), vector_rng)
    assert [g.code for g in got] == codes.tolist()
    assert bits([g.value for g in got]) == bits(decode_array(fmt, codes))
    assert rng.rng.bit_generator.state == vector_rng.bit_generator.state
