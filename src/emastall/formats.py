"""Software emulation of parametric minifloat formats.

A format is described by its bit fields (sign/exponent/mantissa), an exponent
bias, and a few behavioral flags. All representable values of a format fit
exactly in float64, so the emulation is exact: grids are enumerated once per
format and cached. Rounding finds a magnitude's rank among the grid's
decision boundaries with a bucket table indexed by the top bits of its
float64 bit pattern (``_BucketRank``): one gather and one compare per
element, with the same result as a binary search over the sorted grid.

Codes are plain unsigned bit patterns laid out as [sign | exponent | mantissa].
"""

from __future__ import annotations

import dataclasses
import numbers
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


class RoundingMode(Enum):
    NEAREST_EVEN = "nr"
    STOCHASTIC = "sr"


class GridValue(NamedTuple):
    """One grid point: its bit pattern and its exact decoded value."""

    code: int
    value: float


@dataclasses.dataclass(frozen=True)
class FpFormat:
    """Parametric minifloat description.

    ``exclude_zero`` removes the zero code from the grid; magnitudes below the
    smallest representable value then round to ``s_min`` instead of zero.
    There are no NaN/Inf codes: every bit pattern is a finite value, and
    overflow saturates to ``x_max`` when ``saturate_on_overflow`` is set.
    """

    name: str
    sign_bits: int
    exp_bits: int
    mant_bits: int
    bias: int
    has_subnormals: bool = True
    saturate_on_overflow: bool = True
    exclude_zero: bool = False

    def __post_init__(self) -> None:
        if self.sign_bits not in (0, 1):
            raise ValueError("sign_bits must be 0 or 1")
        if self.exp_bits < 1:
            raise ValueError("exp_bits must be >= 1")
        if self.mant_bits < 0:
            raise ValueError("mant_bits must be >= 0")
        if self.width > 16:
            raise ValueError("total width must be <= 16 bits")

    @property
    def width(self) -> int:
        return self.sign_bits + self.exp_bits + self.mant_bits

    @property
    def epsilon(self) -> float:
        """Relative grid spacing parameter, 2**-mant_bits."""
        return 2.0 ** (-self.mant_bits)

    @property
    def x_max(self) -> float:
        """Largest finite representable magnitude."""
        return float(_table(self).mag_values[-1])

    @property
    def s_min(self) -> float:
        """Smallest positive representable value."""
        t = _table(self)
        i = 1 if t.mag_values[0] == 0.0 else 0
        return float(t.mag_values[i])


# Presets. FP4 biases are not standardized; all FP4 use here is scale-relative,
# so the bias only fixes the grid's nominal range.
BF16 = FpFormat("bf16", 1, 8, 7, 127)
FP8_E4M3 = FpFormat("fp8_e4m3", 1, 4, 3, 7)
FP4_E2M1 = FpFormat("fp4_e2m1", 1, 2, 1, 1)
FP4_E2M2U = FpFormat("fp4_e2m2u", 0, 2, 2, 1, exclude_zero=True)

PRESETS = {f.name: f for f in (BF16, FP8_E4M3, FP4_E2M1, FP4_E2M2U)}


def get_format(name: str) -> FpFormat:
    """Look up a preset by its canonical name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown format {name!r}, expected one of {sorted(PRESETS)}"
        ) from None


class _GridTable:
    """Cached per-format grid arrays (positive magnitudes, ascending)."""

    def __init__(self, fmt: FpFormat):
        mb, eb, bias = fmt.mant_bits, fmt.exp_bits, fmt.bias
        code = np.arange(1 << (eb + mb))
        exp_field, mant = code >> mb, code & ((1 << mb) - 1)
        sub = exp_field == 0
        keep = ~sub | np.where(mant == 0, not fmt.exclude_zero, fmt.has_subnormals)
        # subnormals have no implicit bit and share exponent field 1's scale
        sig = np.where(sub, mant, mant + (1 << mb)).astype(np.float64)
        with np.errstate(over="ignore"):
            values = np.ldexp(sig[keep], (np.maximum(exp_field, 1) - bias - mb)[keep])
        if np.isinf(values[-1]):
            raise OverflowError(f"{fmt.name} grid exceeds the float64 range")
        self.mag_values = values
        self.mag_codes = code[keep].astype(np.uint16)
        self.even = self.mag_codes % 2 == 0
        self.is_grid_code = keep
        # grid index of each valid magnitude code
        self.idx_by_code = np.cumsum(keep) - 1


@lru_cache(maxsize=None)
def _table(fmt: FpFormat) -> _GridTable:
    return _GridTable(fmt)


class _BucketRank:
    """Exact ``count(bounds <= x)`` for float64 ``x >= 0`` in O(1).

    For x >= 0 the float64 bit pattern is monotone in x, so its top bits
    ``bits >> shift`` name ordered buckets. ``shift`` is the largest one at
    which no bucket holds two bounds, and ``lut`` stores per bucket the
    count of bounds below the bucket's first double. A magnitude's rank is
    then that count plus one compare against the only bound that can lie
    inside its bucket. Nothing is rounded, so the rank equals
    ``searchsorted(bounds, x, side="right")`` for any strictly ascending
    positive bounds.
    """

    def __init__(self, table: np.ndarray, top: float):
        # table is the bounds plus one NaN pad, which never compares true,
        # so a rank never passes the last bound
        self.table = table
        bits = table[:-1].view(np.int64)
        for shift in range(52, -1, -1):
            if not np.any(np.diff(bits >> shift) == 0):
                break
        else:
            raise ValueError("grid boundaries are not distinct float64 values")
        bottom = table[0] if len(table) > 1 else top
        first = np.float64(bottom).view(np.int64) >> shift
        last = np.float64(top).view(np.int64) >> shift
        starts = (np.arange(first, last + 1) << shift).view(np.float64)
        self.lut = np.searchsorted(table[:-1], starts, side="left")
        self.shift, self.first = shift, first

    def __call__(self, mag: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        bucket = mag.view(np.int64) >> self.shift
        bucket -= self.first
        # clipping sends -0.0 and magnitudes below the first bound to the
        # first bucket, and those above the top to the last one
        rank = self.lut.take(bucket, mode="clip", out=out)
        rank += self.table.take(rank) <= mag
        return rank


class RoundingGrid:
    """One format's grid divided by ``unit``: the rounding kernel and the
    code tables that encode an index and a sign and decode a code.

    The raw grid has unit 1. The quantizer's grid has unit x_max; its points
    are rounded quotients rather than a minifloat lattice. Both rounding
    modes reduce to an exact rank among decision boundaries (see
    ``_BucketRank``), so no binary search runs per element. Magnitudes must
    be float64 and nonnegative; those above the top point round to it.
    """

    def __init__(self, fmt: FpFormat, unit: float):
        t = _table(fmt)
        self.fmt = fmt
        self.codes, self.even = t.mag_codes, t.even
        padded = np.append(t.mag_values / unit, np.nan)
        self.values = values = padded[:-1]
        mids = (values[:-1] + values[1:]) / 2.0
        # a tie at a midpoint goes to the even neighbor: moving the boundary
        # one ulp up makes an exact midpoint round down to an even lower one
        nr_bounds = np.where(t.even[:-1], np.nextafter(mids, np.inf), mids)
        self._nearest = _BucketRank(np.append(nr_bounds, np.nan), values[-1])
        # the lower bracket is the count of points above the bottom one that
        # lie at or below mag; its upper neighbor is the same table's entry,
        # and the NaN pad above the top point makes the top frac NaN, which
        # never rounds up
        self._lower = _BucketRank(padded[1:], values[-1])
        # the gap above each lower bracket, NaN at the top point
        self._gaps = padded[1:] - values
        self.decoded = np.full(1 << fmt.width, np.nan)
        self.decoded[self.codes] = values
        if fmt.sign_bits:
            sign_bit = 1 << (fmt.exp_bits + fmt.mant_bits)
            self.decoded[self.codes | sign_bit] = -values
            # index + len(values) selects the negative code; zero keeps its
            # positive code
            neg = np.where(values > 0, self.codes | sign_bit, self.codes)
            self.signed_codes = np.concatenate([self.codes, neg]).astype(np.uint16)

    def nearest_idx(self, mag: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Grid indices of the nearest points (into out if given)."""
        return self._nearest(mag, out)

    def stochastic_idx(self, mag: np.ndarray, rng, out: np.ndarray | None = None
                       ) -> np.ndarray:
        """Grid indices of stochastically rounded magnitudes (into out if
        given), on ``rng.random(mag.shape)``. The stream may hand back one
        draw per group of consecutive rows instead, as ``(groups, 1, n)``
        (``RowStreams`` shares one draw among a seed's rows); each group's
        rows then round on their group's draw."""
        lo = self._lower(mag, out)
        # below the bottom point (grids without zero) frac is negative and
        # never rounds up
        frac = mag - self.values.take(lo)
        frac /= self._gaps.take(lo)
        # one uniform per element, drawn unconditionally so the stream
        # position depends only on the call shape
        u = rng.random(mag.shape)
        n = u.shape[-1]
        u = u.reshape(-1, 1, n)
        lo += (u < frac.reshape(len(u), -1, n)).reshape(lo.shape)
        return lo

    def magnitude(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The magnitudes the rank kernels take: |x|, or x clamped at 0 for
        unsigned formats, whose nearest point to a negative input is the
        bottom of the grid; written into out if given."""
        return np.abs(x, out=out) if self.fmt.sign_bits else np.maximum(x, 0.0, out=out)

    def signed(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Full codes from the grid indices of x's magnitudes and the signs
        of x; idx is overwritten."""
        if not self.fmt.sign_bits:
            return self.codes.take(idx)
        # an offset by multiplication, skipped when nothing is negative (a
        # second moment): a masked add costs several times more on mixed signs
        negative = x < 0
        if negative.any():
            idx += negative * len(self.values)
        return self.signed_codes.take(idx)

    def encode(self, w: np.ndarray, n_nearest: int, rng, out=None) -> np.ndarray:
        """Full codes of w (its magnitudes go to out): the first n_nearest
        members along the first axis round to nearest, the rest
        stochastically on rng; magnitudes above the top point saturate."""
        return self.encode_magnitudes(w, self.magnitude(w, out=out), n_nearest, rng)

    def encode_magnitudes(self, x: np.ndarray, mag: np.ndarray, n_nearest: int,
                          rng) -> np.ndarray:
        """``encode`` from magnitudes already taken: mag on the grid's unit,
        with the signs of x."""
        if n_nearest == len(mag):
            idx = self.nearest_idx(mag)
        elif rng is None:
            raise ValueError("stochastic rounding requires an rng stream")
        elif n_nearest == 0:
            idx = self.stochastic_idx(mag, rng)
        else:
            # both halves rank into one index buffer
            idx = np.empty(mag.shape, np.intp)
            self.nearest_idx(mag[:n_nearest], idx[:n_nearest])
            self.stochastic_idx(mag[n_nearest:], rng, idx[n_nearest:])
        return self.signed(x, idx)


@lru_cache(maxsize=None)
def _raw_grid(fmt: FpFormat) -> RoundingGrid:
    return RoundingGrid(fmt, 1.0)


@lru_cache(maxsize=None)
def _normalized_grid(fmt: FpFormat) -> RoundingGrid:
    """Grid divided by x_max; the top point is exactly 1.0. Scaled
    quantization always saturates: the block anchor maps to the top point."""
    return RoundingGrid(fmt, fmt.x_max)


def _grid_index(fmt: FpFormat, code: int) -> tuple[int, int]:
    """Sign bit and grid index of a code; ValueError unless it is a grid point."""
    if not 0 <= code < (1 << fmt.width):
        raise ValueError(f"code {code} does not fit in {fmt.width} bits")
    mag_bits = fmt.exp_bits + fmt.mant_bits
    mag = code & ((1 << mag_bits) - 1)
    t = _table(fmt)
    if not t.is_grid_code[mag]:
        raise ValueError(f"code {code} is not a valid {fmt.name} grid point")
    return code >> mag_bits, int(t.idx_by_code[mag])


def decode(fmt: FpFormat, code: int) -> float:
    """Exact value of a grid point.

    Raises ValueError for codes outside the format width, for the zero code
    under exclude_zero, and for subnormal codes when subnormals are disabled.
    """
    sign, i = _grid_index(fmt, code)
    val = float(_table(fmt).mag_values[i])
    return -val if sign else val


def decode_array(fmt: FpFormat, codes: np.ndarray) -> np.ndarray:
    """Vectorized decode; assumes codes came from this module's rounders."""
    return _raw_grid(fmt).decoded.take(codes)


def _round_array(
    fmt: FpFormat, x: np.ndarray, mode: RoundingMode, rng: np.random.Generator | None
) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot round non-finite values")
    grid = _raw_grid(fmt)
    # the only grid that may not saturate
    if not fmt.saturate_on_overflow and np.any(grid.magnitude(x) > grid.values[-1]):
        raise OverflowError(
            f"magnitude exceeds {fmt.name} x_max with saturation disabled")
    # each element is one member; a 0-d x gives a scalar code
    n_nearest = x.size if mode is RoundingMode.NEAREST_EVEN else 0
    return grid.encode(x.reshape(-1), n_nearest, rng).reshape(x.shape)[()]


def _round_scalar(
    fmt: FpFormat, x: float, mode: RoundingMode, rng: np.random.Generator | None
) -> GridValue:
    # the array kernel on a one-element array
    code = int(_round_array(fmt, np.array([x], dtype=np.float64), mode, rng)[0])
    return GridValue(code, float(_raw_grid(fmt).decoded[code]))


def round_nearest(fmt: FpFormat, x: float) -> GridValue:
    """Round to the nearest grid point, ties to even mantissa.

    Magnitudes above x_max saturate (or raise OverflowError when saturation
    is disabled); magnitudes below the smallest grid midpoint map to zero,
    or to s_min when the format excludes zero. Zero results keep the
    canonical positive code.
    """
    return _round_scalar(fmt, x, RoundingMode.NEAREST_EVEN, None)


def round_stochastic(
    fmt: FpFormat, x: float, rng: np.random.Generator
) -> GridValue:
    """Round to a bracketing neighbor with distance-proportional probability.

    Exact grid points are returned unchanged with probability 1. Values
    beyond x_max saturate deterministically. Each call draws
    ``rng.random((1,))``.
    """
    return _round_scalar(fmt, x, RoundingMode.STOCHASTIC, rng)


def round_nearest_array(fmt: FpFormat, x: np.ndarray) -> np.ndarray:
    """Vectorized round_nearest returning full codes."""
    return _round_array(fmt, x, RoundingMode.NEAREST_EVEN, None)


def round_stochastic_array(
    fmt: FpFormat, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized round_stochastic returning full codes."""
    return _round_array(fmt, x, RoundingMode.STOCHASTIC, rng)


def ulp_at(fmt: FpFormat, code: int) -> float:
    """Spacing from this grid point to the next larger magnitude.

    The largest finite code uses the one-sided spacing below it; zero uses
    the spacing up to the first positive point.
    """
    values = _table(fmt).mag_values
    i = min(_grid_index(fmt, code)[1], len(values) - 2)
    return float(values[i + 1] - values[i])


def grid_values(fmt: FpFormat) -> np.ndarray:
    """All positive-magnitude grid values, ascending (copy)."""
    return _table(fmt).mag_values.copy()


def grid_codes(fmt: FpFormat) -> np.ndarray:
    """Magnitude codes parallel to grid_values (copy)."""
    return _table(fmt).mag_codes.copy()
