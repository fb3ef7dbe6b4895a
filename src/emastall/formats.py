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
import math
from bisect import bisect_right
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np


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

    def __call__(self, mag: np.ndarray) -> np.ndarray:
        bucket = mag.view(np.int64) >> self.shift
        bucket -= self.first
        # clipping sends -0.0 and magnitudes below the first bound to the
        # first bucket, and those above the top to the last one
        rank = self.lut.take(bucket, mode="clip")
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

    def __init__(self, fmt: FpFormat, unit: float, saturate: bool):
        t = _table(fmt)
        self.fmt, self.saturate = fmt, saturate
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
        self.decoded = np.full(1 << fmt.width, np.nan)
        self.decoded[self.codes] = values
        if fmt.sign_bits:
            sign_bit = 1 << (fmt.exp_bits + fmt.mant_bits)
            self.decoded[self.codes | sign_bit] = -values
            # index + len(values) selects the negative code; zero keeps its
            # positive code
            neg = np.where(values > 0, self.codes | sign_bit, self.codes)
            self.signed_codes = np.concatenate([self.codes, neg]).astype(np.uint16)

    def nearest_idx(self, mag: np.ndarray) -> np.ndarray:
        return self._nearest(mag)

    def stochastic_idx(self, mag: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        lo = self._lower(mag)
        v_lo = self.values.take(lo)
        gap = self._lower.table.take(lo)
        gap -= v_lo
        # below the bottom point (grids without zero) frac is negative and
        # never rounds up
        frac = mag - v_lo
        frac /= gap
        # one uniform per element, drawn unconditionally so the stream
        # position depends only on the call shape
        lo += rng.random(mag.shape) < frac
        return lo

    def encode(
        self, x: np.ndarray, mode: RoundingMode, rng: np.random.Generator | None
    ) -> np.ndarray:
        """Full codes of x: magnitude, overflow policy, rounding, sign."""
        x = np.asarray(x, dtype=np.float64)
        # for unsigned formats the nearest point to a negative input is the
        # bottom of the grid, so clamp rather than reflect
        mag = np.abs(x) if self.fmt.sign_bits else np.maximum(x, 0.0)
        if not self.saturate and np.any(mag > self.values[-1]):
            raise OverflowError(
                f"magnitude exceeds {self.fmt.name} x_max with saturation disabled"
            )
        if mode is RoundingMode.NEAREST_EVEN:
            idx = self.nearest_idx(mag)
        elif rng is None:
            raise ValueError("stochastic rounding requires an rng stream")
        else:
            idx = self.stochastic_idx(mag, rng)
        if not self.fmt.sign_bits:
            return self.codes.take(idx)
        np.add(idx, len(self.values), out=idx, where=x < 0)
        return self.signed_codes.take(idx)

    @cached_property
    def _scalar_tables(self) -> tuple:
        # the rank tables' bounds, NaN pad included, the points, full codes
        # by index and decoded values by code, as Python lists
        codes = self.signed_codes if self.fmt.sign_bits else self.codes
        return (self._nearest.table.tolist(), self._lower.table.tolist(),
                self.values.tolist(), codes.tolist(), self.decoded.tolist())

    def encode_scalar(
        self, x: float, mode: RoundingMode, rng: np.random.Generator | None
    ) -> GridValue:
        """``encode`` of one Python float, with the decoded value.

        The ranks come from ``bisect`` over the same boundary tables and the
        float operations are the same, so the code is the one ``encode``
        returns. Stochastic rounding draws ``rng.random()``, which advances
        the stream exactly as ``rng.random((1,))`` does.
        """
        if not math.isfinite(x):
            raise ValueError("cannot round non-finite values")
        nearest, upper, values, codes, decoded = self._scalar_tables
        mag = abs(x) if self.fmt.sign_bits else max(x, 0.0)
        if not self.saturate and mag > values[-1]:
            raise OverflowError(
                f"magnitude exceeds {self.fmt.name} x_max with saturation disabled"
            )
        # a rank is the count of bounds at or below mag, the pad excluded
        if mode is RoundingMode.NEAREST_EVEN:
            idx = bisect_right(nearest, mag, 0, len(nearest) - 1)
        elif rng is None:
            raise ValueError("stochastic rounding requires an rng stream")
        else:
            # upper[idx] is the point above values[idx]; NaN at the top
            idx = bisect_right(upper, mag, 0, len(upper) - 1)
            v_lo = values[idx]
            idx += rng.random() < (mag - v_lo) / (upper[idx] - v_lo)
        if x < 0 and self.fmt.sign_bits:
            idx += len(values)
        code = codes[idx]
        return GridValue(code, decoded[code])


@lru_cache(maxsize=None)
def _raw_grid(fmt: FpFormat) -> RoundingGrid:
    return RoundingGrid(fmt, 1.0, fmt.saturate_on_overflow)


@lru_cache(maxsize=None)
def _normalized_grid(fmt: FpFormat) -> RoundingGrid:
    """Grid divided by x_max; the top point is exactly 1.0. Scaled
    quantization always saturates: the block anchor maps to the top point."""
    return RoundingGrid(fmt, fmt.x_max, True)


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
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot round non-finite values")
    return _raw_grid(fmt).encode(x, mode, rng)


def round_nearest(fmt: FpFormat, x: float) -> GridValue:
    """Round to the nearest grid point, ties to even mantissa.

    Magnitudes above x_max saturate (or raise OverflowError when saturation
    is disabled); magnitudes below the smallest grid midpoint map to zero,
    or to s_min when the format excludes zero. Zero results keep the
    canonical positive code.
    """
    return _raw_grid(fmt).encode_scalar(float(x), RoundingMode.NEAREST_EVEN, None)


def round_stochastic(
    fmt: FpFormat, x: float, rng: np.random.Generator
) -> GridValue:
    """Round to a bracketing neighbor with distance-proportional probability.

    Exact grid points are returned unchanged with probability 1. Values
    beyond x_max saturate deterministically.
    """
    return _raw_grid(fmt).encode_scalar(float(x), RoundingMode.STOCHASTIC, rng)


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
