"""Software emulation of parametric minifloat formats.

A format is described by its bit fields (sign/exponent/mantissa), an exponent
bias, and a few behavioral flags. All representable values of a format fit
exactly in float64, so the emulation is exact: grids are enumerated once per
format and cached, and rounding is implemented by searching the sorted grid.

Codes are plain unsigned bit patterns laid out as [sign | exponent | mantissa].
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from functools import lru_cache
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

    def valid_code(self, code: int) -> bool:
        if not 0 <= code < (1 << self.width):
            return False
        mag = code & ((1 << (self.exp_bits + self.mant_bits)) - 1)
        return bool(_table(self).decode_lut_valid[mag])


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
        codes: list[int] = []
        values: list[float] = []
        for exp_field in range(1 << eb):
            for mant in range(1 << mb):
                code = (exp_field << mb) | mant
                if exp_field == 0:
                    if mant == 0:
                        if fmt.exclude_zero:
                            continue
                        val = 0.0
                    elif fmt.has_subnormals:
                        val = math.ldexp(mant, 1 - bias - mb)
                    else:
                        continue
                else:
                    val = math.ldexp((1 << mb) + mant, exp_field - bias - mb)
                codes.append(code)
                values.append(val)
        self.mag_values = np.asarray(values, dtype=np.float64)
        self.mag_codes = np.asarray(codes, dtype=np.uint16)
        # midpoints are exact in float64: neighbors share most mantissa bits
        self.mids = (self.mag_values[:-1] + self.mag_values[1:]) / 2.0
        self.even = (self.mag_codes % 2 == 0).astype(bool)
        n_mag_codes = 1 << (eb + mb)
        self.decode_lut = np.full(n_mag_codes, np.nan)
        self.decode_lut[self.mag_codes] = self.mag_values
        self.decode_lut_valid = np.zeros(n_mag_codes, dtype=bool)
        self.decode_lut_valid[self.mag_codes] = True
        self.idx_by_code = np.zeros(n_mag_codes, dtype=np.int64)
        self.idx_by_code[self.mag_codes] = np.arange(len(self.mag_codes))


@lru_cache(maxsize=None)
def _table(fmt: FpFormat) -> _GridTable:
    return _GridTable(fmt)


class RoundingGrid:
    """Rounding kernel over an arbitrary ascending magnitude grid.

    Used with the raw per-format grid and, by the quantizer, with grids
    rescaled to a block anchor. Operates on magnitudes; sign handling and
    overflow policy belong to the caller-facing wrappers below.
    """

    def __init__(self, values: np.ndarray, codes: np.ndarray, even: np.ndarray):
        self.values = values
        self.codes = codes
        self.even = even
        self.mids = (values[:-1] + values[1:]) / 2.0

    def nearest_idx(self, mag: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.mids, mag, side="right")
        # searchsorted sends exact midpoints up; pull back where the lower
        # neighbor is the even-mantissa one
        hit = idx > 0
        if np.any(hit):
            tie = np.zeros_like(hit)
            tie[hit] = mag[hit] == self.mids[idx[hit] - 1]
            fix = tie & self.even[np.minimum(idx - 1, len(self.values) - 1)]
            idx = np.where(fix, idx - 1, idx)
        return idx

    def stochastic_idx(self, mag: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        lo = np.searchsorted(self.values, mag, side="right") - 1
        lo = np.clip(lo, 0, len(self.values) - 1)
        hi = np.minimum(lo + 1, len(self.values) - 1)
        v_lo = self.values[lo]
        v_hi = self.values[hi]
        gap = v_hi - v_lo
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(gap > 0, (mag - v_lo) / gap, 0.0)
        frac = np.clip(frac, 0.0, 1.0)
        # one uniform per element, drawn unconditionally so the stream
        # position depends only on the call shape
        up = rng.random(mag.shape) < frac
        return np.where(up, hi, lo)


@lru_cache(maxsize=None)
def _raw_grid(fmt: FpFormat) -> RoundingGrid:
    t = _table(fmt)
    return RoundingGrid(t.mag_values, t.mag_codes, t.even)


@lru_cache(maxsize=None)
def _normalized_grid(fmt: FpFormat) -> RoundingGrid:
    """Grid divided by x_max; the top point is exactly 1.0."""
    t = _table(fmt)
    return RoundingGrid(t.mag_values / t.mag_values[-1], t.mag_codes, t.even)


def _split_code(fmt: FpFormat, code: int) -> tuple[int, int]:
    if not 0 <= code < (1 << fmt.width):
        raise ValueError(f"code {code} does not fit in {fmt.width} bits")
    mag_bits = fmt.exp_bits + fmt.mant_bits
    sign = code >> mag_bits if fmt.sign_bits else 0
    return sign, code & ((1 << mag_bits) - 1)


def decode(fmt: FpFormat, code: int) -> float:
    """Exact value of a grid point.

    Raises ValueError for codes outside the format width, for the zero code
    under exclude_zero, and for subnormal codes when subnormals are disabled.
    """
    sign, mag = _split_code(fmt, code)
    t = _table(fmt)
    if not t.decode_lut_valid[mag]:
        raise ValueError(f"code {code} is not a valid {fmt.name} grid point")
    val = float(t.decode_lut[mag])
    return -val if sign else val


def decode_array(fmt: FpFormat, codes: np.ndarray) -> np.ndarray:
    """Vectorized decode; assumes codes came from this module's rounders."""
    t = _table(fmt)
    mag_bits = fmt.exp_bits + fmt.mant_bits
    mag = codes & ((1 << mag_bits) - 1)
    vals = t.decode_lut[mag]
    if fmt.sign_bits:
        vals = np.where(codes >> mag_bits, -vals, vals)
    return vals


def _mag_codes_nearest(fmt: FpFormat, mag: np.ndarray) -> np.ndarray:
    grid = _raw_grid(fmt)
    over = mag > grid.values[-1]
    if np.any(over):
        if not fmt.saturate_on_overflow:
            raise OverflowError(
                f"magnitude exceeds {fmt.name} x_max with saturation disabled"
            )
        mag = np.where(over, grid.values[-1], mag)
    return grid.codes[grid.nearest_idx(mag)]


def _as_magnitudes(fmt: FpFormat, x: np.ndarray) -> np.ndarray:
    # for unsigned formats the nearest point to a negative input is the
    # bottom of the grid, so clamp rather than reflect
    if fmt.sign_bits:
        return np.abs(x)
    return np.maximum(x, 0.0)


def round_nearest(fmt: FpFormat, x: float) -> GridValue:
    """Round to the nearest grid point, ties to even mantissa.

    Magnitudes above x_max saturate (or raise OverflowError when saturation
    is disabled); magnitudes below the smallest grid midpoint map to zero,
    or to s_min when the format excludes zero.
    """
    if not math.isfinite(x):
        raise ValueError("cannot round a non-finite value")
    a = _as_magnitudes(fmt, np.asarray([x], dtype=np.float64))
    mag_code = int(_mag_codes_nearest(fmt, a)[0])
    return _with_sign(fmt, mag_code, x)


def round_stochastic(
    fmt: FpFormat, x: float, rng: np.random.Generator
) -> GridValue:
    """Round to a bracketing neighbor with distance-proportional probability.

    Exact grid points are returned unchanged with probability 1. Values
    beyond x_max saturate deterministically.
    """
    if not math.isfinite(x):
        raise ValueError("cannot round a non-finite value")
    a = _as_magnitudes(fmt, np.asarray([x], dtype=np.float64))
    mag_code = int(_mag_codes_stochastic(fmt, a, rng)[0])
    return _with_sign(fmt, mag_code, x)


def _mag_codes_stochastic(
    fmt: FpFormat, mag: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    grid = _raw_grid(fmt)
    over = mag > grid.values[-1]
    if np.any(over):
        if not fmt.saturate_on_overflow:
            raise OverflowError(
                f"magnitude exceeds {fmt.name} x_max with saturation disabled"
            )
        mag = np.where(over, grid.values[-1], mag)
    return grid.codes[grid.stochastic_idx(mag, rng)]


def _with_sign(fmt: FpFormat, mag_code: int, x: float) -> GridValue:
    # zero results keep the canonical positive code
    t = _table(fmt)
    value = float(t.decode_lut[mag_code])
    if fmt.sign_bits and x < 0 and value != 0.0:
        return GridValue(
            (1 << (fmt.exp_bits + fmt.mant_bits)) | mag_code, -value
        )
    return GridValue(mag_code, value)


def round_nearest_array(fmt: FpFormat, x: np.ndarray) -> np.ndarray:
    """Vectorized round_nearest returning full codes."""
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot round non-finite values")
    mag_codes = _mag_codes_nearest(fmt, _as_magnitudes(fmt, x))
    return _apply_sign_codes(fmt, mag_codes, x)


def round_stochastic_array(
    fmt: FpFormat, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized round_stochastic returning full codes."""
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot round non-finite values")
    mag_codes = _mag_codes_stochastic(fmt, _as_magnitudes(fmt, x), rng)
    return _apply_sign_codes(fmt, mag_codes, x)


def _apply_sign_codes(
    fmt: FpFormat, mag_codes: np.ndarray, x: np.ndarray
) -> np.ndarray:
    if not fmt.sign_bits:
        return mag_codes.astype(np.uint16)
    t = _table(fmt)
    neg = (x < 0) & (t.decode_lut[mag_codes] != 0.0)
    sign_bit = np.uint16(1 << (fmt.exp_bits + fmt.mant_bits))
    return np.where(neg, mag_codes | sign_bit, mag_codes).astype(np.uint16)


def ulp_at(fmt: FpFormat, code: int) -> float:
    """Spacing from this grid point to the next larger magnitude.

    The largest finite code uses the one-sided spacing below it; zero uses
    the spacing up to the first positive point.
    """
    sign, mag = _split_code(fmt, code)
    t = _table(fmt)
    if not t.decode_lut_valid[mag]:
        raise ValueError(f"code {code} is not a valid {fmt.name} grid point")
    i = int(t.idx_by_code[mag])
    if i == len(t.mag_values) - 1:
        return float(t.mag_values[i] - t.mag_values[i - 1])
    return float(t.mag_values[i + 1] - t.mag_values[i])


def grid_values(fmt: FpFormat) -> np.ndarray:
    """All positive-magnitude grid values, ascending (copy)."""
    return _table(fmt).mag_values.copy()


def grid_codes(fmt: FpFormat) -> np.ndarray:
    """Magnitude codes parallel to grid_values (copy)."""
    return _table(fmt).mag_codes.copy()
