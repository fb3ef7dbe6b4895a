"""Reference rounding kernel and grid enumeration for equivalence tests.

``OracleGrid`` is the binary-search (``np.searchsorted``) rounding kernel
that ``emastall.formats.RoundingGrid`` replaced, and ``oracle_grid`` is the
per-code enumeration loop that ``_GridTable`` replaced. Both are kept
verbatim: the current implementation must return the same indices (and
leave an rng at the same stream position) and build bit-identical grids.
"""

from __future__ import annotations

import math

import numpy as np

from emastall.formats import FpFormat


def oracle_grid(fmt: FpFormat) -> tuple[np.ndarray, np.ndarray]:
    """Positive magnitudes (ascending) and their codes, one code at a time."""
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
    return np.asarray(values, dtype=np.float64), np.asarray(codes, dtype=np.uint16)


class OracleGrid:
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
