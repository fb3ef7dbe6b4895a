"""Tensor-level scaled quantization over a minifloat grid.

Values are quantized in blocks (one block per tensor under per-tensor
scaling). Each block stores integer codes plus one scale. The scale is the
block's absolute maximum: the element equal to it lands exactly on the
format's largest grid point, and a decoded element is
``decode(code) / x_max * scale``. Anchoring on the absmax instead of the
ratio ``absmax / x_max`` keeps requantization exactly idempotent, because
the top of the normalized grid is exactly 1.0 and a dequantize/quantize
round trip reproduces the scale bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

from .formats import (
    FpFormat,
    PRESETS,
    RoundingMode,
    _normalized_grid,
    _table,
    get_format,
)


class ScalingMode(Enum):
    PER_TENSOR = "per_tensor"
    BLOCKWISE = "blockwise"


@dataclasses.dataclass(frozen=True)
class ScalingScheme:
    mode: ScalingMode = ScalingMode.PER_TENSOR
    block_size: int = 128

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")

    def block_starts(self, n: int) -> np.ndarray:
        if self.mode is ScalingMode.PER_TENSOR:
            return np.asarray([0])
        return np.arange(0, n, self.block_size)

    def n_blocks(self, n: int) -> int:
        return len(self.block_starts(n))


@dataclasses.dataclass
class QuantizedBlock:
    """Quantized tensor: codes plus one scale per block.

    ``scales[b]`` is the absolute maximum of block b (0.0 for an all-zero
    block, which therefore dequantizes to exact zeros). Scales stay at
    working precision; only the codes live on the minifloat grid.
    """

    codes: np.ndarray
    scales: np.ndarray
    format: FpFormat
    scheme: ScalingScheme

    def __len__(self) -> int:
        return len(self.codes)

    def scales_per_element(self) -> np.ndarray:
        starts = self.scheme.block_starts(len(self.codes))
        lengths = np.diff(np.append(starts, len(self.codes)))
        return np.repeat(self.scales, lengths)

    def to_json_dict(self) -> dict:
        fmt = self.format
        fmt_field = fmt.name if PRESETS.get(fmt.name) == fmt else dataclasses.asdict(fmt)
        return {
            "schema": 1,
            "format": fmt_field,
            "scheme": {
                "mode": self.scheme.mode.value,
                "block_size": self.scheme.block_size,
            },
            "codes": [int(c) for c in self.codes],
            "scales": [float(s) for s in self.scales],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QuantizedBlock":
        fmt_field = d["format"]
        fmt = get_format(fmt_field) if isinstance(fmt_field, str) else FpFormat(**fmt_field)
        scheme = ScalingScheme(
            ScalingMode(d["scheme"]["mode"]), d["scheme"]["block_size"]
        )
        return cls(
            codes=np.asarray(d["codes"], dtype=np.uint16),
            scales=np.asarray(d["scales"], dtype=np.float64),
            format=fmt,
            scheme=scheme,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "QuantizedBlock":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


@lru_cache(maxsize=None)
def _norm_decode_lut(fmt: FpFormat) -> np.ndarray:
    t = _table(fmt)
    return t.decode_lut / t.mag_values[-1]


def _block_absmax(values: np.ndarray, scheme: ScalingScheme) -> np.ndarray:
    # an all-zero block keeps absmax 0, so it dequantizes to exact zeros
    # even on grids that exclude the zero point
    starts = scheme.block_starts(len(values))
    return np.maximum.reduceat(np.abs(values), starts)


def _encode_normalized(
    fmt: FpFormat,
    w: np.ndarray,
    mode: RoundingMode,
    rng: np.random.Generator | None,
) -> np.ndarray:
    grid = _normalized_grid(fmt)
    mag = np.abs(w) if fmt.sign_bits else np.maximum(w, 0.0)
    # scaled quantization always saturates: the anchor maps to the top point
    mag = np.minimum(mag, grid.values[-1])
    if mode is RoundingMode.NEAREST_EVEN:
        idx = grid.nearest_idx(mag)
    else:
        if rng is None:
            raise ValueError("stochastic rounding requires an rng stream")
        idx = grid.stochastic_idx(mag, rng)
    mag_codes = grid.codes[idx]
    if not fmt.sign_bits:
        return mag_codes.astype(np.uint16)
    neg = (w < 0) & (grid.values[idx] != 0.0)
    sign_bit = np.uint16(1 << (fmt.exp_bits + fmt.mant_bits))
    return np.where(neg, mag_codes | sign_bit, mag_codes).astype(np.uint16)


def quantize(
    values: np.ndarray,
    fmt: FpFormat,
    scheme: ScalingScheme,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    rng: np.random.Generator | None = None,
) -> QuantizedBlock:
    """Quantize a vector, recomputing each block's scale from its absmax."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("expected a nonempty 1-d array")
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot quantize non-finite values")
    scales = _block_absmax(values, scheme)
    return quantize_with_scales(values, fmt, scheme, scales, mode, rng)


def quantize_with_scales(
    values: np.ndarray,
    fmt: FpFormat,
    scheme: ScalingScheme,
    scales: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    rng: np.random.Generator | None = None,
) -> QuantizedBlock:
    """Quantize against externally supplied block scales (frozen anchors)."""
    values = np.asarray(values, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    if len(scales) != scheme.n_blocks(len(values)):
        raise ValueError("one scale per block required")
    if np.any(scales < 0):
        raise ValueError("scales must be nonnegative")
    starts = scheme.block_starts(len(values))
    lengths = np.diff(np.append(starts, len(values)))
    rep = np.repeat(scales, lengths)
    w = np.divide(values, rep, out=np.zeros_like(values), where=rep > 0)
    codes = _encode_normalized(fmt, w, mode, rng)
    return QuantizedBlock(codes=codes, scales=scales, format=fmt, scheme=scheme)


def dequantize(q: QuantizedBlock) -> np.ndarray:
    """Exact read of the stored state; no new rounding on the grid."""
    fmt = q.format
    lut = _norm_decode_lut(fmt)
    mag_bits = fmt.exp_bits + fmt.mant_bits
    mag = q.codes & ((1 << mag_bits) - 1)
    vals = lut[mag]
    if fmt.sign_bits:
        vals = np.where(q.codes >> mag_bits, -vals, vals)
    return vals * q.scales_per_element()


def stalled_mask(
    prev: QuantizedBlock, next: QuantizedBlock, include_scale: bool = True
) -> np.ndarray:
    """Per-element flags: stored state unchanged between two snapshots.

    With include_scale, an element counts as stalled only if its code and
    its block's scale are both unchanged (the decoded value moved whenever
    either changed). Code-only comparison (include_scale=False) matches the
    stored-bit-pattern convention used by the stall statistics.
    """
    if len(prev) != len(next):
        raise ValueError("length mismatch")
    if prev.format != next.format or prev.scheme != next.scheme:
        raise ValueError("format/scheme mismatch")
    mask = prev.codes == next.codes
    if include_scale:
        mask = mask & (prev.scales_per_element() == next.scales_per_element())
    return mask


def stalled_fraction(
    prev: QuantizedBlock, next: QuantizedBlock, include_scale: bool = True
) -> float:
    return float(np.mean(stalled_mask(prev, next, include_scale)))
