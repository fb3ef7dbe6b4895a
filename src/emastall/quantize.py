"""Tensor-level scaled quantization over a minifloat grid.

Values are quantized in blocks (one block per tensor under per-tensor
scaling). Each block stores integer codes plus one scale. The scale is the
block's absolute maximum: the element equal to it lands exactly on the
format's largest grid point, and a decoded element is
``decode(code) / x_max * scale``. Anchoring on the absmax instead of the
ratio ``absmax / x_max`` keeps requantization exactly idempotent, because
the top of the normalized grid is exactly 1.0 and a dequantize/quantize
round trip reproduces the scale bit for bit.

A 2-d input is a stack of independent rows: blocks run along the last
axis, every row has its own scales, and quantizing the stack equals
quantizing each row in turn.
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

    ``scales[..., b]`` is the absolute maximum of block b (0.0 for an
    all-zero block, which therefore dequantizes to exact zeros). Codes of
    shape ``(dim,)`` or ``(rows, dim)`` have scales of shape ``(n_blocks,)``
    or ``(rows, n_blocks)``. Scales stay at working precision; only the
    codes live on the minifloat grid.
    """

    codes: np.ndarray
    scales: np.ndarray
    format: FpFormat
    scheme: ScalingScheme

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def shape(self) -> tuple:
        return self.codes.shape

    def scales_per_element(self) -> np.ndarray:
        dim = self.codes.shape[-1]
        return np.repeat(self.scales, _layout(self.scheme, dim)[1], axis=-1)

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
            "codes": self.codes.tolist(),
            "scales": self.scales.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QuantizedBlock":
        fmt_field = d["format"]
        fmt = get_format(fmt_field) if isinstance(fmt_field, str) else FpFormat(**fmt_field)
        scheme = ScalingScheme(
            ScalingMode(d["scheme"]["mode"]), d["scheme"]["block_size"]
        )
        codes = np.asarray(d["codes"])
        if codes.ndim not in (1, 2) or codes.size == 0 or codes.dtype.kind not in "iu":
            raise ValueError("codes must be a nonempty 1-d or 2-d integer array")
        if np.any(codes >> fmt.width):
            raise ValueError(f"codes do not fit the {fmt.width}-bit {fmt.name} format")
        codes = codes.astype(np.uint16)
        if np.isnan(_normalized_grid(fmt).decoded.take(codes)).any():
            raise ValueError(f"codes must be {fmt.name} grid points")
        scales = _check_scales(d["scales"], scheme, codes.shape)
        return cls(codes=codes, scales=scales, format=fmt, scheme=scheme)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "QuantizedBlock":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _check_values(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.size == 0:
        raise ValueError("expected a nonempty 1-d array or (rows, dim) array")
    return values


def _check_scales(scales, scheme: ScalingScheme, shape: tuple) -> np.ndarray:
    """Block scales for values of ``shape``: one per block, each finite and
    nonnegative (a negative scale would flip the decoded signs)."""
    scales = np.asarray(scales, dtype=np.float64)
    if scales.shape != shape[:-1] + (len(_layout(scheme, shape[-1])[0]),):
        raise ValueError("one scale per block required")
    if not (np.isfinite(scales).all() and scales.min() >= 0):
        raise ValueError("scales must be nonnegative and finite")
    return scales


@lru_cache(maxsize=None)
def _layout(scheme: ScalingScheme, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """First index and length of each block of a length-dim last axis."""
    starts = scheme.block_starts(dim)
    lengths = np.diff(np.append(starts, dim))
    starts.flags.writeable = lengths.flags.writeable = False
    return starts, lengths


def _broadcast_scales(
    scales: np.ndarray, scheme: ScalingScheme, dim: int
) -> np.ndarray:
    # block scales that broadcast against (..., dim) values; a single block
    # needs no copy
    if scales.shape[-1] == 1:
        return scales
    return np.repeat(scales, _layout(scheme, dim)[1], axis=-1)


def quantize(
    values: np.ndarray,
    fmt: FpFormat,
    scheme: ScalingScheme,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    rng: np.random.Generator | None = None,
) -> QuantizedBlock:
    """Quantize a vector or each row of a (rows, dim) array, recomputing
    each block's scale from its absmax."""
    values = _check_values(values)
    return quantize_with_scales(values, fmt, scheme, _block_absmax(values, scheme),
                                mode, rng)


def _block_absmax(values: np.ndarray, scheme: ScalingScheme) -> np.ndarray:
    """The absmax of each block along the last axis: the scales quantize
    recomputes. An all-zero block keeps absmax 0, so it dequantizes to
    exact zeros even on grids that exclude the zero point."""
    starts = _layout(scheme, values.shape[-1])[0]
    return np.maximum.reduceat(np.abs(values), starts, axis=-1)


def quantize_with_scales(
    values: np.ndarray,
    fmt: FpFormat,
    scheme: ScalingScheme,
    scales: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    rng: np.random.Generator | None = None,
) -> QuantizedBlock:
    """Quantize against externally supplied block scales (frozen anchors).

    Stochastic rounding draws ``rng.random(values.shape)``; any object with
    that method serves as the stream.
    """
    values = _check_values(values)
    scales = _check_scales(scales, scheme, values.shape)
    if not np.isfinite(values).all():
        raise ValueError("cannot quantize non-finite values")
    return _quantize_unchecked(values, fmt, scheme, scales, mode, rng)


def _quantize_unchecked(
    values: np.ndarray,
    fmt: FpFormat,
    scheme: ScalingScheme,
    scales: np.ndarray,
    mode: RoundingMode,
    rng: np.random.Generator | None,
) -> QuantizedBlock:
    """``quantize_with_scales`` without its checks, for callers that have
    validated once: values finite float64 of shape ``(dim,)`` or
    ``(rows, dim)``, scales nonnegative float64 with one per block."""
    rep = _broadcast_scales(scales, scheme, values.shape[-1])
    if scales.min() > 0:
        w = values / rep
    else:
        w = np.divide(values, rep, out=np.zeros_like(values), where=rep > 0)
    codes = _normalized_grid(fmt).encode(w, mode, rng)
    return QuantizedBlock(codes=codes, scales=scales, format=fmt, scheme=scheme)


def dequantize(q: QuantizedBlock) -> np.ndarray:
    """Exact read of the stored state; no new rounding on the grid."""
    vals = _normalized_grid(q.format).decoded.take(q.codes)
    vals *= _broadcast_scales(q.scales, q.scheme, q.codes.shape[-1])
    return vals


def stalled_mask(
    prev: QuantizedBlock, next: QuantizedBlock, include_scale: bool = True
) -> np.ndarray:
    """Per-element flags: stored state unchanged between two snapshots.

    With include_scale, an element counts as stalled only if its code and
    its block's scale are both unchanged (the decoded value moved whenever
    either changed). Code-only comparison (include_scale=False) matches the
    stored-bit-pattern convention used by the stall statistics.
    """
    if prev.codes.shape != next.codes.shape:
        raise ValueError("shape mismatch")
    if prev.format != next.format or prev.scheme != next.scheme:
        raise ValueError("format/scheme mismatch")
    mask = prev.codes == next.codes
    if include_scale:
        dim = prev.codes.shape[-1]
        same = prev.scales == next.scales
        mask = mask & _broadcast_scales(same, prev.scheme, dim)
    return mask


def stalled_fraction(
    prev: QuantizedBlock, next: QuantizedBlock, include_scale: bool = True
) -> float:
    return float(np.mean(stalled_mask(prev, next, include_scale)))
