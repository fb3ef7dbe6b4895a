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

Each step of a write (``_block_absmax``, ``_broadcast_scales``,
``_scaled``, ``RoundingGrid.encode``, ``_decode``) is defined once, and
every write runs them in that order, on one path:
``quantize_with_scales`` and ``dequantize`` on fresh arrays, the engine's
in-place store on its own buffers, passed as ``out``.
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
    RoundingGrid,
    RoundingMode,
    _check_int,
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
        if not isinstance(self.mode, ScalingMode):
            raise ValueError(f"mode must be a ScalingMode, got {self.mode!r}")
        _check_int("block_size", self.block_size, 1)

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
        rep = _broadcast_scales(self.scales, _layout(self.scheme, self.shape[-1])[1])
        return np.broadcast_to(rep, self.shape).copy()

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
def _layout(scheme: ScalingScheme, dim: int) -> tuple[np.ndarray, np.ndarray | None]:
    """First index of each block of a length-dim last axis, and each
    element's block (None for one block, whose scale broadcasts as it is)."""
    starts = scheme.block_starts(dim)
    starts.flags.writeable = False
    if len(starts) == 1:
        return starts, None
    block_of = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, dim)))
    block_of.flags.writeable = False
    return starts, block_of


def _take(table: np.ndarray, idx: np.ndarray, out: np.ndarray | None, axis=None):
    # a take into out buffers it unless the mode skips the bounds check;
    # only the store passes out, and its indices are valid by construction
    return table.take(idx, axis=axis, out=out, mode="raise" if out is None else "clip")


def _block_absmax(values: np.ndarray, starts: np.ndarray, out=None) -> np.ndarray:
    """The absmax of each block along the last axis (|values| go to out):
    the scales quantize recomputes. An all-zero block keeps absmax 0, so it
    dequantizes to exact zeros even on grids that exclude the zero point."""
    return np.maximum.reduceat(np.abs(values, out=out), starts, axis=-1)


def _broadcast_scales(scales: np.ndarray, block_of, out=None) -> np.ndarray:
    """Block scales that broadcast against (..., dim) values: a single
    block's as they are, several gathered per element."""
    if block_of is None:
        return scales
    return _take(scales, block_of, out, axis=-1)


def _scaled(values: np.ndarray, rep: np.ndarray, positive: bool, out=None) -> np.ndarray:
    """values on the grid's unit under the broadcast scales rep; unless
    every scale is positive, a zero-scale block maps to zeros."""
    if positive:
        return np.divide(values, rep, out=out)
    out = np.empty_like(values) if out is None else out
    out.fill(0.0)
    return np.divide(values, rep, out=out, where=rep > 0)


def _decode(grid: RoundingGrid, codes: np.ndarray, rep: np.ndarray, out=None):
    """The exact values of codes under the broadcast scales rep."""
    vals = _take(grid.decoded, codes, out)
    vals *= rep
    return vals


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
    scales = _block_absmax(values, _layout(scheme, values.shape[-1])[0])
    return quantize_with_scales(values, fmt, scheme, scales, mode, rng)


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
    that method serves as the stream, and it may return the draws in
    another shape of the same size, or one draw per group of consecutive
    rows (see ``RoundingGrid.stochastic_idx``).
    """
    # a string here would round stochastically: the kernel tests the mode
    # by identity
    if not isinstance(mode, RoundingMode):
        raise ValueError(f"mode must be a RoundingMode, got {mode!r}")
    values = _check_values(values)
    scales = _check_scales(scales, scheme, values.shape)
    if not np.isfinite(values).all():
        raise ValueError("cannot quantize non-finite values")
    rep = _broadcast_scales(scales, _layout(scheme, values.shape[-1])[1])
    w = _scaled(values, rep, scales.min() > 0)
    n_nearest = len(w) if mode is RoundingMode.NEAREST_EVEN else 0
    codes = _normalized_grid(fmt).encode(w, n_nearest, rng)
    return QuantizedBlock(codes=codes, scales=scales, format=fmt, scheme=scheme)


def dequantize(q: QuantizedBlock) -> np.ndarray:
    """Exact read of the stored state; no new rounding on the grid."""
    # the gather would read a hand-built block's extra scales silently
    scales = _check_scales(q.scales, q.scheme, q.codes.shape)
    rep = _broadcast_scales(scales, _layout(q.scheme, q.codes.shape[-1])[1])
    return _decode(_normalized_grid(q.format), q.codes, rep)
