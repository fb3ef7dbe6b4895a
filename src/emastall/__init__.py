"""Stalling analysis for low-precision EMA optimizer states.

Minifloat emulation, scaled tensor quantization, closed-form stall
predictors, a quantized-EMA engine with reset policies, and Monte Carlo
experiment drivers.

The engine names are looked up in ``emastall.engine``, which loads on the
first access to one of them, so a process that only runs the predictors
never imports the engine.
"""

from .formats import (
    BF16,
    FP4_E2M1,
    FP4_E2M2U,
    FP8_E4M3,
    FpFormat,
    GridValue,
    PRESETS,
    RoundingMode,
    decode,
    get_format,
    round_nearest,
    round_stochastic,
    ulp_at,
)
# binds the function over the submodule of the same name; the submodule is
# loaded here, so a later import of it (by the engine) leaves this binding
from .quantize import (
    QuantizedBlock,
    ScalingMode,
    ScalingScheme,
    dequantize,
    quantize,
)
from .theory import (
    TheoryInputs,
    ThresholdUnreachableError,
    avg_excess_staleness,
    chi2_1_cdf,
    chi2_1_inv,
    effective_decay,
    p_init_model,
    p_stall_nr_ss,
    p_stall_nr_transient,
    p_stall_sr_ss,
    remaining_error_E,
    reset_period_Kstar,
    startup_window,
)

_ENGINE_NAMES = (
    "AdamHyper",
    "EmaConfig",
    "EmaState",
    "ResetKind",
    "ResetPolicy",
    "StallTrace",
    "ema_step",
)


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ENGINE_NAMES})


__version__ = "0.1.0"
