"""Experiment drivers: stall-curve measurement, skip and reset studies.

Every experiment is a pure function of its config and seed. RNG streams are
derived from explicit integer entropy tuples, so re-running a config
reproduces its outputs bit for bit, and noise streams are shared across the
cells of a study at fixed seed (paired comparisons). Seeds also select the
toy-problem instance, so inter-seed spread reflects instance-to-instance
variation rather than residual sampling noise.

The storage configs of a study or a curve command step in lockstep: each
seed's gradient, target and stream draws are made once per step and shared
by every config, while each config rounds with its own streams, seeded as
the config run alone would seed them. No draw depends on the state, so
every cell and every curve equals its run alone bit for bit.
``run_stall_curves``/``run_first_moment_curves`` return one result per EMA
config. They take each step's signal from the generator ``_signal_rows``,
whose producer thread draws the next chunk of rows while the caller rounds
the current one, and write each config through its own ``(1, 1, dim)``
``engine._Store``, the class that also writes a study's storage groups.

Every study trains a config x cell x seed grid in one fused loop,
``_train_rows``, over one ``(2 * configs, rows, dim)`` stack that holds
both Adam moments, the first-moment configs and then the second-moment
ones: each step runs the gradient of every row, written into the first
half of one signal buffer, one proposal over both moments, each storage
group's quantizer pass (a group is a run of adjacent configs, and may
span both moments), the Adam update, one reset rule over every row and
the tail loss once over the whole stack. ``run_reset_cells`` returns the
grid's losses as one array. The two studies are presets of one driver,
``_study``, which lays the grid out as a long table (label columns, seed,
final_loss), per-cell medians and a JSON config: ``run_reset_study``'s
cells are reset policies and ``run_skip_study``'s are forced-skip rates
on full-precision Adam, whose ``_Skips`` draw each row's uniforms a block
of steps at a time.

A problem is a frozen spec dataclass whose only method is
``make_stack(seeds)``; it returns the seeds' instances as one stack, which
the studies step. A stack has ``init_params()``, the ``(seeds, dim)``
starting points, and, for params of shape ``(configs, seeds, cells, dim)``
with block i belonging to seeds[i], ``grad(params, out=None)``, which
advances every seed one step and returns every row's gradient (written
into out when given), each seed's rows sharing that seed's draws, and
``losses(params)``, every row's loss. Seed s draws its instance from
``[s, _KEY_PROBLEM]`` and its gradient noise from ``[s, _KEY_GRAD]``.
``QuadraticStack`` draws every seed's target and noise vectors for a
block of steps at once and evaluates each step as array expressions;
``LogisticStack`` keeps one matrix-vector product per row.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import queue
import threading
from enum import Enum
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .engine import (
    AdamHyper,
    EmaConfig,
    EmaState,
    ResetPolicy,
    ResetRows,
    RowStreams,
    StallTrace,
    StateStack,
    _QUIET,
    _check_beta,
    _proposal,
    _Store,
    adam_lockstep,
    reset_rows,
)
from .formats import RoundingMode, _check_int, _is_integer, get_format
from .quantize import ScalingMode, ScalingScheme
from .theory import (
    TheoryInputs,
    p_stall_nr_ss,
    p_stall_nr_transient,
    p_stall_sr_ss,
)

SCHEMA_VERSION = 1

# stream sub-keys; gradient, rounding, target and problem draws never share
_KEY_SCALES = 11
_KEY_GRAD = 12
_KEY_ROUND = 13
_KEY_TARGET = 14
_KEY_PROBLEM = 15


@dataclasses.dataclass(frozen=True)
class GradientStreamSpec:
    """Synthetic per-coordinate gradient stream.

    Each coordinate gets its own local scale, drawn once per stream:
    sigma_i = sigma * 2**(U_i * sigma_binades) with U_i uniform. Spreading
    scales over one binade makes stored-state mantissas log-uniform, which
    is the regime the single-scalar spacing model describes. mu is the
    signal mean in units of the local scale, so the per-coordinate SNR is
    uniform. kind "piecewise" rescales everything by a per-segment factor.
    """

    dimension: int
    seed: int
    kind: str = "gaussian_iid"
    mu: float = 0.0
    sigma: float = 1.0
    sigma_binades: float = 1.0
    schedule: tuple = ()

    def __post_init__(self) -> None:
        # a bad value would surface only as non-finite draws (or a stream
        # that flips sign) at the first write, or as numpy's error on a
        # negative seed
        _check_int("seed", self.seed, 0)
        _check_int("dimension", self.dimension, 1)
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")
        if not math.isfinite(self.sigma_binades):
            raise ValueError("sigma_binades must be finite")
        if self.kind not in ("gaussian_iid", "piecewise"):
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.kind == "piecewise" and not self.schedule:
            raise ValueError("piecewise stream needs a schedule")
        for steps, factor in self.schedule:
            if not (_is_integer(steps) and steps >= 1):
                raise ValueError(f"schedule steps must be integers >= 1, got {steps!r}")
            if not (math.isfinite(factor) and factor > 0):
                raise ValueError(
                    f"schedule factors must be positive and finite, got {factor!r}"
                )


class GradientStream:
    def __init__(self, spec: GradientStreamSpec, trial: int = 0):
        self.spec = spec
        scale_rng = np.random.default_rng([spec.seed, trial, _KEY_SCALES])
        u = scale_rng.random(spec.dimension)
        with np.errstate(**_QUIET):
            self.scales = spec.sigma * np.exp2(u * spec.sigma_binades)
        self._rng = np.random.default_rng([spec.seed, trial, _KEY_GRAD])
        self._t = 0

    def _segment(self) -> tuple:
        """(factor, steps it still holds for) at the stream's step."""
        if self.spec.kind != "piecewise":
            return 1.0, math.inf
        t = self._t
        for steps, factor in self.spec.schedule:
            if t < steps:
                return factor, steps - t
            t -= steps
        return self.spec.schedule[-1][1], math.inf

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write the next ``len(out)`` draws into the rows of ``out``, a
        C-contiguous ``(n, dim)`` float64 array, and return it.

        One ``standard_normal`` over the block yields the bits of n
        ``(dim,)`` calls, and ``xi += mu; xi *= factor * scales`` rounds as
        ``factor * scales * (mu + xi)`` does. A factor of 1.0 (every step of
        a ``gaussian_iid`` stream) multiplies by ``scales`` alone, the same
        bits with no temporary. Adding ``mu = 0`` is skipped: it could only
        turn an exact ``-0.0`` draw into ``+0.0``, and an EMA proposal takes
        the same bits from either zero. An overflow leaves a non-finite
        draw, which the first write rejects.
        """
        self._rng.standard_normal(out=out)
        with np.errstate(**_QUIET):
            if self.spec.mu:
                out += self.spec.mu
            row = 0
            while row < len(out):
                factor, left = self._segment()
                stop = int(min(len(out), row + left))
                out[row:stop] *= self.scales if factor == 1.0 else factor * self.scales
                self._t += stop - row
                row = stop
        return out

    def draw(self) -> np.ndarray:
        return self.fill(np.empty((1, self.spec.dimension)))[0]


@dataclasses.dataclass(frozen=True)
class NoisyQuadratic:
    """Diagonal quadratic with multiplicative noise and a drifting optimum.

    The curvature spectrum is drawn log-uniform per seed. The optimum
    performs a random walk, so the gradient scale keeps changing and a
    second moment that cannot track the change leaves the optimizer
    stepping at the wrong size; a frozen quantized state pins the tracking
    error near the scale at which it froze.
    """

    dimension: int = 256
    curvature_min: float = 1e-2
    curvature_max: float = 1.0
    noise_mult: float = 0.5
    target_drift: float = 0.002
    init_offset: float = 3.0

    def __post_init__(self) -> None:
        # a bad value would surface only when a stack is drawn, as numpy's
        # TypeError, a math domain error or "high - low < 0"
        _check_int("dimension", self.dimension, 1)
        if not 0 < self.curvature_min < math.inf:
            raise ValueError(
                f"curvature_min must be positive and finite, got {self.curvature_min!r}")
        if not self.curvature_min <= self.curvature_max < math.inf:
            raise ValueError("curvature_max must be finite and >= curvature_min, "
                             f"got {self.curvature_max!r}")
        for name in ("noise_mult", "target_drift"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not math.isfinite(self.init_offset):
            raise ValueError(f"init_offset must be finite, got {self.init_offset!r}")

    def make_stack(self, seeds: tuple) -> "QuadraticStack":
        return QuadraticStack(self, seeds)


# bytes of one buffer of state-independent study draws: a QuadraticStack
# fills its seeds' target and noise draws, and _Skips its rows' uniforms,
# for as many steps at a time as fit
_BLOCK_BYTES = 1 << 16


def _block_steps(step_bytes: int) -> int:
    return max(1, _BLOCK_BYTES // step_bytes)


class QuadraticStack:
    """The quadratics of a study's seeds, stepped together.

    Parameters and gradients have shape ``(configs, seeds, cells, dim)``
    and losses ``(configs, seeds, cells)``, block i belonging to seeds[i].
    Seed s draws its curvatures from ``[s, _KEY_PROBLEM]``, its target walk
    from ``[s, _KEY_TARGET]`` and its gradient noise from ``[s, _KEY_GRAD]``.
    The draws do not depend on the state, so they come ``block`` steps at a
    time: one ``standard_normal`` per generator fills a seed's target steps
    and one its noise, the bits of ``block`` one-step draws. One cumulative
    sum walks the targets through the block, adding the steps in sequence
    as the step-by-step walk adds them, and one expression turns the noise
    into factors. Every row of a seed shares its draws, and every row's
    gradient and loss comes from one elementwise expression and one
    row-wise sum.
    """

    def __init__(self, problem: NoisyQuadratic, seeds: tuple):
        self.noise_mult, self.drift = problem.noise_mult, problem.target_drift
        self.init_offset = problem.init_offset
        log_range = math.log(problem.curvature_min), math.log(problem.curvature_max)
        # (seeds, 1, dim): broadcast over each seed's cells
        self.curvatures = np.stack([
            np.exp(np.random.default_rng([seed, _KEY_PROBLEM]).uniform(
                *log_range, problem.dimension))
            for seed in seeds
        ])[:, None]
        self.target_rngs = [np.random.default_rng([seed, _KEY_TARGET]) for seed in seeds]
        self.grad_rngs = [np.random.default_rng([seed, _KEY_GRAD]) for seed in seeds]
        dim = problem.dimension
        self.block = _block_steps(len(seeds) * dim * 8)
        # targets[:, j] is the target after step j of the block; column 0
        # carries the target the block starts from
        self._targets = np.zeros((len(seeds), self.block + 1, dim))
        self._factors = np.empty((len(seeds), self.block, dim))
        self._j = self.block
        self.target = self._targets[:, self.block:]

    def init_params(self) -> np.ndarray:
        return np.full(self._targets[:, 0].shape, self.init_offset)

    def _fill(self) -> None:
        # the next block of every seed's target steps and noise factors
        if self.drift:
            self._targets[:, 0] = self._targets[:, -1]
            for rng, rows in zip(self.target_rngs, self._targets):
                rng.standard_normal(out=rows[1:])
            self._targets[:, 1:] *= self.drift
            np.cumsum(self._targets, axis=1, out=self._targets)
        for rng, rows in zip(self.grad_rngs, self._factors):
            rng.standard_normal(out=rows)
        self._factors *= self.noise_mult
        self._factors += 1.0
        self._j = 0

    def grad(self, params: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._j == self.block:
            self._fill()
        j = self._j
        self._j += 1
        self.target = self._targets[:, j + 1:j + 2]
        # curvatures * (params - target) * (1 + noise_mult * noise)
        g = np.subtract(params, self.target, out=out)
        g *= self.curvatures
        g *= self._factors[:, j:j + 1]
        return g

    def losses(self, params: np.ndarray) -> np.ndarray:
        return 0.5 * np.sum(self.curvatures * (params - self.target) ** 2, axis=-1)


@dataclasses.dataclass(frozen=True)
class SynthLogistic:
    """Logistic regression on synthetic data; dataset drawn per seed."""

    n_samples: int = 2048
    dimension: int = 64
    label_noise: float = 0.05
    batch_size: int = 64

    def __post_init__(self) -> None:
        # a bad count would surface as numpy's "high <= 0" or as a
        # non-finite gradient, and a label noise above 1 would run
        for name in ("n_samples", "dimension", "batch_size"):
            _check_int(name, getattr(self, name), 1)
        if not 0 <= self.label_noise <= 1:
            raise ValueError(f"label_noise must be in [0, 1], got {self.label_noise!r}")

    def make_stack(self, seeds: tuple) -> "LogisticStack":
        return LogisticStack(self, seeds)


class LogisticStack:
    """The logistic regressions of a study's seeds, stepped together, with
    the shapes of ``QuadraticStack``.

    Seed s draws its dataset from ``[s, _KEY_PROBLEM]`` and its minibatch
    indices from ``[s, _KEY_GRAD]``, one minibatch per step shared by every
    row of the seed. Each row's gradient is its own matrix-vector products
    (a matrix product over all rows sums in another order) and each row's
    loss its own mean over the dataset.
    """

    def __init__(self, problem: SynthLogistic, seeds: tuple):
        self.batch_size = problem.batch_size
        self.x, self.y = [], []
        for seed in seeds:
            rng = np.random.default_rng([seed, _KEY_PROBLEM])
            x = rng.standard_normal((problem.n_samples, problem.dimension))
            w = rng.standard_normal(problem.dimension) / np.sqrt(problem.dimension)
            y = np.sign(x @ w)
            y[y == 0] = 1.0
            y[rng.random(problem.n_samples) < problem.label_noise] *= -1
            self.x.append(x)
            self.y.append(y)
        self.grad_rngs = [np.random.default_rng([seed, _KEY_GRAD]) for seed in seeds]

    def init_params(self) -> np.ndarray:
        return np.zeros((len(self.x), self.x[0].shape[1]))

    def grad(self, params: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        g = np.empty_like(params) if out is None else out
        for i, (x, y, rng) in enumerate(zip(self.x, self.y, self.grad_rngs)):
            idx = rng.integers(0, len(x), self.batch_size)
            xb, yb = x[idx], y[idx]
            grads = []
            for p in np.reshape(params[:, i], (-1, x.shape[1])):
                s = 1.0 / (1.0 + np.exp(yb * (xb @ p)))
                grads.append(-(yb * s) @ xb / len(idx))
            g[:, i] = np.reshape(grads, g[:, i].shape)
        return g

    def losses(self, params: np.ndarray) -> np.ndarray:
        out = np.empty(params.shape[:-1])
        for c, i, j in np.ndindex(out.shape):
            z = self.y[i] * (self.x[i] @ params[c, i, j])
            out[c, i, j] = np.mean(np.logaddexp(0.0, -z))
        return out


@dataclasses.dataclass
class ExperimentResult:
    """Config snapshot, per-step/long-format series, and summary metrics."""

    config: dict
    series: dict
    metrics: dict
    schema_version: int = SCHEMA_VERSION

    def summary(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "metrics": self.metrics,
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2, sort_keys=True))

    def save_csv(self, path: str | Path) -> None:
        write_csv(path, list(self.series), zip(*self.series.values()))


def _config_dict(obj):
    # dataclasses and dicts as dicts, enums as their values, sequences as
    # lists, and numpy scalars and arrays, which json cannot write, as
    # Python numbers and lists
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        return {key: _config_dict(v) for key, v in obj.items()}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_config_dict(v) for v in obj]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return obj


def default_ema_config(
    format_name: str | None,
    beta: float,
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> EmaConfig:
    """Storage convention per format: BF16 is stored raw (no scaling),
    FP8 uses per-tensor scaling, FP4 uses block-wise scaling with block
    size 128. None means full-precision storage."""
    if format_name is None or format_name in ("fp32", "none"):
        return EmaConfig(beta=beta, format=None)
    fmt = get_format(format_name)
    if format_name == "bf16":
        return EmaConfig(
            beta=beta,
            format=fmt,
            scheme=ScalingScheme(ScalingMode.PER_TENSOR),
            rounding=rounding,
            freeze_scale=True,
            init_scale=fmt.x_max,
        )
    if format_name == "fp8_e4m3":
        scheme = ScalingScheme(ScalingMode.PER_TENSOR)
    else:
        scheme = ScalingScheme(ScalingMode.BLOCKWISE, 128)
    return EmaConfig(beta=beta, format=fmt, scheme=scheme, rounding=rounding)


def moment_configs(
    format_name: str | None,
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
    beta1: float = 0.9,
    beta2: float = 0.999,
) -> tuple[EmaConfig, EmaConfig]:
    """(first, second) moment configs at beta1 and beta2; fp4 pairs signed
    E2M1 with unsigned E2M2 for the nonnegative second moment."""
    _check_beta("beta1", beta1)
    _check_beta("beta2", beta2)
    if format_name in ("fp4", "fp4_e2m1", "fp4_e2m2u"):
        return (
            default_ema_config("fp4_e2m1", beta1, rounding),
            default_ema_config("fp4_e2m2u", beta2, rounding),
        )
    return (
        default_ema_config(format_name, beta1, rounding),
        default_ema_config(format_name, beta2, rounding),
    )


# bytes of the producer's ring: two chunk buffers of about half each, so
# the producer fills the next chunk while the caller rounds the current one
_RING_BYTES = 1 << 20


def _signal_rows(spec: GradientStreamSpec, steps: int, trials: int, square: bool):
    """Yield each step's signal row of a curve run, trial after trial, as a
    ``(1, 1, dim)`` view, the shape of a curve store; a row is valid until
    the next one is asked for.

    A producer thread fills two chunk buffers in turn with each trial's
    stream while the caller rounds the rows of the other. Per chunk it makes
    one ``standard_normal``, one in-place scaling and, for a second moment,
    one in-place square, so it seldom takes the GIL from the caller. No draw
    depends on the state, so each row has the bits a step-by-step ``draw()``
    gives. One queue hands filled blocks, or the producer's error, to the
    caller; the other hands back ``True`` per freed buffer, or ``False`` to
    stop. Closing the generator stops and joins the producer.
    """
    row_bytes = spec.dimension * 8
    chunk = min(steps, max(1, _RING_BYTES // 2 // row_bytes))
    n_chunks = trials * -(-steps // chunk)
    n_bufs = min(n_chunks, 2)
    # built here, not in the producer: allocations in a new thread come
    # from an arena of its own, which adds resident memory
    ring = np.empty((n_bufs, chunk, spec.dimension))
    streams = [GradientStream(spec, trial) for trial in range(trials)]
    full, free = queue.SimpleQueue(), queue.SimpleQueue()

    def produce() -> None:
        try:
            k = 0
            for stream in streams:
                for start in range(0, steps, chunk):
                    if not free.get():
                        return
                    block = stream.fill(ring[k % n_bufs, : steps - start])
                    k += 1
                    if square:
                        with np.errstate(**_QUIET):
                            np.multiply(block, block, out=block)
                    full.put(block)
        except BaseException as exc:  # raised again by the caller, exits too
            full.put(exc)

    for _ in range(n_bufs):
        free.put(True)
    producer = threading.Thread(target=produce, name="signal-rows", daemon=True)
    producer.start()
    try:
        for _ in range(n_chunks):
            block = full.get()
            if isinstance(block, BaseException):
                raise block
            yield from block[:, None, None]
            free.put(True)
    finally:
        free.put(False)
        producer.join()


def _curve_results(
    experiment: str,
    stream: GradientStreamSpec,
    emas: list,
    steps: int,
    trials: int,
    second_moment: bool,
    steady_key: str,
) -> list:
    # per-step stalled fraction averaged over trials, for an EMA of the
    # stream (of its square for a second moment) under each config, with
    # the measured floor (step 1) and the last-decile mean under
    # steady_key. The configs step in lockstep over one draw per step, each
    # in its own in-place store; each rounds with its own stream, seeded as
    # a config run alone seeds it
    _check_int("steps", steps, 1)
    _check_int("trials", trials, 1)
    if not emas:
        raise ValueError("at least one EMA config is required")
    dim = stream.dimension
    acc = np.zeros((len(emas), steps))
    counts = np.empty((len(emas), steps), dtype=np.int64)
    proposal = np.empty((1, 1, dim))
    decays = [1.0 - ema.beta for ema in emas]
    with contextlib.closing(
        _signal_rows(stream, steps, trials, second_moment)
    ) as signals, np.errstate(**_QUIET):
        for trial in range(trials):
            stores = [
                _Store([[EmaState.initialize(ema, dim)]], [RowStreams(
                    [np.random.default_rng([stream.seed, trial, _KEY_ROUND])], 1)])
                for ema in emas
            ]
            for t in range(steps):
                signal = next(signals)
                for c, (decay, store) in enumerate(zip(decays, stores)):
                    p = _proposal(store.values, signal, decay, proposal)
                    counts[c, t] = np.count_nonzero(store.store(p))
            # an exact count over dim, the same bits as the mean of the flags
            acc += counts / dim
    mean_frac = acc / trials
    return [
        ExperimentResult(
            config=_config_dict({
                "experiment": experiment,
                "stream": stream,
                "ema": ema,
                "steps": steps,
                "trials": trials,
            }),
            series={
                "step": list(range(1, steps + 1)),
                "stalled_fraction": frac.tolist(),
            },
            metrics={
                "measured_floor": float(frac[0]),
                steady_key: float(np.mean(frac[-_trailing_window(steps):])),
            },
        )
        for ema, frac in zip(emas, mean_frac)
    ]


def run_stall_curves(
    stream: GradientStreamSpec,
    emas: list,
    steps: int,
    trials: int = 1,
) -> list:
    """Measure the second-moment stalled fraction against the predictors,
    one result per EMA config.

    Averages the per-step stalled fraction over trials, reports the
    measured floor (step 1) and plateau (last decile), and overlays the
    transient and steady-state theory values for each config's format.
    The configs share each step's draw, so each result equals the one
    its config gives run alone.
    """
    results = _curve_results(
        "stall_curve", stream, emas, steps, trials, True, "measured_plateau"
    )
    for ema, result in zip(emas, results):
        if ema.format is None:
            continue
        metrics = result.metrics
        rho = TheoryInputs(beta2=ema.beta, format=ema.format).rhohat
        metrics["rhohat"] = rho
        metrics["theory_ss_nr"] = p_stall_nr_ss(rho)
        metrics["theory_ss_sr"] = p_stall_sr_ss(rho)
        metrics["theory_ss"] = (
            metrics["theory_ss_nr"]
            if ema.rounding is RoundingMode.NEAREST_EVEN
            else metrics["theory_ss_sr"]
        )
        result.series["theory_nr_transient"] = [
            p_stall_nr_transient(j, ema.beta, rho) for j in range(1, steps + 1)
        ]
    return results


def run_first_moment_curves(
    stream: GradientStreamSpec,
    emas: list,
    steps: int,
    trials: int = 1,
) -> list:
    """Stalled fraction of a signed first-moment EMA under each config;
    measurement only, there is no closed-form overlay for the first
    moment. The configs share each step's draw."""
    return _curve_results(
        "first_moment_curve", stream, emas, steps, trials, False, "measured_steady"
    )


def _trailing_window(steps: int) -> int:
    return max(1, steps // 10)


def _require_unique(what: str, labels: list) -> None:
    # a study keys its medians by label, so cells under one label would merge
    seen = set()
    for label in labels:
        if label in seen:
            raise ValueError(f"two {what} share the label {label!r}")
        seen.add(label)


class _Skips:
    """Forced skips of one moment: after warmup, row r skips its update
    with probability p[r], decided by its own stream. The draws do not
    depend on the state, so each stream draws ``block`` steps' uniforms at
    a time, the bits of as many scalar ``random()`` calls."""

    def __init__(self, target: str, p_rows: list, seed_rows: list, warmup: int):
        self.moment = ("first", "second").index(target)
        self.warmup = warmup
        live = [r for r, p in enumerate(p_rows) if p > 0.0]
        self.rows = np.array(live, dtype=np.intp)
        self.rngs = [np.random.default_rng([seed_rows[r], _KEY_ROUND,
                                            int(p_rows[r] * 10**6)])
                     for r in live]
        self.p = np.array([p_rows[r] for r in live])[:, None]
        self.block = _block_steps(8 * max(1, len(live)))
        self._uniforms = np.empty((len(live), self.block))
        self._held = np.empty(self._uniforms.shape, dtype=bool)
        self._j = self.block
        self.hold = np.zeros((2, len(p_rows)), dtype=bool)

    def holds(self, t: int) -> np.ndarray | None:
        """The ``(2, rows)`` hold mask of step t, the first moment's row
        then the second's, or None where no row skips. The mask is a buffer
        the next step overwrites."""
        if t <= self.warmup or not self.rngs:
            return None
        if self._j == self.block:
            for rng, row in zip(self.rngs, self._uniforms):
                rng.random(out=row)
            np.less(self._uniforms, self.p, out=self._held)
            self._j = 0
        self.hold[self.moment, self.rows] = self._held[:, self._j]
        self._j += 1
        return self.hold

    def draw(self, t: int) -> tuple:
        """(hold_m, hold_v) for step t; None where no row skips."""
        hold = self.holds(t)
        if hold is None:
            return None, None
        held = hold[self.moment].copy()
        return (held, None) if self.moment == 0 else (None, held)


def _check_run(steps, seeds, distinct: bool = True) -> None:
    # bad values would fail later as a TypeError or as numpy's error on a
    # negative entropy. A study's table and medians would count a repeated
    # seed twice; the cell drivers keep one row per entry (distinct=False)
    _check_int("steps", steps, 1)
    if not seeds:
        raise ValueError("at least one seed is required")
    for i, seed in enumerate(seeds):
        if not (_is_integer(seed) and seed >= 0):
            raise ValueError(f"seeds must be integers >= 0, got {seed!r}")
        if distinct and seed in seeds[:i]:
            raise ValueError(f"seeds must be distinct, got {seed!r} twice")


def _train_rows(
    problem,
    configs: list,
    policies: list,
    steps: int,
    seeds: tuple,
    hyper: AdamHyper,
    skips: _Skips | None = None,
    record_trace: bool = False,
) -> dict:
    """Adam training of every (config, seed, cell) triple in lockstep.

    configs is a list of (cfg_m, cfg_v) storage configs, which hold the
    betas; the adaptive rule reads E(k) at cfg_v's beta. Row
    ``i * len(policies) + j`` of each config runs cell j, whose reset rule
    is ``policies[j]``, on ``seeds[i]``. Every row of a seed, in every
    config, shares that seed's problem instance and its gradient and target
    draws (``problem.make_stack``); each config draws its rounding from its
    own streams, seeded as a config trained alone would seed them, the
    first moment's draws before the second's. Both moments step as one
    ``(2 * configs, rows, dim)`` stack, the first-moment configs and then
    the second-moment ones: the problem writes the gradient into the first
    half of the signal buffer, and each step is one ``adam_lockstep`` and
    one ``reset_rows`` over the whole stack. No draw depends on the state
    and resets draw nothing, so each row follows the run it would make
    alone bit for bit. Returns the trailing-decile mean losses as a
    (config, seed, cell) array and, optionally, per-config lists of per-row
    (first, second) moment stall traces.
    """
    _check_run(steps, seeds, distinct=False)
    if not policies:
        raise ValueError("at least one reset policy is required")
    if not configs:
        raise ValueError("at least one storage config is required")
    n, cells = len(configs), len(policies)
    instances = problem.make_stack(seeds)
    start = np.repeat(instances.init_params(), cells, axis=0)
    rows, dim = start.shape
    params = np.repeat(start[None], n, axis=0)
    blocks = (n, len(seeds), cells, dim)
    streams = [
        RowStreams([np.random.default_rng([seed, _KEY_ROUND]) for seed in seeds], cells)
        for _ in configs
    ]
    moments = [pair[i] for i in (0, 1) for pair in configs]
    stack = StateStack([[EmaState.initialize(cfg, dim)] * rows for cfg in moments],
                       streams * 2)
    rules = ResetRows(list(policies) * len(seeds), ["first"] * n + ["second"] * n,
                      steps, [cfg_v.beta for _, cfg_v in configs] * 2)
    signal = np.empty(stack.values.shape)
    grad = signal[:n].reshape(blocks)
    window = _trailing_window(steps)
    tail = np.empty((n, rows, window))
    record = []
    for t in range(1, steps + 1):
        instances.grad(params.reshape(blocks), out=grad)
        hold = skips.holds(t) if skips is not None else None
        params, stalled = adam_lockstep(stack, signal, hyper, params, hold)
        reset = reset_rows(stack, rules, stalled)
        if record_trace:
            record.append((stalled, stack.k.copy(), reset))
        j = t - 1 - (steps - window)
        if j >= 0:
            tail[..., j] = instances.losses(params.reshape(blocks)).reshape(tail.shape[:2])
    # one contiguous row per mean: a mean over axis 0 sums in another order
    losses = [[float(np.mean(row)) for row in cfg_tail] for cfg_tail in tail]
    out = {"final_loss": np.reshape(losses, (n, len(seeds), cells))}
    if record_trace:
        out["traces"] = _traces(record, n)
    return out


def _traces(record: list, n: int) -> list:
    # per-step (stalled, k, reset) arrays of shape (2 * n, rows), the n
    # first moments then the n second moments, as per-config lists of
    # per-row (first, second) traces
    frac, k, reset = (np.moveaxis(a, 0, -1).tolist() for a in map(np.array, zip(*record)))
    return [
        [(StallTrace("first_moment", frac[c][r], k[c][r], reset[c][r]),
          StallTrace("second_moment", frac[n + c][r], k[n + c][r], reset[n + c][r]))
         for r in range(len(frac[c]))]
        for c in range(n)
    ]


def run_reset_cells(
    problem,
    configs: list,
    policies: list,
    steps: int,
    seeds: tuple,
    hyper: AdamHyper,
) -> np.ndarray:
    """Final losses of every storage config x seed x reset policy cell.

    configs is a list of (cfg_m, cfg_v) pairs, whose betas may differ, and
    policies a list of ``ResetPolicy``. Every cell trains in one lockstep
    loop: the cells of a seed share its problem instance and its gradient
    and target draws, and the cells of a config share its rounding streams,
    so each loss equals the cell's own ``run_reset_training`` bit for bit.
    Returns an array of shape ``(len(configs), len(seeds), len(policies))``;
    entry [c, i, j] is the trailing-decile mean loss of config c under
    policies[j] on seeds[i].
    """
    return _train_rows(problem, configs, policies, steps, seeds, hyper)["final_loss"]


def run_reset_training(
    problem,
    cfg_m: EmaConfig,
    cfg_v: EmaConfig,
    policy: ResetPolicy,
    steps: int,
    seed: int,
    hyper: AdamHyper,
    record_trace: bool = False,
) -> dict:
    """One training run; returns the trailing-decile mean loss and,
    optionally, per-moment stall traces."""
    res = _train_rows(
        problem, [(cfg_m, cfg_v)], [policy], steps, (seed,), hyper,
        record_trace=record_trace,
    )
    out = {"final_loss": float(res["final_loss"][0, 0, 0])}
    if record_trace:
        out["trace_m"], out["trace_v"] = res["traces"][0][0]
    return out


def _study(experiment: dict, problem, configs: list, cells: list, steps: int,
           seeds: tuple, hyper: AdamHyper | None, median_key: str,
           skips: _Skips | None = None) -> ExperimentResult:
    """Final-loss table of a storage config x cell x seed grid, trained in
    one ``_train_rows`` call. configs holds (labels, (cfg_m, cfg_v)) and
    cells (labels, ResetPolicy), each labels a dict of table columns. The
    table has the label columns, seed and final_loss, in config, cell, seed
    order; each cell's median is keyed ``median_key.format(**labels)``. The
    JSON config adds the problem, steps, seeds and hyper, with the first
    config's betas, to experiment's entries. hyper defaults to lr 0.01.
    """
    # one labels dict, and one median key, per (config, cell); labels that
    # are unique per column can still format to one key
    labels = [{**config_labels, **cell_labels}
              for config_labels, _ in configs for cell_labels, _ in cells]
    keys = [median_key.format(**row) for row in labels]
    _require_unique("cells", keys)
    hyper = hyper or AdamHyper(lr=0.01)
    losses = _train_rows(problem, [pair for _, pair in configs],
                         [policy for _, policy in cells], steps, seeds, hyper, skips)
    # one row of per-seed losses per (config, cell)
    by_cell = np.swapaxes(losses["final_loss"], 1, 2).reshape(-1, len(seeds)).tolist()
    series = {name: [row[name] for row in labels for _ in seeds] for name in labels[0]}
    series["seed"] = list(seeds) * len(labels)
    series["final_loss"] = [loss for cell in by_cell for loss in cell]
    medians = {key: float(np.median(cell)) for key, cell in zip(keys, by_cell)}
    cfg_m, cfg_v = configs[0][1]
    config = {**experiment, "problem": problem, "steps": steps, "seeds": seeds,
              "hyper": {**_config_dict(hyper), "beta1": cfg_m.beta, "beta2": cfg_v.beta}}
    return ExperimentResult(_config_dict(config), series, medians)


def _check_reset_study(configs: list, policies: list, steps: int, seeds: tuple) -> None:
    # run_reset_study's input checks, which the CLI also runs before it
    # prints its config line
    _check_run(steps, seeds)
    if len(seeds) < 3:
        raise ValueError("need at least 3 seeds")
    _require_unique("configs", [c[0] for c in configs])
    _require_unique("policies", [p[0] for p in policies])
    if len({(cfg_m.beta, cfg_v.beta) for _, cfg_m, cfg_v in configs}) > 1:
        raise ValueError("the configs of a reset study must share beta1 and beta2")


def run_reset_study(
    problem,
    configs: list,
    policies: list,
    steps: int,
    seeds: tuple,
    hyper: AdamHyper | None = None,
) -> ExperimentResult:
    """Final-loss matrix over storage config x reset policy x seed.

    configs is a list of (label, cfg_m, cfg_v); policies a list of
    (label, ResetPolicy). seeds must be at least 3 distinct seeds, and the
    configs must share their betas, which the JSON's hyper leaves report.
    Each cell's median over the seeds is keyed ``median@<config>/<policy>``,
    and no two cells may share a key.
    """
    _check_reset_study(configs, policies, steps, seeds)
    return _study(
        {"experiment": "reset_study", "configs": [c[0] for c in configs],
         "policies": [p[0] for p in policies]},
        problem,
        [({"config": label}, (cfg_m, cfg_v)) for label, cfg_m, cfg_v in configs],
        [({"policy": label}, policy) for label, policy in policies],
        steps, seeds, hyper, "median@{config}/{policy}",
    )


# the share of a skip study's steps before the first forced skip
_SKIP_WARMUP = 0.1


def _check_skip_study(p_skip_grid: tuple, target: str, steps: int, seeds: tuple,
                      warmup_fraction: float = _SKIP_WARMUP) -> int:
    # run_skip_study's input checks, which the CLI also runs before it
    # prints its config line; returns the warmup in steps
    _check_run(steps, seeds)
    if target not in ("first", "second"):
        raise ValueError("target must be 'first' or 'second'")
    if not len(p_skip_grid):
        raise ValueError("at least one p_skip value is required")
    if not all(0.0 <= p <= 1.0 for p in p_skip_grid):
        raise ValueError("p_skip values must be in [0, 1]")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}")
    # a fraction near 1 can round up to every step, leaving none to skip
    warmup = int(round(warmup_fraction * steps))
    if warmup >= steps:
        raise ValueError(
            f"warmup_fraction {warmup_fraction!r} leaves no step to skip in {steps} steps"
        )
    _require_unique("p_skip values", [f"p={p:g}" for p in p_skip_grid])
    return warmup


def run_skip_study(
    problem,
    p_skip_grid: tuple,
    target: str,
    steps: int,
    seeds: tuple,
    hyper: AdamHyper | None = None,
    warmup_fraction: float = _SKIP_WARMUP,
) -> ExperimentResult:
    """Force random update skips on one moment of full-precision Adam.

    Skips start after warmup. The problem instance and its noise streams
    are shared across grid points at fixed seed, so final-loss differences
    are due to the intervention. final_loss is the mean loss over the
    trailing decile of steps. seeds must be distinct. Each cell's median
    over the seeds is keyed ``median_final_loss@p=<p_skip>``.
    """
    warmup = _check_skip_study(p_skip_grid, target, steps, seeds, warmup_fraction)
    skips = _Skips(target, list(p_skip_grid) * len(seeds),
                   [seed for seed in seeds for _ in p_skip_grid], warmup)
    return _study(
        {"experiment": "skip_study", "p_skip_grid": p_skip_grid, "target": target,
         "warmup_fraction": warmup_fraction},
        problem,
        [({}, moment_configs(None))],
        [({"p_skip": p}, ResetPolicy.none()) for p in p_skip_grid],
        steps, seeds, hyper, "median_final_loss@p={p_skip:g}", skips,
    )
