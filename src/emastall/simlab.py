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
``run_reset_cells`` returns the losses of a config x seed x policy grid as
one array; ``run_stall_curves``/``run_first_moment_curves`` return one
result per EMA config. The curve drivers take each step's signal from the
generator ``_signal_rows``, whose producer thread draws up to a ring of
chunks ahead while the caller rounds; its rows are the bits a step-by-step
draw gives, so the curves are unchanged.

A problem's ``make_instance(seed)`` returns an instance with
``init_params()``, ``step_begin()``, ``grad_sample(params, rng)`` and
``loss(params)``. ``grad_sample`` takes params of any shape ``(..., dim)``;
every row shares one draw, which is how the studies step every cell
of a seed, in every config, at once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import os
import queue
import threading
import time
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
    _QUIET,
    adam_lockstep,
    ema_step,
    reset_rows,
)
from .formats import RoundingMode, get_format
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
        # that flips sign) at the first write
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
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
            if not (isinstance(steps, numbers.Integral) and steps >= 1):
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
        ``factor * scales * (mu + xi)`` does. An overflow leaves a
        non-finite draw, which the first write rejects.
        """
        self._rng.standard_normal(out=out)
        with np.errstate(**_QUIET):
            out += self.spec.mu
            row = 0
            while row < len(out):
                factor, left = self._segment()
                stop = int(min(len(out), row + left))
                out[row:stop] *= factor * self.scales
                self._t += stop - row
                row = stop
        return out

    def draw(self) -> np.ndarray:
        return self.fill(np.empty((1, self.spec.dimension)))[0]


@dataclasses.dataclass(frozen=True)
class NoisyQuadratic:
    """Diagonal quadratic with multiplicative noise and a drifting optimum.

    The curvature spectrum is drawn log-uniform per instance (per seed).
    The optimum performs a random walk, so the gradient scale keeps
    changing and a second moment that cannot track the change leaves the
    optimizer stepping at the wrong size; a frozen quantized state pins the
    tracking error near the scale at which it froze.
    """

    dimension: int = 256
    curvature_min: float = 1e-2
    curvature_max: float = 1.0
    noise_mult: float = 0.5
    target_drift: float = 0.002
    init_offset: float = 3.0

    def make_instance(self, seed: int) -> "QuadraticInstance":
        rng = np.random.default_rng([seed, _KEY_PROBLEM])
        log_h = rng.uniform(
            math.log(self.curvature_min),
            math.log(self.curvature_max),
            self.dimension,
        )
        return QuadraticInstance(
            curvatures=np.exp(log_h),
            noise_mult=self.noise_mult,
            drift=self.target_drift,
            init_offset=self.init_offset,
            target_rng=np.random.default_rng([seed, _KEY_TARGET]),
        )


class QuadraticInstance:
    def __init__(self, curvatures, noise_mult, drift, init_offset, target_rng):
        self.curvatures = curvatures
        self.noise_mult = noise_mult
        self.drift = drift
        self.init_offset = init_offset
        self.target = np.zeros(len(curvatures))
        self._target_rng = target_rng

    @property
    def dimension(self) -> int:
        return len(self.curvatures)

    def init_params(self) -> np.ndarray:
        return np.full(self.dimension, self.init_offset)

    def step_begin(self) -> None:
        if self.drift:
            self.target = self.target + self.drift * self._target_rng.standard_normal(
                self.dimension
            )

    def grad_sample(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        g = self.curvatures * (params - self.target)
        return g * (1.0 + self.noise_mult * rng.standard_normal(self.dimension))

    def loss(self, params: np.ndarray) -> float:
        return float(0.5 * np.sum(self.curvatures * (params - self.target) ** 2))


@dataclasses.dataclass(frozen=True)
class SynthLogistic:
    """Logistic regression on synthetic data; dataset drawn per instance."""

    n_samples: int = 2048
    dimension: int = 64
    label_noise: float = 0.05
    batch_size: int = 64

    def make_instance(self, seed: int) -> "LogisticInstance":
        rng = np.random.default_rng([seed, _KEY_PROBLEM])
        x = rng.standard_normal((self.n_samples, self.dimension))
        w = rng.standard_normal(self.dimension) / np.sqrt(self.dimension)
        y = np.sign(x @ w)
        y[y == 0] = 1.0
        flip = rng.random(self.n_samples) < self.label_noise
        y[flip] *= -1
        return LogisticInstance(x, y, self.batch_size)


class LogisticInstance:
    def __init__(self, x, y, batch_size):
        self.x = x
        self.y = y
        self.batch_size = batch_size

    @property
    def dimension(self) -> int:
        return self.x.shape[1]

    def init_params(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def step_begin(self) -> None:
        pass

    def grad_sample(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, len(self.x), self.batch_size)
        xb, yb = self.x[idx], self.y[idx]
        # one matrix-vector product per row: a matrix product over all rows
        # sums in another order
        grads = []
        for p in np.reshape(params, (-1, self.dimension)):
            s = 1.0 / (1.0 + np.exp(yb * (xb @ p)))
            grads.append(-(yb * s) @ xb / len(idx))
        return np.reshape(grads, np.shape(params))

    def loss(self, params: np.ndarray) -> float:
        z = self.y * (self.x @ params)
        return float(np.mean(np.logaddexp(0.0, -z)))


@dataclasses.dataclass
class ExperimentResult:
    """Config snapshot, per-step/long-format series, and summary metrics."""

    config: dict
    series: dict
    metrics: dict
    wall_time: float
    schema_version: int = SCHEMA_VERSION

    def summary(self) -> dict:
        # wall time stays off the serialized summary so identical configs
        # reproduce their output files byte for byte
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
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _config_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_config_dict(v) for v in obj]
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
    hyper: AdamHyper,
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> tuple[EmaConfig, EmaConfig]:
    """(first, second) moment configs; fp4 pairs signed E2M1 with unsigned
    E2M2 for the nonnegative second moment."""
    if format_name in ("fp4", "fp4_e2m1", "fp4_e2m2u"):
        return (
            default_ema_config("fp4_e2m1", hyper.beta1, rounding),
            default_ema_config("fp4_e2m2u", hyper.beta2, rounding),
        )
    return (
        default_ema_config(format_name, hyper.beta1, rounding),
        default_ema_config(format_name, hyper.beta2, rounding),
    )


# bytes of the producer's ring: chunks of about a quarter each, so the
# producer works one to three chunks ahead
_RING_BYTES = 1 << 20


def _worker_cpus() -> set | None:
    """The CPUs this process may use, less the one the calling thread runs
    on now; None if that leaves none or threads cannot be placed here."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/thread-self/stat") as f:
            stat = f.read()
        # field 39, "processor"; the fields after the command name start at 3
        current = int(stat[stat.rindex(")") + 1:].split()[36])
        others = os.sched_getaffinity(0) - {current}
    except (OSError, ValueError, IndexError):
        return None
    return others or None


def _signal_rows(spec: GradientStreamSpec, steps: int, trials: int, square: bool):
    """Yield each step's signal row of a curve run, trial after trial; a row
    is valid until the next one is asked for.

    A producer thread fills a ring of chunk buffers with each trial's stream
    (squared for a second moment) while the caller rounds the current row;
    no draw depends on the state, so each row has the bits a step-by-step
    ``draw()`` gives. One queue hands filled blocks, or the producer's
    error, to the caller; the other hands back ``True`` per freed buffer, or
    ``False`` to stop. Closing the generator stops and joins the producer.
    The producer moves itself off the caller's current CPU when another is
    allowed; left to the scheduler, both threads tend to share one CPU.
    """
    row_bytes = spec.dimension * 8
    chunk = min(steps, max(1, _RING_BYTES // 4 // row_bytes))
    n_chunks = trials * -(-steps // chunk)
    n_bufs = min(n_chunks, max(2, _RING_BYTES // (chunk * row_bytes)))
    # built here, not in the producer: allocations in a new thread come
    # from an arena of its own, which adds resident memory
    ring = np.empty((n_bufs, chunk, spec.dimension))
    streams = [GradientStream(spec, trial) for trial in range(trials)]
    full, free = queue.SimpleQueue(), queue.SimpleQueue()

    def produce(cpus: set | None) -> None:
        try:
            if cpus:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, cpus)  # this thread only
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
    producer = threading.Thread(
        target=produce, args=(_worker_cpus(),), name="signal-rows", daemon=True
    )
    producer.start()
    try:
        for _ in range(n_chunks):
            block = full.get()
            if isinstance(block, BaseException):
                raise block
            yield from block
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
    # steady_key. The configs step in lockstep over one draw per step; each
    # rounds with its own stream, seeded as a config run alone seeds it
    if steps < 1 or trials < 1:
        raise ValueError("steps and trials must be >= 1")
    if not emas:
        raise ValueError("at least one EMA config is required")
    t0 = time.perf_counter()
    acc = np.zeros((len(emas), steps))
    with contextlib.closing(
        _signal_rows(stream, steps, trials, second_moment)
    ) as signals:
        for trial in range(trials):
            rngs = [
                np.random.default_rng([stream.seed, trial, _KEY_ROUND]) for _ in emas
            ]
            states = [EmaState.initialize(ema, stream.dimension) for ema in emas]
            for t in range(steps):
                signal = next(signals)
                for c, rng in enumerate(rngs):
                    states[c], frac = ema_step(states[c], signal, rng)
                    acc[c, t] += frac
    mean_frac = acc / trials
    wall_time = time.perf_counter() - t0
    return [
        ExperimentResult(
            config={
                "experiment": experiment,
                "stream": _config_dict(stream),
                "ema": _config_dict(ema),
                "steps": steps,
                "trials": trials,
            },
            series={
                "step": list(range(1, steps + 1)),
                "stalled_fraction": frac.tolist(),
            },
            metrics={
                "measured_floor": float(frac[0]),
                steady_key: float(np.mean(frac[-_trailing_window(steps):])),
            },
            wall_time=wall_time,
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
    ``run_stall_curve`` gives for its config alone.
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


def run_stall_curve(
    stream: GradientStreamSpec,
    ema: EmaConfig,
    steps: int,
    trials: int = 1,
) -> ExperimentResult:
    """``run_stall_curves`` for one config."""
    return run_stall_curves(stream, [ema], steps, trials)[0]


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


def run_first_moment_curve(
    stream: GradientStreamSpec,
    ema: EmaConfig,
    steps: int,
    trials: int = 1,
) -> ExperimentResult:
    """``run_first_moment_curves`` for one config."""
    return run_first_moment_curves(stream, [ema], steps, trials)[0]


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
    with probability p[r], decided by its own stream."""

    def __init__(self, target: str, p_rows: list, seed_rows: list, warmup: int):
        self.target = target
        self.warmup = warmup
        self.n_rows = len(p_rows)
        self.live = [
            (r, p, np.random.default_rng([seed, _KEY_ROUND, int(p * 10**6)]))
            for r, (p, seed) in enumerate(zip(p_rows, seed_rows))
            if p > 0.0
        ]

    def draw(self, t: int) -> tuple:
        """(hold_m, hold_v) for step t; None where no row skips."""
        if t <= self.warmup or not self.live:
            return None, None
        hold = np.zeros(self.n_rows, dtype=bool)
        for r, p, rng in self.live:
            hold[r] = rng.random() < p
        return (hold, None) if self.target == "first" else (None, hold)


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

    configs is a list of (cfg_m, cfg_v) storage configs. Row
    ``i * len(policies) + j`` of each config runs cell j, whose reset rule
    is ``policies[j]``, on ``seeds[i]``. Every row of a seed, in every
    config, shares that seed's problem instance and its gradient and target
    draws; each config draws its rounding from its own streams, seeded as a
    config trained alone would seed them. No draw depends on the state and
    resets draw nothing, so each row follows the run it would make alone
    bit for bit. Returns the trailing-decile mean losses as a (config, seed,
    cell) array and, optionally, per-config lists of per-row (first, second)
    moment stall traces.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not seeds:
        raise ValueError("at least one seed is required")
    if not policies:
        raise ValueError("at least one reset policy or p_skip value is required")
    if not configs:
        raise ValueError("at least one storage config is required")
    cells = len(policies)
    insts = [problem.make_instance(seed) for seed in seeds]
    start = np.repeat([inst.init_params() for inst in insts], cells, axis=0)
    rows, dim = start.shape
    params = np.repeat(start[None], len(configs), axis=0)
    moments = [
        (EmaState.initialize(cfg_m, dim, rows), EmaState.initialize(cfg_v, dim, rows))
        for cfg_m, cfg_v in configs
    ]
    grad_rngs = [np.random.default_rng([seed, _KEY_GRAD]) for seed in seeds]
    round_rngs = [
        RowStreams([np.random.default_rng([seed, _KEY_ROUND]) for seed in seeds], cells)
        for _ in configs
    ]
    row_policies = list(policies) * len(seeds)
    rules_m = ResetRows(row_policies, "first")
    rules_v = ResetRows(row_policies, "second")
    blocks = [slice(i * cells, (i + 1) * cells) for i in range(len(seeds))]
    window = _trailing_window(steps)
    tail = np.empty((len(configs), rows, window))
    traces = [
        [(StallTrace("first_moment"), StallTrace("second_moment"))
         for _ in range(rows if record_trace else 0)]
        for _ in configs
    ]
    g = np.empty_like(params)
    for t in range(1, steps + 1):
        for inst, rng, block in zip(insts, grad_rngs, blocks):
            inst.step_begin()
            g[:, block] = inst.grad_sample(params[:, block], rng)
        hold_m, hold_v = skips.draw(t) if skips is not None else (None, None)
        params, moments, frac_m, frac_v = adam_lockstep(
            moments, g, hyper, params, round_rngs, hold_m=hold_m, hold_v=hold_v
        )
        for c, (m, v) in enumerate(moments):
            m, reset_m = reset_rows(m, rules_m, frac_m[c])
            v, reset_v = reset_rows(v, rules_v, frac_v[c])
            moments[c] = (m, v)
            for r, (trace_m, trace_v) in enumerate(traces[c]):
                trace_m.append(float(frac_m[c, r]), int(m.k[r]), reset_m[r])
                trace_v.append(float(frac_v[c, r]), int(v.k[r]), reset_v[r])
        j = t - 1 - (steps - window)
        if j >= 0:
            for c in range(len(configs)):
                for r in range(rows):
                    tail[c, r, j] = insts[r // cells].loss(params[c, r])
    # one contiguous row per mean: a mean over axis 0 sums in another order
    losses = [[float(np.mean(row)) for row in cfg_tail] for cfg_tail in tail]
    out = {"final_loss": np.reshape(losses, (len(configs), len(seeds), cells))}
    if record_trace:
        out["traces"] = traces
    return out


def run_reset_cells(
    problem,
    configs: list,
    policies: list,
    steps: int,
    seeds: tuple,
    hyper: AdamHyper,
) -> np.ndarray:
    """Final losses of every storage config x seed x reset policy cell.

    configs is a list of (cfg_m, cfg_v) pairs and policies a list of
    ``ResetPolicy``. Every cell trains in one lockstep loop: the cells of a
    seed share its problem instance and its gradient and target draws, and
    the cells of a config share its rounding streams, so each loss equals
    the cell's own ``run_reset_training`` bit for bit. Returns an array of
    shape ``(len(configs), len(seeds), len(policies))``; entry [c, i, j] is
    the trailing-decile mean loss of config c under policies[j] on seeds[i].
    """
    return _train_rows(problem, configs, policies, steps, seeds, hyper)["final_loss"]


def run_skip_study(
    problem,
    p_skip_grid: tuple,
    target: str,
    steps: int,
    seeds: tuple,
    hyper: AdamHyper | None = None,
    warmup_fraction: float = 0.1,
) -> ExperimentResult:
    """Force random update skips on one moment of full-precision Adam.

    Skips start after warmup. The problem instance and its noise streams
    are shared across grid points at fixed seed, so final-loss differences
    are due to the intervention. final_loss is the mean loss over the
    trailing decile of steps.
    """
    if target not in ("first", "second"):
        raise ValueError("target must be 'first' or 'second'")
    if not all(0.0 <= p <= 1.0 for p in p_skip_grid):
        raise ValueError("p_skip values must be in [0, 1]")
    labels = [f"p={p:g}" for p in p_skip_grid]
    _require_unique("p_skip values", labels)
    hyper = hyper or AdamHyper(lr=0.01)
    t0 = time.perf_counter()
    cfg_m, cfg_v = moment_configs(None, hyper)
    n_p = len(p_skip_grid)
    skips = _Skips(
        target,
        list(p_skip_grid) * len(seeds),
        [seed for seed in seeds for _ in range(n_p)],
        int(round(warmup_fraction * steps)),
    )
    losses = _train_rows(
        problem, [(cfg_m, cfg_v)], [ResetPolicy.none()] * n_p, steps, seeds, hyper,
        skips,
    )["final_loss"][0].tolist()
    rows_p, rows_seed, rows_loss, medians = [], [], [], {}
    for j, (p, label) in enumerate(zip(p_skip_grid, labels)):
        cell = [row[j] for row in losses]
        rows_p += [p] * len(seeds)
        rows_seed += list(seeds)
        rows_loss += cell
        medians[f"median_final_loss@{label}"] = float(np.median(cell))
    return ExperimentResult(
        config={
            "experiment": "skip_study",
            "problem": _config_dict(problem),
            "p_skip_grid": list(p_skip_grid),
            "target": target,
            "steps": steps,
            "seeds": list(seeds),
            "hyper": _config_dict(hyper),
            "warmup_fraction": warmup_fraction,
        },
        series={"p_skip": rows_p, "seed": rows_seed, "final_loss": rows_loss},
        metrics=medians,
        wall_time=time.perf_counter() - t0,
    )


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
    (label, ResetPolicy). Every cell trains in one ``run_reset_cells``
    call.
    """
    if len(seeds) < 3:
        raise ValueError("need at least 3 seeds")
    _require_unique("configs", [c[0] for c in configs])
    _require_unique("policies", [p[0] for p in policies])
    hyper = hyper or AdamHyper(lr=0.01)
    t0 = time.perf_counter()
    cols: dict = {"config": [], "policy": [], "seed": [], "final_loss": []}
    medians: dict = {}
    losses = run_reset_cells(
        problem, [(cfg_m, cfg_v) for _, cfg_m, cfg_v in configs],
        [p for _, p in policies], steps, seeds, hyper,
    )
    for (config_label, _, _), by_seed in zip(configs, losses.tolist()):
        for j, (policy_label, _) in enumerate(policies):
            cell = [row[j] for row in by_seed]
            cols["config"] += [config_label] * len(seeds)
            cols["policy"] += [policy_label] * len(seeds)
            cols["seed"] += list(seeds)
            cols["final_loss"] += cell
            medians[f"median@{config_label}/{policy_label}"] = float(np.median(cell))
    return ExperimentResult(
        config={
            "experiment": "reset_study",
            "problem": _config_dict(problem),
            "configs": [c[0] for c in configs],
            "policies": [p[0] for p in policies],
            "steps": steps,
            "seeds": list(seeds),
            "hyper": _config_dict(hyper),
        },
        series=cols,
        metrics=medians,
        wall_time=time.perf_counter() - t0,
    )
