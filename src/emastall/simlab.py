"""Experiment drivers: stall-curve measurement, skip and reset studies.

Every experiment is a pure function of its config and seed. RNG streams are
derived from explicit integer entropy tuples, so re-running a config
reproduces its outputs bit for bit, and noise streams are shared across the
cells of a study at fixed seed (paired comparisons). Seeds also select the
toy-problem instance, so inter-seed spread reflects instance-to-instance
variation rather than residual sampling noise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from enum import Enum
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .engine import (
    AdamHyper,
    EmaConfig,
    EmaState,
    ResetKind,
    ResetPolicy,
    StallTrace,
    adam_step,
    apply_adam_update,
    apply_reset_policy,
    ema_step,
    skip_intervention_step,
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
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind not in ("gaussian_iid", "piecewise"):
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.kind == "piecewise" and not self.schedule:
            raise ValueError("piecewise stream needs a schedule")


class GradientStream:
    def __init__(self, spec: GradientStreamSpec, trial: int = 0):
        self.spec = spec
        scale_rng = np.random.default_rng([spec.seed, trial, _KEY_SCALES])
        u = scale_rng.random(spec.dimension)
        self.scales = spec.sigma * np.exp2(u * spec.sigma_binades)
        self._rng = np.random.default_rng([spec.seed, trial, _KEY_GRAD])
        self._t = 0

    def _segment_factor(self) -> float:
        if self.spec.kind != "piecewise":
            return 1.0
        t = self._t
        for steps, factor in self.spec.schedule:
            if t < steps:
                return factor
            t -= steps
        return self.spec.schedule[-1][1]

    def draw(self) -> np.ndarray:
        factor = self._segment_factor()
        self._t += 1
        xi = self._rng.standard_normal(self.spec.dimension)
        return factor * self.scales * (self.spec.mu + xi)


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
        s = 1.0 / (1.0 + np.exp(yb * (xb @ params)))
        return -(yb * s) @ xb / len(idx)

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


def _curve_result(
    experiment: str,
    stream: GradientStreamSpec,
    ema: EmaConfig,
    steps: int,
    trials: int,
    second_moment: bool,
    steady_key: str,
) -> ExperimentResult:
    # per-step stalled fraction averaged over trials, for an EMA of the
    # stream (of its square for a second moment), with the measured floor
    # (step 1) and the last-decile mean under steady_key
    if steps < 1 or trials < 1:
        raise ValueError("steps and trials must be >= 1")
    t0 = time.perf_counter()
    acc = np.zeros(steps)
    for trial in range(trials):
        gs = GradientStream(stream, trial)
        rng = np.random.default_rng([stream.seed, trial, _KEY_ROUND])
        state = EmaState.initialize(ema, stream.dimension)
        for t in range(steps):
            g = gs.draw()
            state, frac = ema_step(state, g * g if second_moment else g, rng)
            acc[t] += frac
    mean_frac = acc / trials
    return ExperimentResult(
        config={
            "experiment": experiment,
            "stream": _config_dict(stream),
            "ema": _config_dict(ema),
            "steps": steps,
            "trials": trials,
        },
        series={
            "step": list(range(1, steps + 1)),
            "stalled_fraction": mean_frac.tolist(),
        },
        metrics={
            "measured_floor": float(mean_frac[0]),
            steady_key: float(np.mean(mean_frac[-_trailing_window(steps):])),
        },
        wall_time=time.perf_counter() - t0,
    )


def run_stall_curve(
    stream: GradientStreamSpec,
    ema: EmaConfig,
    steps: int,
    trials: int = 1,
) -> ExperimentResult:
    """Measure the second-moment stalled fraction against the predictors.

    Averages the per-step stalled fraction over trials, reports the
    measured floor (step 1) and plateau (last decile), and overlays the
    transient and steady-state theory values for the config's format.
    """
    result = _curve_result(
        "stall_curve", stream, ema, steps, trials, True, "measured_plateau"
    )
    if ema.format is not None:
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
    return result


def run_first_moment_curve(
    stream: GradientStreamSpec,
    ema: EmaConfig,
    steps: int,
    trials: int = 1,
) -> ExperimentResult:
    """Stalled fraction of a signed first-moment EMA; measurement only,
    there is no closed-form overlay for the first moment."""
    return _curve_result(
        "first_moment_curve", stream, ema, steps, trials, False, "measured_steady"
    )


def _trailing_window(steps: int) -> int:
    return max(1, steps // 10)


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
    hyper = hyper or AdamHyper(lr=0.01)
    t0 = time.perf_counter()
    warmup = int(round(warmup_fraction * steps))
    window = _trailing_window(steps)
    rows_p, rows_seed, rows_loss = [], [], []
    for p in p_skip_grid:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p_skip values must be in [0, 1]")
        for seed in seeds:
            inst = problem.make_instance(seed)
            cfg_m, cfg_v = moment_configs(None, hyper)
            params = inst.init_params()
            m = EmaState.initialize(cfg_m, len(params))
            v = EmaState.initialize(cfg_v, len(params))
            grad_rng = np.random.default_rng([seed, _KEY_GRAD])
            skip_rng = np.random.default_rng([seed, _KEY_ROUND, int(p * 10**6)])
            tail = []
            for t in range(1, steps + 1):
                inst.step_begin()
                g = inst.grad_sample(params, grad_rng)
                live = t > warmup and p > 0.0
                if target == "first" and live:
                    m = skip_intervention_step(m, g, p, skip_rng)
                else:
                    m, _ = ema_step(m, g)
                if target == "second" and live:
                    v = skip_intervention_step(v, g * g, p, skip_rng)
                else:
                    v, _ = ema_step(v, g * g)
                params = apply_adam_update(params, m, v, hyper)
                if t > steps - window:
                    tail.append(inst.loss(params))
            rows_p.append(p)
            rows_seed.append(seed)
            rows_loss.append(float(np.mean(tail)))
    medians = {
        f"median_final_loss@p={p:g}": float(
            np.median([l for pp, l in zip(rows_p, rows_loss) if pp == p])
        )
        for p in p_skip_grid
    }
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
    inst = problem.make_instance(seed)
    params = inst.init_params()
    m = EmaState.initialize(cfg_m, len(params))
    v = EmaState.initialize(cfg_v, len(params))
    grad_rng = np.random.default_rng([seed, _KEY_GRAD])
    round_rng = np.random.default_rng([seed, _KEY_ROUND])
    trace_m = StallTrace("first_moment")
    trace_v = StallTrace("second_moment")
    window = _trailing_window(steps)
    tail = []
    for t in range(1, steps + 1):
        inst.step_begin()
        g = inst.grad_sample(params, grad_rng)
        params, m, v, stats = adam_step(m, v, g, hyper, params, round_rng)
        reset_m = reset_v = False
        if policy.kind is not ResetKind.NONE:
            if policy.applies_to in ("first", "both"):
                m, reset_m = apply_reset_policy(m, policy, stats["stalled_m"])
            if policy.applies_to in ("second", "both"):
                v, reset_v = apply_reset_policy(v, policy, stats["stalled_v"])
        if record_trace:
            trace_m.append(stats["stalled_m"], m.k, reset_m)
            trace_v.append(stats["stalled_v"], v.k, reset_v)
        if t > steps - window:
            tail.append(inst.loss(params))
    out = {"final_loss": float(np.mean(tail))}
    if record_trace:
        out["trace_m"] = trace_m
        out["trace_v"] = trace_v
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
    (label, ResetPolicy).
    """
    if len(seeds) < 3:
        raise ValueError("need at least 3 seeds")
    hyper = hyper or AdamHyper(lr=0.01)
    t0 = time.perf_counter()
    cols: dict = {"config": [], "policy": [], "seed": [], "final_loss": []}
    medians: dict = {}
    for config_label, cfg_m, cfg_v in configs:
        for policy_label, policy in policies:
            losses = []
            for seed in seeds:
                out = run_reset_training(
                    problem, cfg_m, cfg_v, policy, steps, seed, hyper
                )
                cols["config"].append(config_label)
                cols["policy"].append(policy_label)
                cols["seed"].append(seed)
                cols["final_loss"].append(out["final_loss"])
                losses.append(out["final_loss"])
            medians[f"median@{config_label}/{policy_label}"] = float(np.median(losses))
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
