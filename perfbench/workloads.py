"""The three benchmark workloads: command lists, work counts and checks.

A workload is a list of ``(name, argv)`` CLI commands run back to back in
one process; ``name`` is the output base under the pass's output
directory. Inputs depend only on the seed. Each validator reads the
outputs of one pass and returns ``{command name: reason}`` for every
command whose outputs are wrong; it checks the predictor values against
the independent closed forms in ``oracle``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
import statistics
from pathlib import Path
from typing import Callable

import oracle

Commands = list  # list[tuple[str, list[str]]]

MC_FORMATS = ("bf16", "fp8_e4m3", "fp4_e2m2u")
PREDICT_FORMATS = ("bf16", "fp8_e4m3", "fp4_e2m2u")
RESET_CONFIGS = ("fp32", "fp4_nr", "fp4_sr")
SKIP_GRID = (0.0, 0.5, 0.9)
QUADRATIC_DIM = 256
BETA2_DEFAULT = 0.999
# the package integrates p_sr numerically; its own tests hold it to 1e-7 of
# the closed form (the largest error seen here is 1.3e-8, near rhohat 63)
P_SR_TOL = 1e-7


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists: BENCHMARK.json and README.md
    item: str  # what items_per_s counts
    formats: tuple  # presets whose grid tables set-up builds
    # median seconds of the seed implementation's pass and set-up on the
    # reference host (2 cores, Xeon 2.1 GHz, Python 3.11.7, numpy 2.4.6);
    # they turn program/seed time ratios back into seconds
    seed_pass_s: float
    seed_setup_s: float
    commands: Callable[[int], Commands]
    work: Callable[[Commands], int]  # items per pass
    validate: Callable[[Path, Commands], dict]


class CheckError(Exception):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(
        math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want)),
        f"{what}: got {got!r}, expected {want!r} (tol {tol:g})",
    )


def _flag(argv: list, flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _validate_each(check, out: Path, commands: Commands) -> dict:
    errors = {}
    for name, argv in commands:
        try:
            check(out, name, argv)
        except (CheckError, OSError, KeyError, ValueError, IndexError) as e:
            errors[name] = f"{type(e).__name__}: {e}"
    return errors


# ---------------------------------------------------------------- mc_curves

def _mc_commands(steps: int, dim: int) -> Callable[[int], Commands]:
    def commands(seed: int) -> Commands:
        cmds = []
        common = ["--dim", str(dim), "--steps", str(steps), "--seed", str(seed)]
        for fmt in MC_FORMATS:
            for rounding in ("nr", "sr"):
                cmds.append((f"stall_{fmt}_{rounding}",
                             ["stall-curve", "--format", fmt, "--rounding", rounding]
                             + common))
        for rounding in ("nr", "sr"):
            cmds.append((f"first_moment_{rounding}",
                         ["first-moment", "--format", "fp4_e2m1", "--rounding", rounding]
                         + common))
        return cmds
    return commands


def _mc_work(commands: Commands) -> int:
    # one stored moment per cell: dim x steps element-updates
    return sum(int(_flag(a, "--dim", "0")) * int(_flag(a, "--steps", "0"))
               for _, a in commands)


def _check_curve(out: Path, name: str, argv: list) -> None:
    steps, dim = int(_flag(argv, "--steps", "")), int(_flag(argv, "--dim", ""))
    summary = _read_json(out / f"{name}.json")
    rows = _read_csv(out / f"{name}.csv")
    cfg, m = summary["config"], summary["metrics"]
    _require(cfg["steps"] == steps and cfg["stream"]["dimension"] == dim
             and cfg["stream"]["seed"] == int(_flag(argv, "--seed", "")),
             "config does not echo the command")
    _require([int(r["step"]) for r in rows] == list(range(1, steps + 1)),
             "step column is not 1..steps")
    frac = [float(r["stalled_fraction"]) for r in rows]
    for f in frac:
        # one trial: each fraction is a count of stalled coordinates over dim
        _require(0.0 <= f <= 1.0 and abs(f * dim - round(f * dim)) < 1e-6,
                 f"stalled fraction {f!r} is not a count over {dim}")
    _require(m["measured_floor"] == frac[0], "floor is not the first step")
    tail = frac[-max(1, steps // 10):]
    key = "measured_plateau" if argv[0] == "stall-curve" else "measured_steady"
    _close(m[key], math.fsum(tail) / len(tail), 1e-12, key)
    if argv[0] != "stall-curve":
        return
    fmt, beta2 = _flag(argv, "--format", ""), float(_flag(argv, "--beta2", "0.999"))
    rho = oracle.rhohat(fmt, beta2)
    _close(m["rhohat"], rho, 1e-12, "rhohat")
    _close(m["theory_ss_nr"], oracle.p_nr(rho), 1e-9, "theory_ss_nr")
    _close(m["theory_ss_sr"], oracle.p_sr(rho), P_SR_TOL, "theory_ss_sr")
    mode = "theory_ss_nr" if _flag(argv, "--rounding", "nr") == "nr" else "theory_ss_sr"
    _require(m["theory_ss"] == m[mode], "theory_ss does not follow --rounding")
    for j, r in enumerate(rows, start=1):
        _close(float(r["theory_nr_transient"]), oracle.p_nr_transient(j, beta2, rho),
               1e-9, f"theory_nr_transient at step {j}")


# -------------------------------------------------------------- reset_train

def _reset_commands(steps: int) -> Callable[[int], Commands]:
    def commands(seed: int) -> Commands:
        seeds = ",".join(str(3 * seed + i) for i in range(3))
        return [
            ("reset_study", ["reset-study", "--format", "fp32,fp4", "--adaptive",
                             "--steps", str(steps), "--seeds", seeds]),
            ("skip_study", ["skip-study", "--steps", str(steps), "--seeds", seeds]),
        ]
    return commands


def _reset_work(commands: Commands) -> int:
    total = 0
    for _, argv in commands:
        steps = int(_flag(argv, "--steps", "0"))
        n_seeds = len(_flag(argv, "--seeds", "").split(","))
        # reset-study: configs x {none, periodic K*, adaptive}; skip-study: p grid
        cells = len(RESET_CONFIGS) * 3 if argv[0] == "reset-study" else len(SKIP_GRID)
        total += cells * n_seeds * steps * QUADRATIC_DIM * 2  # two moments
    return total


def _group_medians(rows: list, keys: tuple) -> dict:
    groups: dict = {}
    for r in rows:
        groups.setdefault(tuple(r[k] for k in keys), []).append(float(r["final_loss"]))
    return {k: statistics.median(v) for k, v in groups.items()}


def _check_reset(out: Path, name: str, argv: list) -> None:
    seeds = [int(s) for s in _flag(argv, "--seeds", "").split(",")]
    summary = _read_json(out / f"{name}.json")
    rows = _read_csv(out / f"{name}.csv")
    cfg, m = summary["config"], summary["metrics"]
    _require(cfg["seeds"] == seeds and cfg["steps"] == int(_flag(argv, "--steps", "")),
             "config does not echo the command")
    for r in rows:
        loss = float(r["final_loss"])
        _require(math.isfinite(loss) and loss > 0.0, f"bad final loss {loss!r}")
    if argv[0] == "skip-study":
        _require(len(rows) == len(SKIP_GRID) * len(seeds), "row count")
        for (p,), med in _group_medians(rows, ("p_skip",)).items():
            _close(m[f"median_final_loss@p={float(p):g}"], med, 1e-12, "median")
        # with no skips the study is plain fp32 Adam, the reset study's control
        control = {int(r["seed"]): float(r["final_loss"])
                   for r in _read_csv(out / "reset_study.csv")
                   if r["config"] == "fp32" and r["policy"] == "none"}
        for r in rows:
            if float(r["p_skip"]) == 0.0:
                _close(float(r["final_loss"]), control[int(r["seed"])], 1e-12,
                       "skip-study p=0 vs reset-study fp32/none")
        return
    _require(cfg["configs"] == list(RESET_CONFIGS), "configs")
    policies = cfg["policies"]
    _require(len(policies) == 3 and policies[0] == "none" and policies[2] == "adaptive"
             and policies[1].startswith("periodic"), f"policies {policies}")
    K = int(policies[1][len("periodic"):])
    _require(oracle.is_first_kstar_crossing(
        K, BETA2_DEFAULT, oracle.rhohat("fp4_e2m2u", BETA2_DEFAULT), 0.6),
        f"default period {K} is not K*")
    _require(len(rows) == len(RESET_CONFIGS) * 3 * len(seeds), "row count")
    for (c, p), med in _group_medians(rows, ("config", "policy")).items():
        _close(m[f"median@{c}/{p}"], med, 1e-12, "median")


# ---------------------------------------------------------- predictor_sweep

def beta2_grid(seed: int, n: int) -> list[float]:
    """n values in [0.99, 0.9999], one per equal stratum of log10(1 - beta2).

    Stratifying keeps the total K* scan length nearly the same for every
    seed while each seed still draws its own values.
    """
    rng = random.Random(seed)
    grid = [1.0 - 10.0 ** (-2.0 - 2.0 * (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(grid)
    return grid


def _predict_commands(n_beta2: int) -> Callable[[int], Commands]:
    def commands(seed: int) -> Commands:
        cmds = []
        for i, b in enumerate(beta2_grid(seed, n_beta2)):
            beta2 = ["--beta2", repr(b)]
            cmds += [
                (f"stall_{i:02d}", ["predict-stall"] + beta2),
                (f"window_{i:02d}", ["predict-window"] + beta2),
                (f"period_{i:02d}", ["predict-period", "--s0", "0.5,0.6,0.7"] + beta2),
            ]
        return cmds
    return commands


def _predict_work(commands: Commands) -> int:
    return len(commands) * len(PREDICT_FORMATS)  # one row per format


def _check_predictor(out: Path, name: str, argv: list) -> None:
    beta2 = float(_flag(argv, "--beta2", ""))
    rows = _read_csv(out / f"{name}.csv")
    _require([r["format"] for r in rows] == list(PREDICT_FORMATS), "format rows")
    for r in rows:
        fmt = r["format"]
        rho = oracle.rhohat(fmt, beta2)
        if argv[0] == "predict-stall":
            _require(float(r["epsilon"]) == oracle.epsilon(fmt), "epsilon")
            _close(float(r["rhohat"]), rho, 1e-12, f"{fmt} rhohat")
            _close(float(r["p_nr"]), oracle.p_nr(rho), 1e-9, f"{fmt} p_nr")
            _close(float(r["p_sr"]), oracle.p_sr(rho), P_SR_TOL, f"{fmt} p_sr")
        elif argv[0] == "predict-window":
            p_init = float(r["p_init"])
            for col, cell in r.items():
                if not col.startswith("jstar@"):
                    continue
                want = oracle.startup_window(float(col[6:]), p_init, beta2, rho)
                if want is None:
                    _require(cell == "unreachable", f"{fmt} {col}={cell}, expected unreachable")
                else:
                    # ceil() may land one step apart on a near-tie
                    _require(cell != "unreachable" and abs(int(cell) - want) <= 1,
                             f"{fmt} {col}={cell}, expected {want}")
        else:
            for col, cell in r.items():
                if col.startswith("Kstar@"):
                    _require(oracle.is_first_kstar_crossing(
                        int(cell), beta2, rho, float(col[6:])),
                        f"{fmt} {col}={cell} is not the first crossing")


def make_workloads(mc_steps: int = 200, mc_dim: int = 10_000,
                   reset_steps: int = 300, n_beta2: int = 20) -> dict:
    """Workloads at the benchmark's sizes; the self-tests pass smaller ones."""
    wls = [
        Workload(
            "mc_curves",
            "EMA element-updates",
            ("bf16", "fp8_e4m3", "fp4_e2m2u", "fp4_e2m1"),
            2.27, 0.154,
            _mc_commands(mc_steps, mc_dim),
            _mc_work,
            lambda out, cmds: _validate_each(_check_curve, out, cmds),
        ),
        Workload(
            "reset_train",
            "EMA element-updates",
            ("fp4_e2m1", "fp4_e2m2u"),
            2.20, 0.127,
            _reset_commands(reset_steps),
            _reset_work,
            lambda out, cmds: _validate_each(_check_reset, out, cmds),
        ),
        Workload(
            "predictor_sweep",
            "predictor rows",
            (),
            1.64, 0.139,
            _predict_commands(n_beta2),
            _predict_work,
            lambda out, cmds: _validate_each(_check_predictor, out, cmds),
        ),
    ]
    return {w.name: w for w in wls}
