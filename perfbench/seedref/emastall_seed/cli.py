"""Command-line front end for the predictors and experiment drivers.

Every command prints its fully resolved config (defaults expanded) before
running, so outputs are self-describing, and writes CSV plus a JSON summary
when given an output path. A JSON config file passed with --config
overrides command-line flags. The default output directory comes from
EMASTALL_OUTDIR (falling back to the working directory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .engine import AdamHyper, ResetPolicy
from .formats import RoundingMode, get_format
from .simlab import (
    GradientStreamSpec,
    NoisyQuadratic,
    SynthLogistic,
    default_ema_config,
    moment_configs,
    run_first_moment_curve,
    run_reset_study,
    run_skip_study,
    run_stall_curve,
)
from .theory import (
    TheoryInputs,
    ThresholdUnreachableError,
    p_stall_nr_ss,
    p_stall_sr_ss,
    reset_period_Kstar,
    startup_window,
)

DEFAULT_FORMATS = ("bf16", "fp8_e4m3", "fp4_e2m2u")
# reference first-step stalled fractions from LLM pre-training measurements
PAPER_P_INIT = {"bf16": 0.17, "fp8_e4m3": 0.53, "fp4_e2m2u": 0.97}


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _seed_list(text: str) -> list[int]:
    vals = _int_list(text)
    if len(vals) == 1 and "," not in text:
        return list(range(vals[0]))
    return vals


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="emastall",
        description="Stall predictors and simulations for low-precision EMA states.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_config_flag(sp):
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON file whose entries override command-line flags")

    def add_common(sp, formats_default=",".join(DEFAULT_FORMATS)):
        add_config_flag(sp)
        sp.add_argument("--format", dest="formats", type=_str_list,
                        default=_str_list(formats_default))
        sp.add_argument("--beta2", type=float, default=0.999)
        sp.add_argument("--out", type=Path, default=None,
                        help="output base path (suffixes .csv/.json added)")
        sp.add_argument("--json", action="store_true",
                        help="print the JSON summary instead of the text table")

    sp = sub.add_parser("predict-stall", help="steady-state stall probabilities")
    add_common(sp)

    sp = sub.add_parser("predict-window", help="startup windows j*")
    add_common(sp)
    sp.add_argument("--p0", type=_float_list, default=[0.5, 0.8, 0.9, 0.95])
    sp.add_argument("--p-init", dest="p_init", type=_float_list, default=None,
                    help="one value per format; defaults to the measured floors")

    sp = sub.add_parser("predict-period", help="heuristic reset periods K*")
    add_common(sp)
    sp.add_argument("--s0", type=_float_list, default=[0.6])

    sp = sub.add_parser("stall-curve", help="Monte Carlo stall curve vs theory")
    add_common(sp, formats_default="bf16")
    sp.add_argument("--rounding", choices=["nr", "sr"], default="nr")
    sp.add_argument("--dim", type=int, default=10000)
    sp.add_argument("--steps", type=int, default=5000)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--preset", choices=["quick", "full"], default=None)

    sp = sub.add_parser("first-moment", help="first-moment stall curve")
    add_common(sp, formats_default="fp4_e2m1")
    sp.add_argument("--rounding", choices=["nr", "sr"], default="nr")
    sp.add_argument("--beta1", type=float, default=0.9)
    sp.add_argument("--mu", type=float, default=1.0)
    sp.add_argument("--dim", type=int, default=10000)
    sp.add_argument("--steps", type=int, default=3000)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--preset", choices=["quick", "full"], default=None)

    sp = sub.add_parser("skip-study", help="forced-skip stress test")
    add_config_flag(sp)
    sp.add_argument("--p-skip", dest="p_skip", type=_float_list,
                    default=[0.0, 0.5, 0.9])
    sp.add_argument("--target", choices=["first", "second"], default="second")
    sp.add_argument("--steps", type=int, default=4000)
    sp.add_argument("--seeds", type=_seed_list, default=[0, 1, 2])
    sp.add_argument("--problem", choices=["quadratic", "logistic"],
                    default="quadratic")
    sp.add_argument("--lr", type=float, default=0.01)
    sp.add_argument("--out", type=Path, default=None)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--preset", choices=["quick", "full"], default=None)

    sp = sub.add_parser("reset-study", help="reset-benefit matrix")
    add_config_flag(sp)
    sp.add_argument("--format", dest="formats", type=_str_list,
                    default=["fp32", "fp4"])
    sp.add_argument("--beta2", type=float, default=0.999)
    sp.add_argument("--periods", type=_int_list, default=None,
                    help="periodic-reset periods; default is theory K*")
    sp.add_argument("--adaptive", action="store_true",
                    help="add the adaptive reset policy")
    sp.add_argument("--steps", type=int, default=8000)
    sp.add_argument("--seeds", type=_seed_list, default=[0, 1, 2, 3, 4])
    sp.add_argument("--lr", type=float, default=0.01)
    sp.add_argument("--s0", type=float, default=0.6)
    sp.add_argument("--out", type=Path, default=None)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--preset", choices=["quick", "full"], default=None)
    return p


def _apply_config_file(args: argparse.Namespace, path: Path) -> None:
    # config-file entries override flags
    try:
        overrides = json.loads(path.read_text())
    except OSError as e:
        raise SystemExit(f"cannot read config {path}: {e}")
    for key, val in overrides.items():
        dest = key.replace("-", "_")
        if dest == "format" or dest == "formats":
            dest, val = "formats", list(val) if isinstance(val, list) else _str_list(val)
        if dest == "out":
            val = Path(val)
        if not hasattr(args, dest):
            raise SystemExit(f"unknown config key {key!r}")
        setattr(args, dest, val)


def _resolve_out(args: argparse.Namespace, default_name: str) -> Path | None:
    out = getattr(args, "out", None)
    if out is not None:
        return out
    outdir = os.environ.get("EMASTALL_OUTDIR")
    if outdir:
        return Path(outdir) / default_name
    return None


def _print_config(name: str, resolved: dict) -> None:
    print(f"config: {json.dumps({'command': name, **resolved}, sort_keys=True)}")


def _format_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _emit_table(rows: list[dict], args, out: Path | None) -> None:
    cols = list(rows[0].keys())
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        widths = [
            max(len(c), *(len(_format_cell(r[c])) for r in rows)) for c in cols
        ]
        print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for r in rows:
            print("  ".join(_format_cell(r[c]).ljust(w) for c, w in zip(cols, widths)))
    if out is not None:
        lines = [",".join(cols)]
        for r in rows:
            lines.append(",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c])
                                  for c in cols))
        _write_text(out.with_suffix(".csv"), "\n".join(lines) + "\n")


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise SystemExit(f"cannot write {path}: {e}")


def _save_result(result, out: Path | None) -> None:
    if out is None:
        return
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        result.save_csv(out.with_suffix(".csv"))
        result.save_json(out.with_suffix(".json"))
    except OSError as e:
        raise SystemExit(f"cannot write {out}: {e}")
    print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")


def _require_formats(args) -> list[str]:
    if not args.formats:
        raise SystemExit("at least one --format is required")
    for name in args.formats:
        get_format(name)
    return args.formats


def cmd_predict_stall(args) -> int:
    formats = _require_formats(args)
    _print_config("predict-stall", {"formats": formats, "beta2": args.beta2})
    rows = []
    for name in formats:
        fmt = get_format(name)
        rho = TheoryInputs(beta2=args.beta2, format=fmt).rhohat
        rows.append(
            {
                "format": name,
                "epsilon": fmt.epsilon,
                "rhohat": rho,
                "p_nr": p_stall_nr_ss(rho),
                "p_sr": p_stall_sr_ss(rho),
            }
        )
    _emit_table(rows, args, _resolve_out(args, "predict_stall"))
    return 0


def cmd_predict_window(args) -> int:
    formats = _require_formats(args)
    if not args.p0:
        raise SystemExit("at least one --p0 value is required")
    p_inits = args.p_init
    if p_inits is None:
        p_inits = [PAPER_P_INIT.get(name, 0.0) for name in formats]
    if len(p_inits) != len(formats):
        raise SystemExit("--p-init needs one value per format")
    _print_config(
        "predict-window",
        {"formats": formats, "beta2": args.beta2, "p0": args.p0, "p_init": p_inits},
    )
    rows = []
    for name, p_init in zip(formats, p_inits):
        inputs = TheoryInputs(
            beta2=args.beta2, format=get_format(name), p_init=p_init
        )
        row: dict = {"format": name, "p_init": p_init}
        for p0 in args.p0:
            try:
                row[f"jstar@{p0:g}"] = startup_window(p0, inputs)
            except ThresholdUnreachableError:
                row[f"jstar@{p0:g}"] = "unreachable"
        rows.append(row)
    _emit_table(rows, args, _resolve_out(args, "predict_window"))
    return 0


def cmd_predict_period(args) -> int:
    formats = _require_formats(args)
    _print_config(
        "predict-period", {"formats": formats, "beta2": args.beta2, "s0": args.s0}
    )
    rows = []
    for name in formats:
        row: dict = {"format": name}
        for s0 in args.s0:
            inputs = TheoryInputs(beta2=args.beta2, format=get_format(name), s0=s0)
            row[f"Kstar@{s0:g}"] = reset_period_Kstar(inputs)
        rows.append(row)
    _emit_table(rows, args, _resolve_out(args, "predict_period"))
    return 0


def _apply_preset(args) -> None:
    if getattr(args, "preset", None) == "quick":
        args.steps = min(args.steps, 400)
        if hasattr(args, "dim"):
            args.dim = min(args.dim, 512)
        if hasattr(args, "trials"):
            args.trials = 1
        if hasattr(args, "seeds"):
            args.seeds = args.seeds[:3]


def cmd_stall_curve(args) -> int:
    formats = _require_formats(args)
    _apply_preset(args)
    mode = RoundingMode.NEAREST_EVEN if args.rounding == "nr" else RoundingMode.STOCHASTIC
    rc = 0
    for name in formats:
        spec = GradientStreamSpec(dimension=args.dim, seed=args.seed)
        cfg = default_ema_config(name, args.beta2, mode)
        _print_config(
            "stall-curve",
            {
                "format": name,
                "rounding": args.rounding,
                "beta2": args.beta2,
                "dim": args.dim,
                "steps": args.steps,
                "trials": args.trials,
                "seed": args.seed,
            },
        )
        result = run_stall_curve(spec, cfg, args.steps, args.trials)
        m = result.metrics
        print(
            f"{name}: floor={m['measured_floor']:.4f} "
            f"plateau={m['measured_plateau']:.4f} theory={m.get('theory_ss', 0):.4f} "
            f"seed={args.seed}"
        )
        out = _resolve_out(args, f"stall_curve_{name}_{args.rounding}")
        if out is not None and len(formats) > 1:
            out = out.with_name(f"{out.name}_{name}_{args.rounding}")
        _save_result(result, out)
        if args.json:
            print(json.dumps(result.summary(), sort_keys=True))
    return rc


def cmd_first_moment(args) -> int:
    formats = _require_formats(args)
    _apply_preset(args)
    mode = RoundingMode.NEAREST_EVEN if args.rounding == "nr" else RoundingMode.STOCHASTIC
    for name in formats:
        fmt = get_format(name)
        if not fmt.sign_bits:
            raise SystemExit(f"first-moment study needs a signed format, got {name}")
        spec = GradientStreamSpec(dimension=args.dim, seed=args.seed, mu=args.mu)
        cfg = default_ema_config(name, args.beta1, mode)
        _print_config(
            "first-moment",
            {
                "format": name,
                "rounding": args.rounding,
                "beta1": args.beta1,
                "mu": args.mu,
                "dim": args.dim,
                "steps": args.steps,
                "trials": args.trials,
                "seed": args.seed,
            },
        )
        result = run_first_moment_curve(spec, cfg, args.steps, args.trials)
        m = result.metrics
        print(
            f"{name}: floor={m['measured_floor']:.4f} "
            f"steady={m['measured_steady']:.4f} seed={args.seed}"
        )
        out = _resolve_out(args, f"first_moment_{name}_{args.rounding}")
        _save_result(result, out)
        if args.json:
            print(json.dumps(result.summary(), sort_keys=True))
    return 0


def _make_problem(name: str):
    if name == "logistic":
        return SynthLogistic()
    return NoisyQuadratic()


def cmd_skip_study(args) -> int:
    _apply_preset(args)
    problem = _make_problem(args.problem)
    _print_config(
        "skip-study",
        {
            "problem": args.problem,
            "p_skip": args.p_skip,
            "target": args.target,
            "steps": args.steps,
            "seeds": args.seeds,
            "lr": args.lr,
        },
    )
    result = run_skip_study(
        problem,
        tuple(args.p_skip),
        args.target,
        args.steps,
        tuple(args.seeds),
        AdamHyper(lr=args.lr),
    )
    for key in sorted(result.metrics):
        print(f"{key}: {result.metrics[key]:.6g}")
    _save_result(result, _resolve_out(args, f"skip_study_{args.target}"))
    if args.json:
        print(json.dumps(result.summary(), sort_keys=True))
    return 0


def cmd_reset_study(args) -> int:
    _apply_preset(args)
    problem = NoisyQuadratic()
    hyper = AdamHyper(lr=args.lr, beta2=args.beta2)
    configs = []
    for name in args.formats:
        key = None if name in ("fp32", "none") else name
        label = name
        for rounding, tag in (
            (RoundingMode.NEAREST_EVEN, "nr"),
            (RoundingMode.STOCHASTIC, "sr"),
        ):
            if key is None and tag == "sr":
                continue
            cfg_m, cfg_v = moment_configs(key, hyper, rounding)
            configs.append((f"{label}_{tag}" if key else "fp32", cfg_m, cfg_v))
    periods = args.periods
    if periods is None:
        # theory K* for the narrowest quantized format in the run
        quantized = [n for n in args.formats if n not in ("fp32", "none")]
        if quantized:
            name = quantized[0]
            fmt = get_format("fp4_e2m2u" if name == "fp4" else name)
            periods = [
                reset_period_Kstar(
                    TheoryInputs(beta2=args.beta2, format=fmt, s0=args.s0)
                )
            ]
        else:
            periods = [1000]
    policies = [("none", ResetPolicy.none())]
    for K in periods:
        policies.append((f"periodic{K}", ResetPolicy.periodic(K)))
    if args.adaptive:
        policies.append(
            ("adaptive", ResetPolicy.adaptive(beta2=args.beta2, s0=args.s0))
        )
    _print_config(
        "reset-study",
        {
            "formats": args.formats,
            "beta2": args.beta2,
            "periods": periods,
            "adaptive": args.adaptive,
            "steps": args.steps,
            "seeds": args.seeds,
            "lr": args.lr,
            "s0": args.s0,
        },
    )
    result = run_reset_study(
        problem, configs, policies, args.steps, tuple(args.seeds), hyper
    )
    for key in sorted(result.metrics):
        print(f"{key}: {result.metrics[key]:.6g}")
    winner = min(result.metrics, key=result.metrics.get)
    print(f"best cell: {winner}")
    _save_result(result, _resolve_out(args, "reset_study"))
    if args.json:
        print(json.dumps(result.summary(), sort_keys=True))
    return 0


_HANDLERS = {
    "predict-stall": cmd_predict_stall,
    "predict-window": cmd_predict_window,
    "predict-period": cmd_predict_period,
    "stall-curve": cmd_stall_curve,
    "first-moment": cmd_first_moment,
    "skip-study": cmd_skip_study,
    "reset-study": cmd_reset_study,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        _apply_config_file(args, args.config)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
