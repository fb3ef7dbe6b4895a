"""Command-line front end for the predictors and experiment drivers.

Each command's subparser is the one description of its settings: the
``config:`` line the command prints (every flag but --config, --out, --json
and --preset, after defaults, --config and --preset, with the values the
command resolves), the keys a --config JSON file may set, and the usage
under which an unknown flag is reported. Commands write CSV plus a JSON
summary when given an output path; the default output directory comes
from EMASTALL_OUTDIR (falling back to the working directory).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

# the experiment commands import engine and simlab when they run, so the
# predict commands and --help never load them
from .csvio import write_csv
from .formats import RoundingMode, get_format
from .theory import (
    TheoryInputs,
    period_columns,
    reset_period_Kstar,
    stall_columns,
    window_columns,
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
    if any(v < 0 for v in vals):
        raise argparse.ArgumentTypeError(f"seeds must be non-negative, got {text!r}")
    if len(vals) == 1 and "," not in text:
        seeds = list(range(vals[0]))
        if seeds:  # an empty list fails as "at least one seed is required"
            print(f"note: seeds {text.strip()} means seeds {seeds}; "
                  f"write '{vals[0]},' for that one seed", file=sys.stderr)
        return seeds
    return vals


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help, usage and error writes let a closed
    pipe's BrokenPipeError reach ``main``; argparse's own drops it, so
    ``--help`` into a closed pipe exited 0 when stdout was unbuffered.
    Subparsers take the class of their parent."""

    def _print_message(self, message, file=None):
        if message:
            try:
                (file or sys.stderr).write(message)
            except BrokenPipeError:
                raise
            except (AttributeError, OSError):
                pass


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="emastall",
        description="Stall predictors and simulations for low-precision EMA states.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON file whose entries override command-line flags")
        sp.add_argument("--out", type=Path, default=None,
                        help="output base path (suffixes .csv/.json added)")
        sp.add_argument("--json", action="store_true",
                        help="print the JSON summary instead of the text table")

    def add_formats(sp, formats_default):
        add_io(sp)
        sp.add_argument("--format", dest="formats", type=_str_list,
                        default=_str_list(formats_default))

    def add_common(sp, formats_default=",".join(DEFAULT_FORMATS)):
        add_formats(sp, formats_default)
        sp.add_argument("--beta2", type=float, default=0.999)

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
    sp.add_argument("--preset", choices=["quick"], default=None)

    sp = sub.add_parser("first-moment", help="first-moment stall curve")
    add_formats(sp, "fp4_e2m1")
    sp.add_argument("--rounding", choices=["nr", "sr"], default="nr")
    sp.add_argument("--beta1", type=float, default=0.9)
    sp.add_argument("--mu", type=float, default=1.0)
    sp.add_argument("--dim", type=int, default=10000)
    sp.add_argument("--steps", type=int, default=3000)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--preset", choices=["quick"], default=None)

    sp = sub.add_parser("skip-study", help="forced-skip stress test")
    add_io(sp)
    sp.add_argument("--p-skip", dest="p_skip", type=_float_list,
                    default=[0.0, 0.5, 0.9])
    sp.add_argument("--target", choices=["first", "second"], default="second")
    sp.add_argument("--steps", type=int, default=4000)
    sp.add_argument("--seeds", type=_seed_list, default=[0, 1, 2])
    sp.add_argument("--problem", choices=["quadratic", "logistic"],
                    default="quadratic")
    sp.add_argument("--lr", type=float, default=0.01)
    sp.add_argument("--preset", choices=["quick"], default=None)

    sp = sub.add_parser("reset-study", help="reset-benefit matrix")
    add_common(sp, formats_default="fp32,fp4")
    sp.add_argument("--periods", type=_int_list, default=None,
                    help="periodic-reset periods; default is theory K*")
    sp.add_argument("--adaptive", action="store_true",
                    help="add the adaptive reset policy")
    sp.add_argument("--steps", type=int, default=8000)
    sp.add_argument("--seeds", type=_seed_list, default=[0, 1, 2, 3, 4])
    sp.add_argument("--lr", type=float, default=0.01)
    sp.add_argument("--s0", type=float, default=0.6)
    sp.add_argument("--preset", choices=["quick"], default=None)
    return p


def _config_value(action: argparse.Action, key: str, val):
    """Parse one config entry with its flag's own type and choices."""
    if action.nargs == 0:  # store_true flags
        if not isinstance(val, bool):
            raise SystemExit(f"config {key!r}: expected true or false, got {val!r}")
        return val
    if val is None and action.default is None:
        return None
    # a list becomes the flag's comma-separated text; the trailing comma keeps
    # a one-element list a list (a bare --seeds n means range(n))
    text = "".join(f"{v}," for v in val) if isinstance(val, list) else str(val)
    try:
        parsed = action.type(text) if action.type else text
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise SystemExit(f"config {key!r}: invalid value {val!r}") from None
    if action.choices is not None and parsed not in action.choices:
        raise SystemExit(f"config {key!r}: {val!r} is not one of {list(action.choices)}")
    return parsed


def _apply_config_file(
    args: argparse.Namespace, path: Path, actions: list[argparse.Action]
) -> None:
    # config-file entries override flags; a key names a flag or its dest
    try:
        overrides = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise SystemExit(f"cannot read config {path}: {e}")
    if not isinstance(overrides, dict):
        raise SystemExit(f"config {path} must hold a JSON object")
    by_key = {}
    for action in actions:
        if action.dest in ("help", "config"):
            continue
        by_key[action.dest] = action
        for opt in action.option_strings:
            by_key[opt.lstrip("-").replace("-", "_")] = action
    for key, val in overrides.items():
        action = by_key.get(key.replace("-", "_"))
        if action is None:
            raise SystemExit(f"unknown config key {key!r}")
        setattr(args, action.dest, _config_value(action, key, val))


def _resolve_out(args: argparse.Namespace, default_name: str) -> Path | None:
    out = getattr(args, "out", None)
    if out is not None:
        return out
    outdir = os.environ.get("EMASTALL_OUTDIR")
    if outdir:
        return Path(outdir) / default_name
    return None


# flags the printed config leaves out (--preset shows in the sizes it sets)
_IO_DESTS = ("help", "config", "out", "json", "preset")


def _print_config(args, **resolved) -> None:
    """Print the command's settings: every flag of its parser but the I/O
    ones, as ``args`` holds it after defaults, --config and --preset, with
    the values the handler resolved in its place. A curve command prints one
    line per format, with ``format`` in place of ``formats``."""
    settings = {
        a.dest: getattr(args, a.dest)
        for a in _command_parser(args.command)._actions
        if a.dest not in _IO_DESTS
    }
    if "format" in resolved:
        del settings["formats"]
    settings.update(resolved)
    print(f"config: {json.dumps({'command': args.command, **settings}, sort_keys=True)}")


def _format_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _emit_table(rows: list[dict], args) -> None:
    if args.json:
        print(json.dumps(rows, sort_keys=True))
        return
    cols = list(rows[0])
    widths = [max(len(c), *(len(_format_cell(r[c])) for r in rows)) for c in cols]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rows:
        print("  ".join(_format_cell(r[c]).ljust(w) for c, w in zip(cols, widths)))


def _save_table(rows: list[dict], out: Path | None) -> None:
    if out is None:
        return
    cols = list(rows[0])
    path = out.with_suffix(".csv")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(path, cols, ([r[c] for c in cols] for r in rows))
    except OSError as e:
        raise SystemExit(f"cannot write {path}: {e}")


def _save_result(result, args, out: Path | None) -> None:
    """Write BASE.csv and BASE.json when there is an output base, then
    print the summary under --json."""
    if out is not None:
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            result.save_csv(out.with_suffix(".csv"))
            result.save_json(out.with_suffix(".json"))
        except OSError as e:
            raise SystemExit(f"cannot write {out}: {e}")
        print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")
    if args.json:
        print(json.dumps(result.summary(), sort_keys=True))


def _require_formats(args) -> list[str]:
    if not args.formats:
        raise SystemExit("at least one --format is required")
    for i, name in enumerate(args.formats):
        get_format(name)
        if name in args.formats[:i]:
            raise ValueError(f"--format lists {name} twice")
    return args.formats


# the columns each predict command adds after "format"; a command runs only
# the predictors its own table prints
_PREDICT_COLUMNS = {
    "predict-stall": lambda inputs, args: stall_columns(inputs),
    "predict-window": lambda inputs, args: window_columns(inputs, args.p0),
    "predict-period": lambda inputs, args: period_columns(inputs, args.s0),
}


def cmd_predict(args) -> int:
    formats = _require_formats(args)
    resolved = {}
    if args.command == "predict-window":
        if not args.p0:
            raise SystemExit("at least one --p0 value is required")
        p_inits = args.p_init
        if p_inits is None:
            p_inits = [PAPER_P_INIT.get(name, 0.0) for name in formats]
        if len(p_inits) != len(formats):
            raise SystemExit("--p-init needs one value per format")
        resolved["p_init"] = p_inits
    else:
        if args.command == "predict-period" and not args.s0:
            raise SystemExit("at least one --s0 value is required")
        p_inits = [0.0] * len(formats)
    columns = _PREDICT_COLUMNS[args.command]
    rows = []
    for name, p_init in zip(formats, p_inits):
        inputs = TheoryInputs(beta2=args.beta2, format=get_format(name), p_init=p_init)
        rows.append({"format": name, **columns(inputs, args)})
    # printed once the predictors have checked their input, so that bad
    # input prints only its error
    _print_config(args, **resolved)
    _emit_table(rows, args)
    _save_table(rows, _resolve_out(args, args.command.replace("-", "_")))
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


def _curve_out(args, name: str) -> Path | None:
    """Output base of one format's curve. With several formats, --out BASE
    becomes BASE_<format>_<rounding>; the EMASTALL_OUTDIR default name
    carries both already."""
    tag = f"{name}_{args.rounding}"
    if args.out is not None and len(args.formats) > 1:
        return args.out.with_name(f"{args.out.name}_{tag}")
    return _resolve_out(args, f"{args.command.replace('-', '_')}_{tag}")


def cmd_stall_curve(args) -> int:
    from .simlab import GradientStreamSpec, default_ema_config, run_stall_curves

    formats = _require_formats(args)
    _apply_preset(args)
    mode = RoundingMode(args.rounding)
    spec = GradientStreamSpec(dimension=args.dim, seed=args.seed)
    results = run_stall_curves(
        spec, [default_ema_config(name, args.beta2, mode) for name in formats],
        args.steps, args.trials,
    )
    for name, result in zip(formats, results):
        _print_config(args, format=name)
        m = result.metrics
        print(
            f"{name}: floor={m['measured_floor']:.4f} "
            f"plateau={m['measured_plateau']:.4f} theory={m.get('theory_ss', 0):.4f} "
            f"seed={args.seed}"
        )
        _save_result(result, args, _curve_out(args, name))
    return 0


def cmd_first_moment(args) -> int:
    from .simlab import GradientStreamSpec, default_ema_config, run_first_moment_curves

    formats = _require_formats(args)
    for name in formats:
        if not get_format(name).sign_bits:
            raise SystemExit(f"first-moment study needs a signed format, got {name}")
    _apply_preset(args)
    mode = RoundingMode(args.rounding)
    spec = GradientStreamSpec(dimension=args.dim, seed=args.seed, mu=args.mu)
    results = run_first_moment_curves(
        spec, [default_ema_config(name, args.beta1, mode) for name in formats],
        args.steps, args.trials,
    )
    for name, result in zip(formats, results):
        _print_config(args, format=name)
        m = result.metrics
        print(
            f"{name}: floor={m['measured_floor']:.4f} "
            f"steady={m['measured_steady']:.4f} seed={args.seed}"
        )
        _save_result(result, args, _curve_out(args, name))
    return 0


def _make_problem(name: str):
    from .simlab import NoisyQuadratic, SynthLogistic

    if name == "logistic":
        return SynthLogistic()
    return NoisyQuadratic()


def cmd_skip_study(args) -> int:
    from .engine import AdamHyper
    from .simlab import _check_skip_study, run_skip_study

    _apply_preset(args)
    problem = _make_problem(args.problem)
    hyper = AdamHyper(lr=args.lr)
    _check_skip_study(tuple(args.p_skip), args.target, args.steps, tuple(args.seeds))
    _print_config(args)
    result = run_skip_study(
        problem,
        tuple(args.p_skip),
        args.target,
        args.steps,
        tuple(args.seeds),
        hyper,
    )
    for key in sorted(result.metrics):
        print(f"{key}: {result.metrics[key]:.6g}")
    _save_result(result, args, _resolve_out(args, f"skip_study_{args.target}"))
    return 0


def cmd_reset_study(args) -> int:
    from .engine import AdamHyper, ResetPolicy
    from .simlab import NoisyQuadratic, _check_reset_study, moment_configs, run_reset_study

    # its names are storage labels (fp32, none, fp4), which the study checks
    if not args.formats:
        raise SystemExit("at least one --format is required")
    # checked here: with no --adaptive and no theory K*, nothing else reads it
    if not 0.0 <= args.s0 < 1.0:
        raise ValueError("s0 must be in [0, 1)")
    _apply_preset(args)
    problem = NoisyQuadratic()
    hyper = AdamHyper(lr=args.lr)
    configs = []
    for name in args.formats:
        key = None if name in ("fp32", "none") else name
        for rounding in RoundingMode:
            if key is None and rounding is RoundingMode.STOCHASTIC:
                continue
            cfg_m, cfg_v = moment_configs(key, rounding, beta2=args.beta2)
            configs.append((f"{name}_{rounding.value}" if key else "fp32", cfg_m, cfg_v))
    periods = args.periods
    if periods is None:
        # theory K* of each second-moment storage format of the quantized
        # configs (fp4 stores it in fp4_e2m2u), each distinct one once, in
        # ascending order, so the order of --format does not matter
        quantized = {cfg_v.format for _, _, cfg_v in configs if cfg_v.format}
        periods = sorted({
            reset_period_Kstar(TheoryInputs(beta2=args.beta2, format=fmt, s0=args.s0))
            for fmt in quantized
        }) or [1000]
    policies = [("none", ResetPolicy.none())]
    for K in periods:
        policies.append((f"periodic{K}", ResetPolicy.periodic(K)))
    if args.adaptive:
        policies.append(("adaptive", ResetPolicy.adaptive(s0=args.s0)))
    _check_reset_study(configs, policies, args.steps, tuple(args.seeds))
    _print_config(args, periods=periods)
    result = run_reset_study(
        problem, configs, policies, args.steps, tuple(args.seeds), hyper
    )
    for key in sorted(result.metrics):
        print(f"{key}: {result.metrics[key]:.6g}")
    winner = min(result.metrics, key=result.metrics.get)
    print(f"best cell: {winner}")
    _save_result(result, args, _resolve_out(args, "reset_study"))
    return 0


_HANDLERS = {
    "predict-stall": cmd_predict,
    "predict-window": cmd_predict,
    "predict-period": cmd_predict,
    "stall-curve": cmd_stall_curve,
    "first-moment": cmd_first_moment,
    "skip-study": cmd_skip_study,
    "reset-study": cmd_reset_study,
}


# the parser main uses: built on its first call, not at import, then shared
_parser = functools.cache(build_parser)


def _command_parser(command: str) -> argparse.ArgumentParser:
    """The subparser of one command; argparse keeps them in a private action."""
    commands = next(
        a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return commands.choices[command]


def _parse_args(argv) -> argparse.Namespace:
    # parse_args would report a command's unknown flags under the root usage
    args, extras = _parser().parse_known_args(argv)
    parser = _command_parser(args.command)
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if args.config:
        _apply_config_file(args, args.config, parser._actions)
    return args


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(argv)
            return _HANDLERS[args.command](args)
        except (ValueError, KeyError) as e:
            # str() of a KeyError is the repr of its message
            message = e.args[0] if isinstance(e, KeyError) and e.args else e
            print(f"error: {message}", file=sys.stderr)
            return 1
        finally:
            # a closed pipe raises here, not at exit; this covers what was
            # printed before a SystemExit too, such as --help's text
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; what is left goes to devnull, so the flush at
        # exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
