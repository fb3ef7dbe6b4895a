#!/usr/bin/env python3
"""emastall benchmark: one workload of CLI commands run in one process.

Run from the repository root:

    python3 perfbench/run.py --workload mc_curves --seed 0 --seconds 30 --trace 0

A workload is a closed loop: its commands run back to back through
``emastall.cli.main(argv)`` with ``--out`` in a temporary directory, and the
next pass starts when the previous one ends. One warm-up pass fills the
lazy caches and has its outputs checked (independent closed forms, the
outputs of the seed implementation, and the reference fingerprints at the
default seed); every later pass must write byte-identical outputs. Passes
repeat for ``--seconds``.

The host's speed drifts by tens of percent over seconds to minutes, so
``--trace 0`` runs every command twice, on the program and on the frozen
seed implementation in ``seedref/``, alternating which goes first. Times
are reported as the program/seed ratio scaled by the seed's seconds on the
reference host (``Workload.seed_pass_s``); the raw wall times are printed
too. ``--trace 1`` alternates untraced passes with passes traced from
outside the package (see ``tracer.py``) and reports the per-layer metrics.
The last line of output is one JSON object: correct, attempted, failed and
metrics. A fuller record, with the machine description, goes to
``.perfbench_out/``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# single-threaded BLAS/OpenMP, set before anything imports numpy
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import make_workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEEDREF = Path(__file__).resolve().parent / "seedref"
PROGRAM, SEED = "emastall", "emastall_seed"
OUT = ROOT / ".perfbench_out"
SETUP_PAIRS = 7

# time to import a package and build the grid tables of the given presets,
# measured inside a fresh interpreter
SETUP_CODE = """
import importlib, sys, time
t0 = time.perf_counter()
pkg = importlib.import_module(sys.argv[1])
importlib.import_module(sys.argv[1] + ".cli")
import numpy as np
x = np.linspace(-1.0, 1.0, 64)
for name in sys.argv[2:]:
    pkg.dequantize(pkg.quantize(x, pkg.get_format(name), pkg.ScalingScheme()))
print(time.perf_counter() - t0)
"""


@dataclasses.dataclass
class Pass:
    seconds: float  # program time, summed over commands
    failures: dict  # command name -> reason
    digests: dict  # output file -> sha256
    bytes_out: int
    seed_seconds: float = 0.0  # the seed implementation's time, when paired


def _run_command(cli, argv: list) -> str | None:
    """Run one CLI command in-process; returns why it failed, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) or e.code is None else 1
    except Exception:
        return "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    if rc:
        return f"exit code {rc}: {err.getvalue().strip()[:200]}"
    if "Traceback" in err.getvalue():
        return "traceback on stderr"
    return None


def _timed_command(cli, argv: list) -> tuple[float, str | None]:
    t0 = time.perf_counter()
    why = _run_command(cli, argv)
    return time.perf_counter() - t0, why


def run_pass(commands: list, out_dir: Path, seed_cli=None, seed_first: bool = False,
             seed_dir: Path | None = None) -> Pass:
    """Run the command list once on the program, writing under out_dir.

    With seed_cli, every command also runs on the seed implementation
    (outputs under seed_dir), right before or after the program's run:
    seed_first for even commands, the other way round for odd ones.
    """
    import emastall.cli as cli

    failures = {}
    seconds = seed_seconds = 0.0
    for i, (name, argv) in enumerate(commands):
        seed_now = seed_cli is not None and (i % 2 == 0) == seed_first
        if seed_now:
            seed_seconds += _seed_command(seed_cli, argv, seed_dir / name)
        dt, why = _timed_command(cli, argv + ["--out", str(out_dir / name)])
        seconds += dt
        if why:
            failures[name] = why
        if seed_cli is not None and not seed_now:
            seed_seconds += _seed_command(seed_cli, argv, seed_dir / name)
    digests, size = {}, 0
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            size += len(data)
            digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    stems = {Path(f).stem for f in digests}
    for name, _ in commands:
        if name not in stems:
            failures.setdefault(name, "wrote no output")
    return Pass(seconds, failures, digests, size, seed_seconds)


def _seed_command(seed_cli, argv: list, out: Path) -> float:
    dt, why = _timed_command(seed_cli, argv + ["--out", str(out)])
    if why:  # the frozen seed code fails only if the benchmark is broken
        raise RuntimeError(f"seed implementation failed on {argv}: {why}")
    return dt


class Bench:
    """Passes of one workload at one seed, with failure accounting."""

    def __init__(self, workload, seed: int, tmp: Path, ref: dict | None = None,
                 seed_cli=None):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.commands = workload.commands(seed)
        self.work = workload.work(self.commands)
        self.ref = ref
        self.seed_cli = seed_cli
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.notes: list = []
        self.digests: dict = {}
        self._n = 0

    def _run(self, paired: bool = False) -> tuple[Pass, Path]:
        out = self.tmp / f"pass{self._n}"
        p = run_pass(self.commands, out, self.seed_cli if paired else None,
                     self._n % 2 == 1, self.tmp / f"pass{self._n}.seed")
        self._n += 1
        return p, out

    def _cleanup(self, out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(out.with_name(out.name + ".seed"), ignore_errors=True)

    def _account(self, label: str, failures: dict) -> None:
        self.attempted += len(self.commands)
        self.failed += len(failures)
        self.problems += [f"{label} {n}: {why}" for n, why in sorted(failures.items())]

    def warm_up(self) -> None:
        p, out = self._run(paired=self.seed_cli is not None)
        failures = dict(p.failures)
        for name, why in self.workload.validate(out, self.commands).items():
            failures.setdefault(name, why)
        checks = []
        if self.seed_cli is not None:
            seed_out = out.with_name(out.name + ".seed")
            checks.append(("seed implementation", reference.entries(seed_out)))
        entry = (self.ref or {}).get(self.workload.name)
        if entry and entry["seed"] == self.seed and entry["commands"] == [
                [n, a] for n, a in self.commands]:
            checks.append(("stored reference", entry["files"]))
        for label, files in checks:
            bad, notes = reference.compare(out, files)
            self.notes += [f"{label}: {n}" for n in notes]
            for name, why in bad.items():
                failures.setdefault(name, f"{label}: {why}")
        self._account("warm-up", failures)
        self.digests = p.digests
        self._cleanup(out)

    def timed(self, label: str = "pass", paired: bool = False) -> Pass:
        p, out = self._run(paired)
        failures = dict(p.failures)
        for f in sorted(set(p.digests) | set(self.digests)):
            if p.digests.get(f) != self.digests.get(f):
                failures.setdefault(Path(f).stem, "output differs from the warm-up pass")
        self._account(label, failures)
        self._cleanup(out)
        return p


def _setup_seconds(package: str, formats: tuple) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(SEEDREF))))
    r = subprocess.run([sys.executable, "-c", SETUP_CODE, package, *formats], cwd=ROOT,
                       env=env, capture_output=True, text=True, timeout=120)
    if r.returncode:
        raise RuntimeError(f"{package} set-up failed: {r.stderr.strip()[-300:]}")
    return float(r.stdout.split()[-1])


def measure_setup(formats: tuple) -> tuple[list, list]:
    """Fresh-interpreter set-up seconds of the program and the seed
    implementation, in pairs that alternate which one goes first."""
    for package in (PROGRAM, SEED):  # the first run also compiles bytecode
        _setup_seconds(package, formats)
    program, seed = [], []
    for i in range(SETUP_PAIRS):
        order = (SEED, PROGRAM) if i % 2 else (PROGRAM, SEED)
        t = {package: _setup_seconds(package, formats) for package in order}
        program.append(t[PROGRAM])
        seed.append(t[SEED])
    return program, seed


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summarize(values: list, unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw wall times they were scaled from."""
    wl = bench.workload
    setup, seed_setup = measure_setup(wl.formats)
    bench.warm_up()
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        passes.append(bench.timed(paired=True))
        now = time.perf_counter()
        # stop where the run ends nearest the deadline, before or after it
        if now + (now - t0) / 2 >= deadline:
            break
    run_s = [wl.seed_pass_s * p.seconds / p.seed_seconds for p in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_s": summarize(run_s, "s"),
        "items_per_s": summarize([bench.work / t for t in run_s], "1/s"),
        "setup_s": summarize(
            [wl.seed_setup_s * a / b for a, b in zip(setup, seed_setup)], "s"),
        "peak_rss_mb": summarize([rss_mb], "MB"),
    }
    raw = {
        "wall_run_s": summarize([p.seconds for p in passes], "s"),
        "wall_seed_run_s": summarize([p.seed_seconds for p in passes], "s"),
        "wall_setup_s": summarize(setup, "s"),
        "wall_seed_setup_s": summarize(seed_setup, "s"),
    }
    return metrics, raw


LAYER_UNITS = {"calls": "count", "elems": "count", "blocks": "count", "steps": "count",
               "resets": "count", "draws": "count", "commands": "count",
               "bytes_out": "bytes", "stalled_frac": "ratio", "overhead_frac": "ratio",
               "us_per_step": "us"}


def layer_unit(name: str) -> str:
    key = name.split(".")[1]
    if key in LAYER_UNITS:
        return LAYER_UNITS[key]
    return "ns" if key == "ns_per_elem" else "s"


def run_traced(bench: Bench, seconds: float, spans_path: Path) -> dict:
    bench.warm_up()
    tracer = Tracer()
    plain, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(bench.timed().seconds)
        tracer.install()
        try:
            p = bench.timed("traced pass")
        finally:
            tracer.restore()
        spans = tracer.take_spans()
        traced.append(p.seconds)
        layers.append({**layer_metrics(spans), "cli.bytes_out": p.bytes_out})
    if tracer.missing:
        bench.notes.append(f"untraced names (not found): {', '.join(tracer.missing)}")
    with open(spans_path, "w") as fh:
        fh.write("name,start_ns,end_ns,parent\n")
        fh.writelines(f"{n},{t0},{t1},{p}\n" for n, t0, t1, p, _ in spans)
    metrics = {k: summarize([lm[k] for lm in layers], layer_unit(k)) for k in layers[0]}
    # pair each traced pass with the untraced pass just before it, so both
    # see the same host speed
    metrics["trace.overhead_frac"] = summarize(
        [t / p - 1.0 for t, p in zip(traced, plain)], "ratio")
    return metrics


def main(argv=None) -> int:
    wls = make_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wls))
    ap.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "emastall" / "__init__.py").is_file():
        print(f"error: no emastall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import emastall

    if Path(emastall.__file__).resolve().parent != (SRC / "emastall").resolve():
        print(f"error: emastall imported from {emastall.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(SEEDREF))
    import emastall_seed.cli as seed_cli

    wl = wls[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    try:
        bench = Bench(wl, args.seed, tmp, reference.load(), seed_cli)
        raw = {}
        if args.trace:
            metrics = run_traced(bench, args.seconds, OUT / f"{tag}.spans.csv")
        else:
            metrics, raw = run_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    machine = machine_info()
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(bench.commands)} commands per pass, {bench.work} {wl.item} per pass")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for f, d in sorted(bench.digests.items()):
        print(f"digest {d} {f}")
    for line in bench.notes:
        print("note: " + line)
    for line in bench.problems:
        print("FAILED " + line)
    print(f"commands attempted={bench.attempted} failed={bench.failed} "
          f"failed_frac={bench.failed / bench.attempted:.6g}")
    for k, s in {**metrics, **raw}.items():
        print(f"{k:<32} {s['unit']:<6} median={s['value']:.6g} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "machine": machine, "metrics": metrics, "wall": raw,
              "digests": bench.digests,
              "attempted": bench.attempted, "failed": bench.failed,
              "problems": bench.problems, "notes": bench.notes}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": s["value"], "unit": s["unit"]} for k, s in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
