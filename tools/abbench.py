"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/abbench.py BASE CHANGE --workload mc_curves --seeds 101-110 \
        [--seconds 30] [--log runs.jsonl]

BASE and CHANGE are repository checkouts (the parent commit and the change).
For each workload and seed the tool runs ``perfbench/run.py`` once in each
checkout, from that checkout's root, with the same arguments; which side
goes first alternates from seed to seed. Each run's last output line is the
benchmark's JSON result. The tool only invokes the benchmark and reads what
it prints.

For each workload and end-to-end metric of BASE's ``BENCHMARK.json`` it
prints each side's median and quartiles, the relative gap of the medians,
the pairs the change won (ties count for neither side) and two verdicts:

- ``gain``: at least ten pairs, the change won at least nine tenths of all
  pairs run (a pair in which either side printed no result counts as not
  won), its median is better than the base's by more than the distance
  between the base's quartiles, and it failed no more commands than the
  base;
- ``bound``: whether the change's median is worse than the base's by more
  than the metric's bound.

It also says whether every pair printed the same output digests and how
many commands each side failed (a run that printed no result counts as one
failed command), and states the host's load: the CPUs this process
may run on (as ``nproc`` counts them) and ``os.getloadavg()``, before the
first pair and after the last. ``--log`` appends one JSON line per run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list:
    """``101-110`` or ``5,9,12`` (or a mix) as a list of ints."""
    out = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        out.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its JSON result (None if it printed none), exit
    code and output digests."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    digests = sorted(line for line in lines if line.startswith("digest "))
    return {"returncode": proc.returncode, "result": result, "digests": digests,
            "stderr_tail": proc.stderr[-2000:] if result is None else ""}


def _quartiles(values: list) -> tuple:
    # the benchmark's own quartile rule
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _failed_commands(runs) -> int:
    # a run that printed no result failed at least one command
    return sum(r["result"]["failed"] if r["result"] else 1 for r in runs)


def summarize(workload: str, pairs: list, metrics: list) -> list:
    """Report lines for one workload; pairs holds (base, change) runs."""
    good = [(b, c) for b, c in pairs if b["result"] and c["result"]]
    base_failed = _failed_commands(b for b, _ in pairs)
    change_failed = _failed_commands(c for _, c in pairs)
    same = sum(b["digests"] == c["digests"] for b, c in good)
    lines = [f"== {workload}: {len(good)} complete pairs of {len(pairs)}, "
             f"failed commands base {base_failed} change {change_failed}, "
             f"pairs with equal digests {same}/{len(good)}"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [b["result"]["metrics"][name]["value"] for b, _ in good]
        change = [c["result"]["metrics"][name]["value"] for _, c in good]
        if not base:
            continue
        bq1, bmed, bq3 = _quartiles(base)
        cq1, cmed, cq3 = _quartiles(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        better_by = (bmed - cmed) if lower else (cmed - bmed)
        gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                and better_by > bq3 - bq1 and change_failed <= base_failed)
        worse = -better_by / bmed if bmed else 0.0
        lines.append(
            f"{name:12s} {m['unit']:4s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
            f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  "
            f"gap {(cmed - bmed) / bmed:+.2%}  won {wins}/{len(pairs)}  "
            f"gain {'holds' if gain else 'not shown'}  "
            f"bound {'EXCEEDED' if worse > m['bound'] else 'kept'} ({m['bound']:.0%})")
    return lines


def host_load(when: str) -> str:
    """CPUs available to this process and the 1/5/15-minute load averages."""
    load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
    return f"host {when}: nproc {len(os.sched_getaffinity(0))}, load average {load}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload name; repeat for several")
    ap.add_argument("--seeds", type=_seeds, required=True,
                    help="seeds as 101-110 or 5,9,12")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--log", type=Path, help="append one JSON line per run")
    args = ap.parse_args(argv)
    metrics = json.loads((args.base / "BENCHMARK.json").read_text())["end_to_end"]
    report = [host_load("before the first pair")]
    print(report[0], flush=True)
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            runs = {}
            for side in order:
                runs[side] = run_once(getattr(args, side), workload, seed, args.seconds)
                if args.log:
                    with args.log.open("a") as f:
                        f.write(json.dumps({"workload": workload, "seed": seed,
                                            "side": side, "first": order[0], **runs[side]})
                                + "\n")
            pairs.append((runs["base"], runs["change"]))
            b, c = (runs[s]["result"] for s in ("base", "change"))
            print(f"{workload} seed {seed} ({order[0]} first): run_s "
                  f"{b and b['metrics']['run_s']['value']} -> "
                  f"{c and c['metrics']['run_s']['value']}", flush=True)
        report += summarize(workload, pairs, metrics)
    report.append(host_load("after the last pair"))
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
