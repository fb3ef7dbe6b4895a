"""Reference outputs of the default seed, stored as digests and fingerprints.

A file's fingerprint holds every JSON leaf and, per CSV column, the row
count, sum and position-weighted sum (or a digest of a text column). An
output whose sha256 matches the reference passes. One whose digest differs
passes only if every fingerprint value agrees to 1e-9 relative, so that
last-bit changes in closed-form columns are reported, not failed, while
any changed count, label or stalled fraction fails.

Regenerate (only when the workloads themselves change):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 0
PATH = Path(__file__).resolve().parent / "reference_seed0.json"
REL_TOL = 1e-9


def _flatten(obj, prefix: str, out: dict) -> dict:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}.{i}", out)
    else:
        out[prefix] = obj
    return out


def fingerprint(path: Path) -> dict:
    if path.suffix == ".json":
        return _flatten(json.loads(path.read_text()), "", {})
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    fp: dict = {}
    for j, col in enumerate(header):
        cells = [r[j] for r in rows]
        try:
            nums = [float(c) for c in cells]
        except ValueError:
            fp[col] = hashlib.sha256("\n".join(cells).encode()).hexdigest()
            continue
        fp[f"{col}#n"] = len(nums)
        fp[f"{col}#sum"] = math.fsum(nums)
        fp[f"{col}#wsum"] = math.fsum((i + 1) * x for i, x in enumerate(nums))
    return fp


def _same(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        return a == b
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def compare(out: Path, files: dict) -> tuple[dict, list]:
    """Check a pass's outputs against reference entries.

    Returns ({command name: reason} for failures, notes)."""
    failures, notes = {}, []
    present = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    for f in sorted(present - set(files)):
        failures[Path(f).stem] = f"unexpected output {f}"
    for f, want in sorted(files.items()):
        name = Path(f).stem
        if f not in present:
            failures[name] = f"missing output {f}"
            continue
        if hashlib.sha256((out / f).read_bytes()).hexdigest() == want["sha256"]:
            continue
        got = fingerprint(out / f)
        keys = sorted(set(got) | set(want["values"]))
        bad = [k for k in keys if not _same(got.get(k), want["values"].get(k))]
        if bad:
            k = bad[0]
            failures[name] = (f"{f} differs from the reference at {k}: "
                              f"{got.get(k)!r} vs {want['values'].get(k)!r}")
        else:
            notes.append(f"{f}: digest differs from the reference, values agree "
                         f"to {REL_TOL:g}")
    return failures, notes


def entries(out: Path) -> dict:
    """Digest and fingerprint of every output file under out."""
    return {p.relative_to(out).as_posix(): {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                                            "values": fingerprint(p)}
            for p in sorted(out.rglob("*")) if p.is_file()}


def load() -> dict | None:
    return json.loads(PATH.read_text()) if PATH.is_file() else None


def main() -> int:
    import shutil
    import sys
    import tempfile

    import run  # pins BLAS threads before numpy loads

    sys.path.insert(0, str(run.SRC))
    stored = {}
    for name, wl in run.make_workloads().items():
        commands = wl.commands(DEFAULT_SEED)
        run.OUT.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT))
        try:
            p = run.run_pass(commands, out)
            bad = {**p.failures, **wl.validate(out, commands)}
            if bad:
                raise SystemExit(f"{name}: outputs fail their checks: {bad}")
            stored[name] = {
                "seed": DEFAULT_SEED,
                "commands": [[n, a] for n, a in commands],
                "files": entries(out),
            }
        finally:
            shutil.rmtree(out, ignore_errors=True)
    PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
