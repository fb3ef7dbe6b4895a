"""Self-tests of the benchmark harness, at reduced sizes.

    python3 perfbench/selftest.py

Checks that count metrics repeat exactly, that tracing is undone and does
not change outputs, and that failed commands, corrupted or wrong outputs
and reference mismatches are all counted as failures.
"""

import importlib
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))
sys.path.insert(1, str(run.SEEDREF))

import emastall.cli  # noqa: E402
import emastall.engine  # noqa: E402
import emastall_seed.cli as seed_cli  # noqa: E402
import reference  # noqa: E402
from workloads import make_workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = make_workloads(mc_steps=20, mc_dim=512, reset_steps=40, n_beta2=2)
COUNTS = ("formats.calls", "formats.elems", "quantize.calls", "quantize.elems",
          "quantize.blocks", "engine.steps", "engine.resets", "engine.stalled_frac",
          "theory.calls", "simlab.draws", "cli.commands", "cli.bytes_out")


class HarnessTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def bench(self, name, seed=3):
        sub = Path(tempfile.mkdtemp(dir=self.tmp))
        return run.Bench(SMALL[name], seed, sub, seed_cli=seed_cli)

    def one_pass(self, name, seed=3):
        commands = SMALL[name].commands(seed)
        out = self.tmp / f"{name}-{seed}"
        p = run.run_pass(commands, out)
        self.assertEqual(p.failures, {})
        return commands, out

    def test_counts_repeat_exactly_and_tracing_is_undone(self):
        for name in SMALL:
            runs = []
            for i in range(2):
                b = self.bench(name)
                runs.append(run.run_traced(b, 0.0, self.tmp / f"{name}{i}.spans.csv"))
                self.assertEqual(b.failed, 0, b.problems)
            self.assertEqual([(k, v["unit"]) for k, v in runs[0].items()],
                             [(m["name"], m["unit"]) for m in SPEC["per_layer"]])
            for key in COUNTS:
                self.assertEqual(runs[0][key]["value"], runs[1][key]["value"], (name, key))
            self.assertGreater(runs[0]["cli.commands"]["value"], 0)
        # the package re-exports quantize(), which shadows the submodule name
        quantize_module = importlib.import_module("emastall.quantize")
        self.assertIs(emastall.engine.quantize, quantize_module.quantize)
        self.assertFalse(hasattr(emastall.cli.main, "__wrapped__"))
        self.assertFalse(hasattr(emastall.engine.ema_step, "__wrapped__"))

    def test_end_to_end_metrics_match_benchmark_json(self):
        b = self.bench("reset_train")
        metrics, raw = run.run_untraced(b, 0.0)
        self.assertEqual(b.failed, 0, b.problems)
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        self.assertTrue(all(v["value"] > 0 for v in metrics.values()))
        self.assertTrue(all(v["value"] > 0 for v in raw.values()))

    def test_corrupted_output_counts_as_failed(self):
        b = self.bench("mc_curves")
        b.warm_up()
        self.assertEqual(b.failed, 0, b.problems)
        real = emastall.cli.main

        def corrupting(argv):
            rc = real(argv)
            if "stall_bf16_nr" in argv[-1]:
                with open(argv[-1] + ".csv", "a") as fh:
                    fh.write("0\n")
            return rc

        emastall.cli.main = corrupting
        try:
            b.timed()
        finally:
            emastall.cli.main = real
        self.assertEqual(b.failed, 1)
        self.assertIn("stall_bf16_nr", b.problems[0])

    def test_output_unlike_the_seed_implementation_fails(self):
        b = self.bench("mc_curves")
        real = emastall.cli.main

        def shifting(argv):
            rc = real(argv)
            if "stall_bf16_nr" in argv[-1]:
                # one more stalled coordinate at step 5: still a valid count
                path = Path(argv[-1] + ".csv")
                lines = path.read_text().splitlines()
                cells = lines[5].split(",")
                cells[1] = repr(float(cells[1]) + 1 / 512)
                lines[5] = ",".join(cells)
                path.write_text("\n".join(lines) + "\n")
            return rc

        emastall.cli.main = shifting
        try:
            b.warm_up()
        finally:
            emastall.cli.main = real
        self.assertEqual(b.failed, 1, b.problems)
        self.assertIn("stall_bf16_nr: seed implementation", b.problems[0])

    def test_failing_command_counts_as_failed(self):
        b = self.bench("predictor_sweep")
        b.seed_cli = None  # the seed implementation rejects the command too
        b.commands = b.commands + [("bad", ["predict-stall", "--format", "nope"])]
        b.warm_up()
        self.assertEqual((b.attempted, b.failed), (len(b.commands), 1))
        self.assertIn("bad: exit code 1", b.problems[0])

    def test_wrong_values_fail_validation(self):
        wl = SMALL["predictor_sweep"]
        commands, out = self.one_pass("predictor_sweep")
        self.assertEqual(wl.validate(out, commands), {})
        path = out / "stall_00.csv"
        head, row, *rest = path.read_text().splitlines()
        cells = row.split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-6)  # p_sr of the first format
        path.write_text("\n".join([head, ",".join(cells), *rest]) + "\n")
        self.assertEqual(list(wl.validate(out, commands)), ["stall_00"])

        wl = SMALL["mc_curves"]
        commands, out = self.one_pass("mc_curves")
        self.assertEqual(wl.validate(out, commands), {})
        path = out / "stall_fp8_e4m3_sr.csv"
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = repr(float(cells[1]) + 0.5 / 512)  # not a count over dim
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        self.assertEqual(list(wl.validate(out, commands)), ["stall_fp8_e4m3_sr"])

    def test_reference_compare(self):
        commands, out = self.one_pass("reset_train")
        files = {p.name: {"sha256": "0" * 64, "values": reference.fingerprint(p)}
                 for p in out.iterdir()}
        # a digest mismatch whose values agree is reported, not failed
        failures, notes = reference.compare(out, files)
        self.assertEqual(failures, {})
        self.assertEqual(len(notes), len(files))
        files["skip_study.csv"]["values"]["final_loss#sum"] *= 1.0 + 1e-6
        failures, _ = reference.compare(out, files)
        self.assertEqual(list(failures), ["skip_study"])
        del files["reset_study.json"]
        failures, _ = reference.compare(out, files)
        self.assertIn("reset_study", failures)

    def test_default_seed_matches_stored_reference(self):
        ref = reference.load()
        for name, wl in run.make_workloads().items():
            b = run.Bench(wl, reference.DEFAULT_SEED, Path(tempfile.mkdtemp(dir=self.tmp)),
                          ref, seed_cli)
            b.warm_up()
            self.assertEqual((b.failed, b.notes), (0, []), (name, b.problems))


if __name__ == "__main__":
    unittest.main()
