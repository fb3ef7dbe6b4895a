"""CLI tests: table reproduction, config resolution, file determinism."""

import argparse
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import emastall.cli
import emastall.theory
from emastall.cli import build_parser, main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def json_rows(out):
    for line in out.splitlines():
        if line.startswith("["):
            return json.loads(line)
    raise AssertionError(f"no JSON table in output:\n{out}")


class TestPredictStall:
    def test_default_reproduces_both_tables(self, capsys):
        code, out = run_cli(["predict-stall", "--json"], capsys)
        assert code == 0
        rows = {r["format"]: r for r in json_rows(out)}
        bf16 = rows["bf16"]
        assert bf16["epsilon"] == 2.0**-7
        assert abs(bf16["rhohat"] - 2.71) < 0.005
        assert abs(bf16["p_nr"] - 0.946) < 0.001
        assert abs(bf16["p_sr"] - 0.825) < 0.003
        assert rows["fp8_e4m3"]["p_nr"] >= 0.9995
        assert abs(rows["fp4_e2m2u"]["p_sr"] - 0.994) < 0.002

    def test_beta2_rescales_rhohat(self, capsys):
        _, out9 = run_cli(["predict-stall", "--beta2", "0.9", "--json"], capsys)
        _, out999 = run_cli(["predict-stall", "--json"], capsys)
        r9 = json_rows(out9)[0]["rhohat"]
        r999 = json_rows(out999)[0]["rhohat"]
        assert abs(r9 - r999 / 100.0) < 1e-12

    def test_empty_format_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["predict-stall", "--format", ""])

    def test_unknown_format_fails(self, capsys):
        code = main(["predict-stall", "--format", "fp6"])
        assert code != 0

    def test_prints_resolved_config(self, capsys):
        _, out = run_cli(["predict-stall"], capsys)
        first = out.splitlines()[0]
        assert first.startswith("config: ")
        resolved = json.loads(first[len("config: "):])
        assert resolved["beta2"] == 0.999
        assert resolved["formats"] == ["bf16", "fp8_e4m3", "fp4_e2m2u"]


class TestPredictPeriod:
    def test_default_reproduces_table(self, capsys):
        code, out = run_cli(["predict-period", "--json"], capsys)
        assert code == 0
        rows = {r["format"]: r for r in json_rows(out)}
        assert abs(rows["bf16"]["Kstar@0.6"] - 1116) <= 2
        assert abs(rows["fp8_e4m3"]["Kstar@0.6"] - 320) <= 2
        assert abs(rows["fp4_e2m2u"]["Kstar@0.6"] - 224) <= 2

    def test_appendix_sweep(self, capsys):
        _, out = run_cli(["predict-period", "--s0", "0.5,0.7", "--json"], capsys)
        rows = {r["format"]: r for r in json_rows(out)}
        assert abs(rows["bf16"]["Kstar@0.5"] - 1004) <= 2
        assert abs(rows["bf16"]["Kstar@0.7"] - 1262) <= 2
        assert abs(rows["fp8_e4m3"]["Kstar@0.5"] - 295) <= 2
        assert abs(rows["fp4_e2m2u"]["Kstar@0.7"] - 246) <= 2


class TestPredictWindow:
    def test_paper_defaults(self, capsys):
        code, out = run_cli(["predict-window", "--json"], capsys)
        assert code == 0
        rows = {r["format"]: r for r in json_rows(out)}
        assert rows["bf16"]["jstar@0.5"] == 76
        assert rows["bf16"]["jstar@0.8"] == 464
        assert rows["bf16"]["jstar@0.9"] == 1051
        assert rows["fp8_e4m3"]["jstar@0.5"] == 0
        assert rows["fp8_e4m3"]["jstar@0.95"] == 61
        assert all(rows["fp4_e2m2u"][f"jstar@{p}"] == 0
                   for p in ("0.5", "0.8", "0.9", "0.95"))

    def test_zero_floor_gives_larger_windows(self, capsys):
        _, out = run_cli(
            ["predict-window", "--format", "bf16", "--p-init", "0", "--json"],
            capsys,
        )
        rows = json_rows(out)
        assert rows[0]["jstar@0.5"] > 76

    def test_unreachable_cells_are_sentinels_not_failures(self, capsys):
        code, out = run_cli(
            ["predict-window", "--format", "bf16", "--beta2", "0.5",
             "--p0", "0.99", "--json"],
            capsys,
        )
        assert code == 0
        assert json_rows(out)[0]["jstar@0.99"] == "unreachable"

    def test_p_init_count_mismatch(self, capsys):
        with pytest.raises(SystemExit):
            main(["predict-window", "--p-init", "0.1,0.2"])


class TestPredictTables:
    @pytest.mark.parametrize("command,header", [
        ("predict-stall", "format,epsilon,rhohat,p_nr,p_sr"),
        ("predict-window", "format,p_init,jstar@0.5,jstar@0.8,jstar@0.9,jstar@0.95"),
        ("predict-period", "format,Kstar@0.6"),
    ])
    def test_csv_holds_exactly_the_printed_table(self, command, header, capsys, tmp_path):
        code, out = run_cli([command, "--json", "--out", str(tmp_path / "t")], capsys)
        assert code == 0
        text = (tmp_path / "t.csv").read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == header and lines[-1] == "" and "\r" not in text
        for line, row in zip(lines[1:], json_rows(out)):
            assert line == ",".join(
                repr(row[c]) if isinstance(row[c], float) else str(row[c])
                for c in header.split(",")
            )

    @pytest.mark.parametrize("command,broken", [
        ("predict-stall", "_kstar_scan"),
        ("predict-stall", "startup_window"),
        ("predict-window", "p_stall_sr_ss"),
        ("predict-window", "_kstar_scan"),
        ("predict-period", "p_stall_sr_ss"),
        ("predict-period", "startup_window"),
    ])
    def test_runs_only_its_own_predictors(self, command, broken, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError(f"{command} ran {broken}")

        monkeypatch.setattr(emastall.theory, broken, fail)
        assert main([command]) == 0

    @pytest.mark.parametrize("argv", [
        ["predict-period", "--s0", ""],
        ["predict-window", "--p0", ""],
    ], ids=["s0", "p0"])
    def test_empty_value_list_is_one_line_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str) and argv[1] in message and "\n" not in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv,message", [
        (["predict-window", "--p0", "1.5"], "P0 must be in (0, 1)"),
        (["predict-window", "--p-init", "1.5,0,0"], "p_init must be in [0, 1)"),
        (["predict-period", "--s0", "1.5"], "s0 must be in [0, 1)"),
        (["predict-stall", "--beta2", "1.5"], "beta2 must be in (0, 1)"),
    ], ids=["window-p0", "window-p-init", "period-s0", "stall-beta2"])
    def test_input_errors_stop_before_the_config(self, argv, message, capsys,
                                                 tmp_path):
        # the predictors once checked their input after the config line was
        # printed, which then stood above the error on stdout
        assert main(argv + ["--out", str(tmp_path / "t")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,columns", [
        (["predict-period", "--s0", "0.6,0.6000001"],
         ["Kstar@0.6", "Kstar@0.6000001"]),
        (["predict-window", "--p0", "0.5,0.9,0.50000001"],
         ["p_init", "jstar@0.5", "jstar@0.9", "jstar@0.50000001"]),
    ], ids=["s0", "p0"])
    def test_close_values_get_distinct_columns(self, argv, columns, capsys):
        code, out = run_cli(argv + ["--json"], capsys)
        assert code == 0
        # the JSON rows carry sorted keys
        assert all(sorted(row) == sorted(["format"] + columns) for row in json_rows(out))

    def test_labels_are_shortest_round_trip_text(self, capsys):
        # :g kept six digits and printed 0.9999999 as Kstar@1
        code, out = run_cli(["predict-period", "--format", "bf16", "--beta2", "0.9",
                             "--s0", "0.9999999,0,0.6"], capsys)
        assert code == 0
        assert out.splitlines()[1].split() == [
            "format", "Kstar@0.9999999", "Kstar@0.0", "Kstar@0.6"
        ]

    @pytest.mark.parametrize("command,flag,value", [
        ("predict-period", "--s0", "0.6"),
        ("predict-window", "--p0", "0.8"),
    ])
    def test_exact_duplicates_share_one_column(self, command, flag, value, capsys):
        _, once = run_cli([command, flag, value, "--json"], capsys)
        _, twice = run_cli([command, flag, f"{value},{value}", "--json"], capsys)
        assert json_rows(twice) == json_rows(once)


def _subparsers(parser) -> dict:
    """The parser's subparsers, keyed by command name."""
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def _defaults(parser):
    """Every subcommand's flag defaults, keyed by (command, dest)."""
    return {
        (name, a.dest): copy.deepcopy(a.default)
        for name, sub in _subparsers(parser).items()
        for a in sub._actions
    }


def _cli_env(**changes) -> dict:
    """The environment of a child interpreter that imports this package;
    a None value unsets that variable."""
    src = str(Path(emastall.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.update(changes)
    return {k: v for k, v in env.items() if v is not None}


def _run_closed(argv, env):
    """Run ``python -m emastall argv`` with its stdout on a pipe whose read
    end is closed before the CLI starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "emastall", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)


def test_python_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "emastall", "predict-stall", "--format", "bf16",
         "--json"],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json_rows(proc.stdout)[0]["format"] == "bf16"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_quietly(buffered):
    # the CLI's first write (or, buffered, its flush) meets a broken pipe
    proc = _run_closed(["predict-stall"],
                       _cli_env(PYTHONUNBUFFERED=None if buffered else "1"))
    assert proc.stderr == b""
    assert proc.returncode == 1


@pytest.mark.parametrize("buffered,code", [(True, 1), (False, 1)],
                         ids=["buffered", "unbuffered"])
def test_help_into_a_closed_pipe_ends_quietly(buffered, code):
    # argparse prints the help inside parse_args and exits; buffered, the
    # flush at interpreter exit once met the closed pipe ("Exception ignored
    # ... BrokenPipeError", exit code 120). Unbuffered, argparse's own
    # _print_message once dropped the failed write and exited 0; both now
    # end like every other command into a closed pipe.
    proc = _run_closed(["--help"], _cli_env(PYTHONUNBUFFERED=None if buffered else "1"))
    assert proc.stderr == b""
    assert proc.returncode == code


def test_help_into_an_open_pipe_prints_and_exits_0():
    proc = subprocess.run(
        [sys.executable, "-m", "emastall", "--help"],
        capture_output=True, text=True, env=_cli_env(PYTHONUNBUFFERED=None), timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: emastall")
    assert "predict-stall" in proc.stdout


ENGINE_NAMES = ("AdamHyper", "EmaConfig", "EmaState", "ResetKind", "ResetPolicy",
                "StallTrace", "ema_step")


class TestColdStart:
    """The predict commands and --help never load engine or simlab."""

    @staticmethod
    def _imports(args) -> set:
        # every module a fresh interpreter imports, as -X importtime lists them
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            capture_output=True, text=True, env=_cli_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}

    @pytest.mark.parametrize("args", [
        ["-c", "import emastall, emastall.cli"],
        ["-m", "emastall", "predict-stall"],
        ["-m", "emastall", "predict-window"],
        ["-m", "emastall", "predict-period"],
        ["-m", "emastall", "--help"],
    ], ids=["import", "predict-stall", "predict-window", "predict-period", "help"])
    def test_predictors_do_not_import_the_engine(self, args):
        imported = self._imports(args)
        assert {"emastall.cli", "emastall.theory"} <= imported
        assert not imported & {"emastall.engine", "emastall.simlab", "queue"}

    def test_an_experiment_command_imports_them(self):
        # the probe sees the modules when a command does load them
        imported = self._imports(["-m", "emastall", "stall-curve", "--dim", "8",
                                  "--steps", "2"])
        assert {"emastall.engine", "emastall.simlab"} <= imported

    def test_engine_names_are_the_engine_objects(self):
        import emastall
        import emastall.engine

        for name in ENGINE_NAMES:
            assert name in dir(emastall)
            assert getattr(emastall, name) is getattr(emastall.engine, name)
            assert getattr(emastall, name).__module__ == "emastall.engine"
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            emastall.nope  # noqa: B018

    def test_every_listed_name_resolves(self):
        # a name left in the lazy list after its function is gone would be
        # listed by dir() and fail on access
        import emastall

        for name in dir(emastall):
            getattr(emastall, name)

    @pytest.mark.parametrize("first", [
        "import emastall.engine",
        "import emastall.quantize",
        "import emastall; emastall.ema_step",
        "from emastall import ema_step",
    ], ids=["engine", "quantize-module", "engine-name", "from-import"])
    def test_quantize_stays_the_function(self, first):
        # the function shares its submodule's name; loading the engine (which
        # imports the submodule) must not rebind the package attribute
        probe = (f"{first}\nimport emastall, emastall.engine, inspect\n"
                 "q = emastall.quantize\n"
                 "assert inspect.isfunction(q) and q.__module__ == 'emastall.quantize'\n"
                 "assert q is emastall.engine.quantize\n"
                 "assert emastall.ema_step is emastall.engine.ema_step\n")
        subprocess.run([sys.executable, "-c", probe], env=_cli_env(), check=True,
                       timeout=60)


class TestParserReuse:
    def test_built_on_first_call_not_at_import(self):
        probe = "import emastall.cli as c; print(c._parser.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env=_cli_env(),
        ).stdout
        assert out.strip() == "0"
        assert emastall.cli._parser() is emastall.cli._parser()
        assert build_parser() is not build_parser()

    @pytest.mark.parametrize("flags", [
        ["predict-period", "--format", "bf16", "--s0", "0.5,0.7", "--beta2", "0.99"],
        ["predict-window", "--format", "fp8_e4m3", "--p0", "0.9", "--p-init", "0.2"],
        ["predict-stall", "--format", "fp4_e2m2u", "--beta2", "0.9", "--json"],
    ])
    def test_defaults_survive_an_earlier_command(self, flags, capsys, monkeypatch):
        fresh_defaults = _defaults(build_parser())
        command = flags[0]
        assert main(flags) == 0
        capsys.readouterr()
        assert _defaults(emastall.cli._parser()) == fresh_defaults
        _, reused = run_cli([command], capsys)
        assert _defaults(emastall.cli._parser()) == fresh_defaults
        monkeypatch.setattr(emastall.cli, "_parser", build_parser)
        _, fresh = run_cli([command], capsys)
        assert reused.splitlines()[0].startswith("config: ")
        assert reused.splitlines()[0] == fresh.splitlines()[0]


# a short study run, for tests that expect it to stop before training or
# read only its config line
STUDY = ["--steps", "2", "--seeds", "0,1,2"]


def config_lines(out) -> list:
    return [line for line in out.splitlines() if line.startswith("config: ")]


# each command's config line, pinned as it read when every handler wrote
# its settings out by hand: a flag renamed, dropped or retyped shows here
GOLDEN_CONFIGS = [
    (["predict-stall"], [
        '{"beta2": 0.999, "command": "predict-stall", '
        '"formats": ["bf16", "fp8_e4m3", "fp4_e2m2u"]}',
    ]),
    (["predict-window"], [
        '{"beta2": 0.999, "command": "predict-window", '
        '"formats": ["bf16", "fp8_e4m3", "fp4_e2m2u"], "p0": [0.5, 0.8, 0.9, 0.95], '
        '"p_init": [0.17, 0.53, 0.97]}',
    ]),
    (["predict-period"], [
        '{"beta2": 0.999, "command": "predict-period", '
        '"formats": ["bf16", "fp8_e4m3", "fp4_e2m2u"], "s0": [0.6]}',
    ]),
    (["stall-curve", "--preset", "quick"], [
        '{"beta2": 0.999, "command": "stall-curve", "dim": 512, "format": "bf16", '
        '"rounding": "nr", "seed": 0, "steps": 400, "trials": 1}',
    ]),
    (["first-moment", "--preset", "quick"], [
        '{"beta1": 0.9, "command": "first-moment", "dim": 512, "format": "fp4_e2m1", '
        '"mu": 1.0, "rounding": "nr", "seed": 0, "steps": 400, "trials": 1}',
    ]),
    (["skip-study", "--preset", "quick"], [
        '{"command": "skip-study", "lr": 0.01, "p_skip": [0.0, 0.5, 0.9], '
        '"problem": "quadratic", "seeds": [0, 1, 2], "steps": 400, "target": "second"}',
    ]),
    (["reset-study", "--preset", "quick"], [
        '{"adaptive": false, "beta2": 0.999, "command": "reset-study", '
        '"formats": ["fp32", "fp4"], "lr": 0.01, "periods": [224], "s0": 0.6, '
        '"seeds": [0, 1, 2], "steps": 400}',
    ]),
    (["reset-study", "--format", "fp32,bf16", "--config",
      {"seeds": 3, "adaptive": True, "steps": 40}], [
        '{"adaptive": true, "beta2": 0.999, "command": "reset-study", '
        '"formats": ["fp32", "bf16"], "lr": 0.01, "periods": [1116], "s0": 0.6, '
        '"seeds": [0, 1, 2], "steps": 40}',
    ]),
    (["stall-curve", "--format", "bf16,fp4_e2m2u", "--rounding", "sr", "--preset",
      "quick", "--seed", "3"], [
        '{"beta2": 0.999, "command": "stall-curve", "dim": 512, "format": "bf16", '
        '"rounding": "sr", "seed": 3, "steps": 400, "trials": 1}',
        '{"beta2": 0.999, "command": "stall-curve", "dim": 512, "format": "fp4_e2m2u", '
        '"rounding": "sr", "seed": 3, "steps": 400, "trials": 1}',
    ]),
]

# flags that steer a run's files, output form or size preset; the printed
# config leaves them out
IO_DESTS = {"help", "config", "out", "json", "preset"}


class TestPrintedConfig:
    @pytest.mark.parametrize("argv,lines", GOLDEN_CONFIGS,
                             ids=[" ".join(map(str, a[:2])) for a, _ in GOLDEN_CONFIGS])
    def test_config_lines_are_unchanged(self, argv, lines, capsys, tmp_path):
        # a dict argument stands for a --config file holding it
        cfg = tmp_path / "cfg.json"
        for a in argv:
            if isinstance(a, dict):
                cfg.write_text(json.dumps(a))
        argv = [str(cfg) if isinstance(a, dict) else a for a in argv]
        code, out = run_cli(argv + ["--out", str(tmp_path / "x")], capsys)
        assert code == 0
        assert config_lines(out) == [f"config: {line}" for line in lines]

    @pytest.mark.parametrize("argv", [
        ["predict-stall"],
        ["predict-window"],
        ["predict-period"],
        ["stall-curve", "--format", "bf16,fp8_e4m3", "--steps", "2", "--dim", "8"],
        ["first-moment", "--format", "bf16,fp8_e4m3", "--steps", "2", "--dim", "8"],
        ["skip-study", *STUDY],
        ["reset-study", *STUDY],
    ], ids=lambda argv: argv[0])
    def test_printed_keys_are_the_parsers_flags(self, argv, capsys):
        command = argv[0]
        dests = {a.dest for a in _subparsers(build_parser())[command]._actions}
        expected = dests - IO_DESTS | {"command"}
        if command in ("stall-curve", "first-moment"):
            expected = expected - {"formats"} | {"format"}
        code, out = run_cli(argv, capsys)
        assert code == 0
        lines = config_lines(out)
        assert len(lines) == (2 if "--format" in argv else 1)
        for line in lines:
            assert set(json.loads(line[len("config: "):])) == expected


class TestExperimentCommands:
    def test_stall_curve_quick_writes_files(self, capsys, tmp_path):
        out_base = tmp_path / "curve"
        code, out = run_cli(
            ["stall-curve", "--format", "fp4_e2m2u", "--preset", "quick",
             "--out", str(out_base)],
            capsys,
        )
        assert code == 0
        csv_path = out_base.with_suffix(".csv")
        json_path = out_base.with_suffix(".json")
        assert csv_path.exists() and json_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "stalled_fraction" in header
        summary = json.loads(json_path.read_text())
        assert summary["config"]["experiment"] == "stall_curve"

    def test_stall_curve_bf16_defaults_hit_table_value(self, capsys, tmp_path):
        # full-scale run: the written CSV's last-decile mean matches the
        # nearest-rounding steady-state prediction
        out_base = tmp_path / "bf16"
        code, _ = run_cli(
            ["stall-curve", "--format", "bf16", "--out", str(out_base)], capsys
        )
        assert code == 0
        rows = out_base.with_suffix(".csv").read_text().splitlines()
        cols = rows[0].split(",")
        i = cols.index("stalled_fraction")
        fractions = [float(r.split(",")[i]) for r in rows[1:]]
        last_decile = sum(fractions[-500:]) / 500
        assert abs(last_decile - 0.946) < 0.05

    def test_identical_config_byte_identical_csv(self, capsys, tmp_path):
        args = ["stall-curve", "--format", "fp4_e2m2u", "--rounding", "sr",
                "--preset", "quick", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()

    def test_outdir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EMASTALL_OUTDIR", str(tmp_path))
        code, out = run_cli(
            ["stall-curve", "--format", "fp4_e2m2u", "--preset", "quick"], capsys
        )
        assert code == 0
        assert (tmp_path / "stall_curve_fp4_e2m2u_nr.csv").exists()

    def test_first_moment_quick(self, capsys, tmp_path):
        code, out = run_cli(
            ["first-moment", "--preset", "quick", "--out", str(tmp_path / "fm")],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "fm.csv").exists()
        assert "steady=" in out

    def test_first_moment_rejects_unsigned_before_any_output(self, capsys, tmp_path):
        base = tmp_path / "fm"
        with pytest.raises(SystemExit, match="signed format, got fp4_e2m2u"):
            main(["first-moment", "--format", "fp4_e2m1,fp4_e2m2u", "--preset", "quick",
                  "--out", str(base)])
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,unknown", [
        ("first-moment", ["--beta2", "0.9"]),
        ("predict-stall", ["--p0", "0.5"]),
        ("skip-study", ["--format", "bf16"]),
        ("reset-study", ["--bogus", "--target", "first"]),
    ], ids=["first-moment", "predict-stall", "skip-study", "reset-study"])
    def test_unknown_flag_is_reported_by_its_command(self, command, unknown, capsys):
        # the root parser once reported it under its own usage line
        with pytest.raises(SystemExit) as exc:
            main([command, *unknown])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            _subparsers(build_parser())[command].format_usage()
            + f"emastall {command}: error: unrecognized arguments: {' '.join(unknown)}\n"
        )

    def test_first_moment_has_no_beta2(self, capsys, tmp_path):
        # it reads only --beta1; a --beta2 it ignored was once accepted
        with pytest.raises(SystemExit) as exc:
            main(["first-moment", "--beta2", "0.9", "--preset", "quick"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --beta2" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta2": 0.9}))
        with pytest.raises(SystemExit, match="^unknown config key 'beta2'$"):
            main(["first-moment", "--config", str(cfg), "--preset", "quick"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["stall-curve", "first-moment"])
    def test_multi_format_out_gets_one_file_per_format(self, command, capsys, tmp_path):
        code, _ = run_cli(
            [command, "--format", "fp4_e2m1,bf16", "--preset", "quick",
             "--dim", "64", "--steps", "20", "--out", str(tmp_path / "c")],
            capsys,
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c_bf16_nr.csv", "c_bf16_nr.json", "c_fp4_e2m1_nr.csv", "c_fp4_e2m1_nr.json"
        ]
        for name in ("fp4_e2m1", "bf16"):
            summary = json.loads((tmp_path / f"c_{name}_nr.json").read_text())
            assert summary["config"]["ema"]["format"]["name"] == name

    def test_preset_full_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["stall-curve", "--preset", "full"])

    def test_skip_study_quick(self, capsys, tmp_path):
        code, out = run_cli(
            ["skip-study", "--preset", "quick", "--target", "second",
             "--out", str(tmp_path / "skip")],
            capsys,
        )
        assert code == 0
        assert "median_final_loss@p=0" in out
        header = (tmp_path / "skip.csv").read_text().splitlines()[0]
        assert header == "p_skip,seed,final_loss"

    def test_reset_study_quick_declares_winner(self, capsys, tmp_path):
        code, out = run_cli(
            ["reset-study", "--preset", "quick", "--steps", "400",
             "--out", str(tmp_path / "rs")],
            capsys,
        )
        assert code == 0
        assert "best cell:" in out
        rows = (tmp_path / "rs.csv").read_text().splitlines()
        assert rows[0] == "config,policy,seed,final_loss"
        assert any("fp4_nr" in r for r in rows)
        assert any("fp32" in r for r in rows)

    def test_config_file_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta2": 0.99}))
        _, out = run_cli(
            ["predict-stall", "--beta2", "0.9", "--config", str(cfg), "--json"],
            capsys,
        )
        first = out.splitlines()[0]
        assert json.loads(first[len("config: "):])["beta2"] == 0.99

    def test_config_file_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_flag": 1}))
        with pytest.raises(SystemExit):
            main(["predict-stall", "--config", str(cfg)])

    def test_config_file_string_steps_parsed_by_flag_type(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": "400"}))
        code, out = run_cli(
            ["stall-curve", "--dim", "64", "--config", str(cfg)], capsys
        )
        assert code == 0
        assert json.loads(out.splitlines()[0][len("config: "):])["steps"] == 400

    def test_config_file_integer_seeds_means_range(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": 3}))
        code, out = run_cli(
            ["reset-study", "--format", "fp32", "--steps", "20",
             "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        assert json.loads(out.splitlines()[0][len("config: "):])["seeds"] == [0, 1, 2]

    def test_bare_seed_count_is_echoed_on_stderr(self, capsys, tmp_path):
        # --seeds 3 means seeds 0-2, not seed 3; stdout and files stay as
        # they are for the listed seeds
        argv = ["reset-study", "--format", "fp32", "--steps", "2", "--out"]
        assert main(argv + [str(tmp_path / "bare"), "--seeds", "3"]) == 0
        bare = capsys.readouterr()
        assert bare.err == (
            "note: seeds 3 means seeds [0, 1, 2]; write '3,' for that one seed\n"
        )
        assert main(argv + [str(tmp_path / "listed"), "--seeds", "0,1,2"]) == 0
        listed = capsys.readouterr()
        assert listed.err == ""
        assert bare.out == listed.out.replace("listed", "bare")
        for ext in (".csv", ".json"):
            assert ((tmp_path / "bare").with_suffix(ext).read_bytes()
                    == (tmp_path / "listed").with_suffix(ext).read_bytes())

    def test_config_file_bad_value_is_one_line_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": "many"}))
        with pytest.raises(SystemExit) as exc:
            main(["stall-curve", "--config", str(cfg)])
        message = exc.value.code
        assert isinstance(message, str) and "steps" in message
        assert "\n" not in message


class TestStudyValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["reset-study", "--steps", "0", "--seeds", "0,1,2"],
            ["reset-study", "--steps", "-5", "--seeds", "0,1,2"],
            ["skip-study", "--steps", "0"],
            ["skip-study", "--seeds", "0", "--steps", "20"],
            ["skip-study", "--p-skip", "", "--steps", "20"],
        ],
        ids=["reset-steps-0", "reset-steps-neg", "skip-steps-0", "skip-no-seeds",
             "skip-no-p"],
    )
    def test_empty_run_is_one_line_error(self, argv, capsys, tmp_path):
        # these once exited 0 with nan medians
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv,seed", [
        (["reset-study", "--seeds", "0,0,1"], 0),
        (["skip-study", "--seeds", "2,2"], 2),
        (["skip-study", "--problem", "logistic", "--seeds", "1,3,1"], 1),
    ], ids=["reset", "skip", "skip-logistic"])
    def test_repeated_seed_is_one_line_error(self, argv, seed, capsys, tmp_path):
        # 0,0,1 once passed the 3-seed minimum with two instances and
        # counted seed 0 twice in every median
        assert main(argv + ["--steps", "2", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            f"error: seeds must be distinct, got {seed} twice\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [["skip-study", "--seeds", "-2"], ["reset-study", "--seeds", "2,-1,3"]],
        ids=["bare-count", "listed"],
    )
    def test_negative_seeds_are_usage_errors(self, argv, capsys, tmp_path):
        # a bare -2 once meant no seeds, and a listed -1 failed in numpy
        # after the config was printed
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--steps", "2", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(
            f"error: argument --seeds: seeds must be non-negative, got {argv[2]!r}"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["stall-curve", "first-moment"])
    def test_negative_stream_seed_is_one_line_error(self, command, capsys, tmp_path):
        # it once failed in numpy as "error: expected non-negative integer"
        argv = [command, "--seed=-1", "--steps", "2", "--dim", "8"]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["reset-study", "--format", "fp4,fp4", *STUDY],
         "two configs share the label 'fp4_nr'"),
        (["reset-study", "--format", "fp32,none", *STUDY],
         "two configs share the label 'fp32'"),
        (["reset-study", "--format", "bf16", "--periods", "50,50", *STUDY],
         "two policies share the label 'periodic50'"),
        (["skip-study", "--p-skip", "0.1,0.1000001", *STUDY],
         "two p_skip values share the label 'p=0.1'"),
        (["predict-stall", "--format", "bf16,bf16"], "--format lists bf16 twice"),
        (["predict-window", "--format", "bf16,fp8_e4m3,bf16"],
         "--format lists bf16 twice"),
        (["predict-period", "--format", "fp4_e2m2u,fp4_e2m2u"],
         "--format lists fp4_e2m2u twice"),
        (["stall-curve", "--format", "bf16,bf16", "--steps", "2", "--dim", "8"],
         "--format lists bf16 twice"),
        (["first-moment", "--format", "fp4_e2m1,fp4_e2m1", "--steps", "2", "--dim", "8"],
         "--format lists fp4_e2m1 twice"),
    ], ids=["reset-formats", "reset-fp32-spellings", "reset-periods", "skip-p",
            "predict-stall", "predict-window", "predict-period", "stall-curve",
            "first-moment"])
    def test_colliding_labels_are_one_line_errors(self, argv, message, capsys,
                                                  tmp_path):
        # the cells once merged under one label: 6 CSV rows for 3 seeds and
        # one median for two cells; a repeated --format once printed its row
        # twice, or wrote one curve's files twice
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["reset-study", "--lr", "-1"], "lr must be positive and finite"),
        (["reset-study", "--lr", "nan"], "lr must be positive and finite"),
        (["reset-study", "--beta2", "1"], "beta2 must be in (0, 1)"),
        (["skip-study", "--lr", "-1"], "lr must be positive and finite"),
        (["skip-study", "--lr", "inf"], "lr must be positive and finite"),
    ], ids=["reset-negative-lr", "reset-nan-lr", "reset-beta2", "skip-negative-lr",
            "skip-inf-lr"])
    def test_unusable_adam_hyper_is_one_line_error(self, argv, message, capsys,
                                                   tmp_path):
        # a negative lr once trained uphill and wrote its outputs; a nan lr
        # failed as a non-finite signal
        assert main(argv + [*STUDY, "--out", str(tmp_path / "x")]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        assert "config:" not in out
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["--format", "fp32", "--s0", "1.5"],
        ["--periods", "50", "--s0", "-1"],
        ["--adaptive", "--s0", "nan"],
    ], ids=["fp32-only", "periods-without-adaptive", "adaptive-nan"])
    def test_s0_outside_unit_interval_is_one_line_error(self, argv, capsys,
                                                        tmp_path):
        # without --adaptive, fp32 alone (no theory K*) and --periods read no
        # s0, so the first two once ran and printed it in their config
        assert main(["reset-study", *argv, *STUDY, "--out", str(tmp_path / "x")]) == 1
        out, err = capsys.readouterr()
        assert err == "error: s0 must be in [0, 1)\n"
        assert "config:" not in out
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["skip-study", "--p-skip", ""], "at least one p_skip value is required"),
        (["skip-study", "--p-skip", "1.5"], "p_skip values must be in [0, 1]"),
        (["reset-study", "--format", "fp4,fp4"], "two configs share the label 'fp4_nr'"),
        (["reset-study", "--seeds", "0,1"], "need at least 3 seeds"),
    ], ids=["skip-empty-p", "skip-p-above-1", "reset-formats", "reset-two-seeds"])
    def test_driver_input_errors_stop_before_the_config(self, argv, message, capsys,
                                                        tmp_path):
        # the drivers' own checks once ran after the config line was printed,
        # which then stood above the error on stdout
        assert main(argv + ["--steps", "2", "--out", str(tmp_path / "x")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_empty_p_skip_list_names_its_input(self, capsys, tmp_path):
        # it once asked for "at least one reset policy or p_skip value"
        assert main(["skip-study", "--p-skip", "", *STUDY,
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: at least one p_skip value is required\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["predict-stall", "predict-window",
                                         "predict-period", "stall-curve",
                                         "first-moment", "reset-study"])
    def test_empty_format_list_stops_before_the_config(self, command, capsys,
                                                       tmp_path):
        # reset-study once printed its config and then failed as "at least
        # one storage config is required"
        with pytest.raises(SystemExit, match="^at least one --format is required$"):
            main([command, "--format", "", "--out", str(tmp_path / "x")])
        assert capsys.readouterr().out == ""
        assert not list(tmp_path.iterdir())

    def test_unknown_format_message_has_no_repr_quotes(self, capsys):
        assert main(["stall-curve", "--format", "nope"]) == 1
        assert capsys.readouterr().err == (
            "error: unknown format 'nope', expected one of "
            "['bf16', 'fp4_e2m1', 'fp4_e2m2u', 'fp8_e4m3']\n"
        )

    @pytest.mark.parametrize("spelling", ["fp4", "fp4_e2m1", "fp4_e2m2u"])
    def test_default_period_follows_the_second_moment_format(self, spelling, capsys):
        # fp4 stores the second moment in fp4_e2m2u whatever the spelling
        code, out = run_cli(
            ["reset-study", "--format", f"fp32,{spelling}", "--steps", "2",
             "--seeds", "0,1,2"],
            capsys,
        )
        assert code == 0
        resolved = json.loads(out.splitlines()[0][len("config: "):])
        assert resolved["periods"] == [224]
        assert f"median@{spelling}_nr/periodic224" in out

    @pytest.mark.parametrize("orders,periods", [
        (("fp4,bf16", "bf16,fp4"), [224, 1116]),
        (("fp32,fp8_e4m3,fp4,bf16", "bf16,fp4,fp8_e4m3,fp32"), [224, 320, 1116]),
    ], ids=["two", "three"])
    def test_default_periods_do_not_depend_on_the_format_order(self, orders, periods,
                                                               capsys):
        # the first quantized format once chose the one period: fp4,bf16 ran
        # periodic224 alone and bf16,fp4 periodic1116 alone
        policies = ["none"] + [f"periodic{K}" for K in periods]
        for formats in orders:
            code, out = run_cli(["reset-study", "--format", formats, *STUDY], capsys)
            assert code == 0
            resolved = json.loads(out.splitlines()[0][len("config: "):])
            assert resolved["periods"] == periods, formats
            for name in formats.split(","):
                cell = "fp32" if name == "fp32" else f"{name}_nr"
                for policy in policies:
                    assert f"median@{cell}/{policy}:" in out, (formats, cell, policy)

    def test_full_precision_alone_falls_back_to_periodic1000(self, capsys, tmp_path):
        # with no quantized config there is no theory K*, so the default
        # period list is [1000]
        code, out = run_cli(["reset-study", "--format", "fp32", "--preset", "quick",
                             "--out", str(tmp_path / "rs")], capsys)
        assert code == 0
        assert json.loads(out.splitlines()[0][len("config: "):])["periods"] == [1000]
        config = json.loads((tmp_path / "rs.json").read_text())["config"]
        assert config["configs"] == ["fp32"]
        assert config["policies"] == ["none", "periodic1000"]
        assert (config["steps"], config["seeds"]) == (400, [0, 1, 2])

    def test_beta2_reaches_the_hyper_leaves(self, tmp_path):
        # the study's configs hold --beta2, and its JSON reports them
        argv = ["reset-study", "--format", "fp32,fp4", "--beta2", "0.99", "--adaptive"]
        assert main(argv + [*STUDY, "--out", str(tmp_path / "rs")]) == 0
        hyper = json.loads((tmp_path / "rs.json").read_text())["config"]["hyper"]
        assert hyper == {"lr": 0.01, "beta1": 0.9, "beta2": 0.99, "eps": 1e-6,
                         "weight_decay": 0.0}
