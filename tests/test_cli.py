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
        ("predict-stall", "startup_window_info"),
        ("predict-window", "p_stall_sr_ss"),
        ("predict-window", "_kstar_scan"),
        ("predict-period", "p_stall_sr_ss"),
        ("predict-period", "startup_window_info"),
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


def _defaults(parser):
    """Every subcommand's flag defaults, keyed by (command, dest)."""
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        (name, a.dest): copy.deepcopy(a.default)
        for name, sub in commands.choices.items()
        for a in sub._actions
    }


def test_python_m_runs_the_cli():
    src = str(Path(emastall.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "emastall", "predict-stall", "--format", "bf16",
         "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json_rows(proc.stdout)[0]["format"] == "bf16"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_quietly(buffered):
    # the pipe's read end is closed before the CLI starts, so its first
    # write (or, buffered, its flush) meets a broken pipe
    src = str(Path(emastall.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "emastall", "predict-stall"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


class TestParserReuse:
    def test_built_on_first_call_not_at_import(self):
        probe = "import emastall.cli as c; print(c._parser.cache_info().currsize)"
        src = str(Path(emastall.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env=env,
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

    @pytest.mark.parametrize("argv,message", [
        (["reset-study", "--format", "fp4,fp4"],
         "two configs share the label 'fp4_nr'"),
        (["reset-study", "--format", "fp32,none"],
         "two configs share the label 'fp32'"),
        (["reset-study", "--format", "bf16", "--periods", "50,50"],
         "two policies share the label 'periodic50'"),
        (["skip-study", "--p-skip", "0.1,0.1000001"],
         "two p_skip values share the label 'p=0.1'"),
    ], ids=["reset-formats", "reset-fp32-spellings", "reset-periods", "skip-p"])
    def test_colliding_labels_are_one_line_errors(self, argv, message, capsys,
                                                  tmp_path):
        # the cells once merged under one label: 6 CSV rows for 3 seeds and
        # one median for two cells
        argv = argv + ["--steps", "2", "--seeds", "0,1,2", "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

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
