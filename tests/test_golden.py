"""Study and curve outputs against committed golden files, byte for byte.

``tests/golden`` holds the CSV and JSON that each command below wrote:
the studies' before the two studies shared one driver, the curves' before
every store write took one encode path. A refactor of the drivers or of
the store must reproduce them exactly; a change that means to alter the
outputs rewrites them with the same commands (``emastall <argv> --out
tests/golden/<name>``) and says why.
"""

from pathlib import Path

import pytest

from emastall.cli import main

GOLDEN = Path(__file__).parent / "golden"
RUN = ["--steps", "60", "--seeds", "0,1,2"]
CASES = {
    "reset_study": ["reset-study", "--format", "fp32,fp4,bf16", "--adaptive",
                    "--periods", "20", *RUN],
    "skip_study_second_quadratic": ["skip-study", "--target", "second",
                                    "--problem", "quadratic", *RUN],
    "skip_study_first_logistic": ["skip-study", "--target", "first",
                                  "--problem", "logistic", *RUN],
}


@pytest.mark.parametrize("name", list(CASES))
def test_study_writes_the_golden_bytes(name, tmp_path, capsys):
    assert main(CASES[name] + ["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    for ext in (".csv", ".json"):
        got = (tmp_path / name).with_suffix(ext).read_bytes()
        assert got == (GOLDEN / name).with_suffix(ext).read_bytes(), ext


# each curve command writes one BASE_<format>_<rounding> pair per format;
# fp8_e4m3 and fp4_e2m1 store signed signals on grids with a zero point
CURVE = ["--dim", "512", "--steps", "60", "--seed", "3"]
CURVES = {
    "stall_curve": (["stall-curve", *CURVE], ["bf16", "fp8_e4m3", "fp4_e2m2u"]),
    "first_moment": (["first-moment", "--mu", "0", *CURVE], ["fp4_e2m1", "fp8_e4m3"]),
}


@pytest.mark.parametrize("rounding", ["nr", "sr"])
@pytest.mark.parametrize("name", list(CURVES))
def test_curves_write_the_golden_bytes(name, rounding, tmp_path, capsys):
    argv, formats = CURVES[name]
    assert main(argv + ["--format", ",".join(formats), "--rounding", rounding,
                        "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    for fmt in formats:
        base = f"{name}_{fmt}_{rounding}"
        for ext in (".csv", ".json"):
            got = (tmp_path / base).with_suffix(ext).read_bytes()
            assert got == (GOLDEN / base).with_suffix(ext).read_bytes(), base + ext
