"""Study outputs against committed golden files, byte for byte.

``tests/golden`` holds the CSV and JSON that each command below wrote
before the two studies shared one driver. A refactor of the drivers must
reproduce them exactly; a change that means to alter the outputs rewrites
them with the same commands (``emastall <argv> --out tests/golden/<name>``)
and says why.
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
