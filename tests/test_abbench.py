"""The A/B comparison's verdicts (``tools/abbench.py``) on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "abbench.py"
_SPEC = importlib.util.spec_from_file_location("abbench", _PATH)
abbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abbench)

METRICS = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]


def run(run_s=None, failed=0):
    """One run as ``run_once`` returns it; run_s None is a run that printed
    no result."""
    if run_s is None:
        return {"returncode": 1, "result": None, "digests": [], "stderr_tail": "boom"}
    result = {"failed": failed, "metrics": {"run_s": {"value": run_s}}}
    return {"returncode": 0, "result": result, "digests": ["digest a"], "stderr_tail": ""}


def verdict(pairs) -> list:
    # the header line, then one line for run_s
    return abbench.summarize("w", pairs, METRICS)


def winning_pairs(n):
    # the change is 10% faster in every pair, with a tight spread
    return [(run(1.0 + 0.001 * i), run(0.9 + 0.001 * i)) for i in range(n)]


def test_ten_clean_wins_show_a_gain():
    header, line = verdict(winning_pairs(10))
    assert "10 complete pairs of 10" in header
    assert "failed commands base 0 change 0" in header
    assert "won 10/10" in line and "gain holds" in line


def test_pairs_with_a_crashed_run_count_as_not_won():
    # 10 wins of 10 complete pairs met the nine tenths when the two pairs
    # with a crashed run dropped out; of the 12 pairs run it is 10, below
    # 10.8. Each side crashed once, so the failure rule does not decide it
    pairs = winning_pairs(10) + [(run(1.0), run()), (run(), run(0.9))]
    header, line = verdict(pairs)
    assert "10 complete pairs of 12" in header
    assert "failed commands base 1 change 1" in header
    assert "won 10/12" in line and "gain not shown" in line


def test_a_crashed_change_run_shows_no_gain():
    # 10 wins of 11 pairs meet the nine tenths; the crash is one more
    # failed command than the base's
    pairs = winning_pairs(10) + [(run(1.0), run())]
    header, line = verdict(pairs)
    assert "failed commands base 0 change 1" in header
    assert "won 10/11" in line and "gain not shown" in line


def test_a_change_that_fails_more_commands_shows_no_gain():
    pairs = winning_pairs(10)
    pairs[3] = (pairs[3][0], run(0.9, failed=2))
    header, line = verdict(pairs)
    assert "failed commands base 0 change 2" in header
    assert "won 10/10" in line and "gain not shown" in line


@pytest.mark.parametrize("base_failed", [2, 3])
def test_failures_no_worse_than_the_base_keep_the_gain(base_failed):
    pairs = winning_pairs(10)
    pairs[3] = (run(1.003, failed=base_failed), run(0.903, failed=2))
    header, line = verdict(pairs)
    assert f"failed commands base {base_failed} change 2" in header
    assert "gain holds" in line
