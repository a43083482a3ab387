"""The paired benchmark judge's summary, on canned perfbench results.

``benchmarks/paired.py`` is a script, so it is loaded by path.  These
tests only call its pure functions: no process or worktree starts.
"""

import importlib.util
from pathlib import Path

import pytest

PAIRED = Path(__file__).resolve().parents[1] / "benchmarks" / "paired.py"

END_TO_END = [
    {"name": "records_per_s", "better": "higher"},
    {"name": "unit_ms", "better": "lower"},
]


@pytest.fixture(scope="module")
def paired():
    spec = importlib.util.spec_from_file_location("paired", PAIRED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent_ms, change_ms, parent_rate, change_rate):
    return [
        {"parent": {"unit_ms": p, "records_per_s": pr},
         "change": {"unit_ms": c, "records_per_s": cr}}
        for p, c, pr, cr in zip(parent_ms, change_ms, parent_rate, change_rate)
    ]


def test_order_alternates_which_side_runs_first(paired):
    assert [paired.order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"),
        ("parent", "change"), ("change", "parent"),
    ]


def test_quartiles_interpolate_between_order_statistics(paired):
    assert paired.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert paired.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert paired.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_reads_better_from_the_spec(paired):
    pairs = _pairs(
        parent_ms=[250.0, 270.0, 240.0, 245.0, 280.0],
        change_ms=[100.0, 110.0, 250.0, 100.0, 105.0],
        parent_rate=[2.0, 3.0, 4.0, 5.0, 6.0],
        change_rate=[7.0, 2.0, 8.0, 9.0, 6.0],
    )
    rows = {row["name"]: row for row in paired.summarize(pairs, END_TO_END)}
    unit = rows["unit_ms"]
    assert unit["parent"] == (245.0, 250.0, 270.0)
    assert unit["change"] == (100.0, 105.0, 110.0)
    assert unit["ratio"] == pytest.approx(105.0 / 250.0)
    # Lower is better: pair 3 (250 against 240) is a loss.
    assert (unit["wins"], unit["pairs"]) == (4, 5)
    rate = rows["records_per_s"]
    assert rate["parent"][1] == 4.0 and rate["change"][1] == 7.0
    # Higher is better: pair 2 loses and pair 5 ties, and a tie is no win.
    assert (rate["wins"], rate["pairs"]) == (3, 5)
    text = paired.format_summary(paired.summarize(pairs, END_TO_END))
    assert "4/5" in text and "3/5" in text


def test_pair_line_shows_both_sides(paired):
    (pair,) = _pairs([250.0], [100.0], [2.0], [7.0])
    line = paired.format_pair(1, "change", pair, ["unit_ms", "records_per_s"])
    assert line == ("pair 2 (change first): unit_ms 250/100  "
                    "records_per_s 2/7")
