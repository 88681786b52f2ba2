"""``tools/bench_pairs.py`` decides whether a change reads better than its
parent on the benchmark; these tests feed its ``summarize`` synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(values, attempted=10, failed=0, name="m"):
    """One side's runs as ``run_once`` returns them: (provenance, result)."""
    return [({"run": k}, {"attempted": attempted, "failed": failed,
                          "metrics": {name: {"value": v}}})
            for k, v in enumerate(values)]


def summary(bench_pairs, parent, change, better, counts=None):
    """``summarize`` of one metric ``m`` over the two sides' values;
    ``counts`` maps a side to its ``runs_of`` operation counts."""
    metric = {"name": "m", "unit": "ms", "better": better, "bound": 0.25}
    counts = counts or {}
    runs = {"parent": runs_of(parent, **counts.get("parent", {})),
            "change": runs_of(change, **counts.get("change", {}))}
    return bench_pairs.summarize(runs, [metric])


@pytest.mark.parametrize("better, wins", [("lower", 2), ("higher", 1)])
def test_wins_follow_the_better_direction_and_ties_count_for_neither(bench_pairs, better,
                                                                     wins):
    # Pairs: change lower, lower, equal, higher.
    out = summary(bench_pairs, [10.0, 20.0, 30.0, 40.0], [9.0, 19.0, 30.0, 41.0], better)
    entry = out["metrics"]["m"]
    assert entry["change_wins"] == wins
    assert entry["pairs"] == 4
    assert (entry["better"], entry["bound"], entry["unit"]) == (better, 0.25, "ms")


def test_quartiles_are_inclusive(bench_pairs):
    # Inclusive quartiles of 1..5 are the data points 2, 3 and 4; the
    # exclusive method would give 1.5 and 4.5.
    out = summary(bench_pairs, [5.0, 1.0, 4.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0], "lower")
    parent, change = out["metrics"]["m"]["parent"], out["metrics"]["m"]["change"]
    assert (parent["q1"], parent["median"], parent["q3"]) == (2.0, 3.0, 4.0)
    assert (change["q1"], change["median"], change["q3"]) == (17.5, 25.0, 32.5)
    assert parent["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]
    assert bench_pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_median_rel_change(bench_pairs):
    entry = summary(bench_pairs, [8.0, 10.0, 12.0], [11.0, 12.0, 13.0], "lower")["metrics"]["m"]
    assert entry["median_rel_change"] == pytest.approx(0.2, rel=1e-15)
    entry = summary(bench_pairs, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "lower")["metrics"]["m"]
    assert entry["median_rel_change"] is None


def test_operation_counts_and_provenance(bench_pairs):
    out = summary(bench_pairs, [1.0, 2.0], [1.0, 2.0], "lower",
                  counts={"parent": {"attempted": 7, "failed": 1}, "change": {"attempted": 9}})
    assert out["parent"] == {"attempted": 14, "failed": 2}
    assert out["change"] == {"attempted": 18, "failed": 0}
    assert out["provenance"] == {"parent": {"run": 0}, "change": {"run": 0}}
