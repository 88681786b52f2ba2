"""Compare two checkouts on the benchmark in alternated pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json

PARENT and CHANGE are two checkouts of the repository, for example two
``git archive`` exports. Each of 10 pairs, pair k, runs in each checkout
that checkout's own ``BENCHMARK.json`` command (``perfbench/run.py``) with
``--trace 0`` once for each workload listed in CHANGE's
``BENCHMARK.json``, both sides at seed 1 + k and at that file's
``run_seconds``; the parent runs first in even pairs and the change first
in odd ones, so neither side always runs on a machine the other has just
warmed. Nothing is imported from either checkout: each run is a fresh
process.

The JSON written to ``--out`` holds, per workload: each side's provenance
line, ``attempted`` and ``failed`` summed over its runs, and, for every
end-to-end metric, each side's runs, median and quartiles; the change's
wins, the pairs in which it reads better by the metric's ``better``
direction (ties count for neither side); the relative change of the
medians next to the metric's regression bound; and a verdict, the first
of these that holds:

- ``gain``: the change wins at least nine tenths of the pairs, and its
  median beats the parent's by more than the parent's quartile spread;
- ``unresolved``: the parent's quartile spread, relative to its median, is
  wider than the bound, and not every run of the change beats every run
  of the parent, so the runs cannot tell a change of the bound's size;
- ``regression``: the change's median is worse by more than the bound;
- ``within bound``: anything else.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    return parser.parse_args(argv)


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """One benchmark run in ``checkout``: its provenance and its result."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.splitlines()
    prov = next(line for line in lines if line.startswith("provenance "))
    return json.loads(prov.partition(" ")[2]), json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per metric, each side's runs and quartiles, the change's wins and the
    relative change of the medians; plus each side's operation counts."""
    out = {"provenance": {side: runs[side][0][0] for side in SIDES}}
    for side in SIDES:
        results = [result for _, result in runs[side]]
        out[side] = {"attempted": sum(r["attempted"] for r in results),
                     "failed": sum(r["failed"] for r in results)}
    out["metrics"] = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [result["metrics"][name]["value"] for _, result in runs[side]]
                  for side in SIDES}
        q = {side: quartiles(values[side]) for side in SIDES}
        entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
        for side in SIDES:
            entry[side] = {"runs": values[side], "q1": q[side][0], "median": q[side][1],
                           "q3": q[side][2]}
        entry["change_wins"] = sum(sign * (c - p) > 0
                                   for p, c in zip(values["parent"], values["change"]))
        entry["pairs"] = len(values["parent"])
        parent_median = q["parent"][1]
        entry["median_rel_change"] = (q["change"][1] / parent_median - 1.0
                                      if parent_median else None)
        entry["verdict"] = verdict(entry, sign)
        out["metrics"][name] = entry
    return out


def verdict(entry: dict, sign: float) -> str:
    """The verdict on one metric's ``summarize`` entry (see the module
    docstring); ``sign`` is +1 where higher is better and -1 where lower is."""
    parent, change, bound = entry["parent"], entry["change"], entry["bound"]
    gain = sign * (change["median"] - parent["median"])  # > 0: the change reads better
    spread = parent["q3"] - parent["q1"]
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] and gain > spread:
        return "gain"
    scale = abs(parent["median"])
    if spread > bound * scale and not all(sign * (c - p) > 0 for c in change["runs"]
                                          for p in parent["runs"]):
        return "unresolved"
    if -gain > bound * scale:
        return "regression"
    return "within bound"


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = {side: json.loads((path / "BENCHMARK.json").read_text())
             for side, path in zip(SIDES, (args.parent, args.change))}
    spec = bench["change"]
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    started = time.time()
    for k in range(PAIRS):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                runs[workload][side].append(run_once(
                    checkouts[side], bench[side]["command"], workload, 1 + k, seconds))
        print(f"pair {k + 1}/{PAIRS} done after {time.time() - started:.0f} s",
              file=sys.stderr)
    record = {
        "pairs": PAIRS, "seeds": list(range(1, PAIRS + 1)), "seconds": seconds,
        "workloads": {w: summarize(runs[w], spec["end_to_end"]) for w in workloads},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, summary in record["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload:14} {name:12} parent {m['parent']['median']:10.4g} "
                  f"change {m['change']['median']:10.4g}  change wins "
                  f"{m['change_wins']:2}/{m['pairs']}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
