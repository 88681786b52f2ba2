"""Run every workload and print the end-to-end metrics with their units, the
failed fraction, the per-layer shares and the per-shape layer table:

    python3 perfbench/report.py --seed 1

Each workload runs once untraced and once traced, for ``run_seconds`` of
BENCHMARK.json each, in its own process, through ``run.py``. The tables are printed
as markdown and also written to ``perfbench/out/report.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Columns of the per-shape table: traced function and heading.
GRID_COLUMNS = [
    ("linalg.setup", "spec create"), ("linalg.cholesky", "cholesky"),
    ("models.sample_data", "sample"), ("ustat.ustats_fast", "ustats_fast"),
    ("baselines.oracle_theta", "oracle"), ("baselines.wl_theta", "wl"),
    ("inference.plugin_moments_case2", "plugin"),
    ("inference.confidence_interval", "interval"),
]
GRID_ROWS = [(100, 100), (100, 400), (100, 1600), (1000, 100)]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    sys.stderr.write(proc.stderr)
    record = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines)


def fmt(x) -> str:
    return f"{x:.4g}" if isinstance(x, float) else str(x)


def shape_label(fn: str, n: int, p: int) -> str:
    if fn == "linalg.setup":
        return str(p) if n == 100 else ""
    if fn == "linalg.cholesky":
        return f"{p}x{p}" if n == 100 else ""
    return f"{n}x{p}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    seconds = SPEC["run_seconds"]
    workloads = [w["name"] for w in SPEC["workloads"]]
    plain = {w: run(w, args.seed, seconds, 0) for w in workloads}
    traced = {w: run(w, args.seed, seconds, 1) for w in workloads}

    e2e = SPEC["end_to_end"]
    out = ["## End to end (untraced)", "", table(
        ["workload"] + [f"{m['name']} ({m['unit']})" for m in e2e]
        + ["failed_frac", "attempted", "calls"],
        [[w] + [fmt(r["result"]["metrics"][m["name"]]["value"]) for m in e2e]
         + [fmt(r["failed_frac"]), str(r["result"]["attempted"]), str(r["provenance"]["calls"])]
         for w, r in plain.items()],
    )]

    def metric(w, name):
        return traced[w]["result"]["metrics"][name]["value"]

    out += ["", "## Layer self time, share of traced wall time", "", table(
        ["workload", "wall s"] + [f"{layer}" for layer in LAYERS]
        + ["harness.self_s", "unattributed", "trace overhead"],
        [[w, fmt(metric(w, "trace.wall_s"))]
         + [f"{metric(w, f'{layer}.busy_s'):.3g} s ({100 * metric(w, f'{layer}.share'):.1f}%)"
            for layer in LAYERS]
         + [fmt(metric(w, "harness.self_s")),
            f"{100 * metric(w, 'trace.unattributed_frac'):.4f}%",
            f"{100 * metric(w, 'trace.overhead_frac'):+.1f}%"]
         for w in traced],
    )]
    rows = []
    for n, p in GRID_ROWS:
        cells = []
        for fn, _ in GRID_COLUMNS:
            found = [r["shape_table_ms"].get(fn, {}).get(shape_label(fn, n, p))
                     for r in traced.values()]
            found = [x for x in found if x is not None]
            cells.append(f"{statistics.median(found):.3g}" if found else "")
        rows.append([f"n={n}, p={p}"] + cells)
    out += ["", "## Median ms per call, by shape (traced runs)", "",
            table(["shape"] + [h for _, h in GRID_COLUMNS], rows)]
    prov = next(iter(plain.values()))["provenance"]
    out += ["", "Provenance: " + ", ".join(
        f"{k}={prov[k]}" for k in ("python", "numpy", "scipy", "blas", "nproc",
                                   "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "git_commit"))
            + f", seed={args.seed}, seconds={seconds}"]
    text = "\n".join(out) + "\n"
    (OUT / "report.md").write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
