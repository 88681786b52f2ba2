"""ellipkurt benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload estimate-tall --seed 1 --seconds 40 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout; nothing needs installing. ``--trace 0`` measures the
end-to-end metrics with no instrumentation. ``--trace 1`` makes each call
twice, untraced and with every layer boundary wrapped (see
``tracer.py``), and reports per-layer metrics of the traced calls and the
tracing overhead against the untraced ones.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
A record with provenance, the per-shape layer table and the first output
problems goes to ``perfbench/out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_IMPORTS = 5
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import ellipkurt, ellipkurt.cli; "
    "print(time.perf_counter() - t)"
)

# (metric, layer.function, argument shape) picked from the per-shape table.
SHAPE_METRICS = [
    ("ustat.ustats_fast.ms.p100", "ustat.ustats_fast", "100x100"),
    ("ustat.ustats_fast.ms.p400", "ustat.ustats_fast", "100x400"),
    ("ustat.ustats_fast.ms.p1600", "ustat.ustats_fast", "100x1600"),
    ("ustat.ustats_fast.ms.n1000", "ustat.ustats_fast", "1000x100"),
    ("models.sample_data.ms.p100", "models.sample_data", "100x100"),
    ("models.sample_data.ms.p400", "models.sample_data", "100x400"),
    ("models.sample_data.ms.p1600", "models.sample_data", "100x1600"),
    ("baselines.oracle_theta.ms.p1600", "baselines.oracle_theta", "100x1600"),
    ("baselines.wl_theta.ms.p1600", "baselines.wl_theta", "100x1600"),
    ("inference.plugin_moments_case2.ms.p1600", "inference.plugin_moments_case2", "100x1600"),
    ("inference.plugin_moments_case2.ms.n1000", "inference.plugin_moments_case2", "1000x100"),
    ("linalg.setup.ms.p1600", "linalg.setup", "1600"),
]

# Exception classes each boundary is expected to raise; any other class is
# counted under "<layer>.errors.other" (the record lists all of them).
ERROR_METRICS = [
    "cli.errors.CsvParseError",
    "harness.errors.InvalidParameterError",
    "harness.errors.SchemaError",
    "linalg.errors.NotPSDError",
    "linalg.errors.LinAlgError",
    "models.errors.InvalidParameterError",
    "ustat.errors.DegenerateDataError",
    "inference.errors.InvalidDofError",
    "inference.errors.UndefinedDofError",
    "inference.errors.DegenerateDataError",
    "baselines.errors.DegenerateDataError",
    "baselines.errors.SingularMatrixError",
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("estimate-tall", "table1-desk", "table2-desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help="replications per simulate call, table workloads only "
                             "(smoke tests)")
    return parser.parse_args(argv)


def import_package():
    """Import ellipkurt from this checkout's src/, never from elsewhere."""
    init = SRC / "ellipkurt" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ellipkurt
    from ellipkurt import cli

    if Path(ellipkurt.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported ellipkurt from {ellipkurt.__file__}")
    return cli


def measure_setup() -> float:
    """Median over fresh interpreters of the time to import the package and
    its CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_IMPORTS):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def closed_loop(step, seconds: float, first: int) -> list:
    """Call ``step(first)``, ``step(first + 1)``, ... until the next call
    would be predicted to end past ``seconds``; return the results. At
    least one call runs."""
    deadline = time.perf_counter() + seconds
    results, spent = [], []
    k = first
    while True:
        t0 = time.perf_counter()
        results.append(step(k))
        spent.append(time.perf_counter() - t0)
        k += 1
        if time.perf_counter() + statistics.median(spent) > deadline:
            return results


def warm_up(wl, cli) -> int:
    """Make the workload's untimed warm-up call, if it has one; return the
    index of the first timed call."""
    if not wl.warm_up:
        return 0
    wl.call(0, cli.main)
    return 1


def percentile_80(values: list[float]) -> float:
    """80th percentile, interpolating between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=5, method="inclusive")[3]


def end_to_end(wl, cli, seconds: float, record: dict) -> dict:
    setup_s = measure_setup()
    lat = closed_loop(lambda k: wl.call(k, cli.main), seconds, warm_up(wl, cli))
    record["provenance"]["calls"] = len(lat)
    record["calls_beyond_p80"] = sum(1 for x in lat if x > percentile_80(lat))
    return {
        "setup_s": setup_s,
        "call_ms_p50": 1e3 * statistics.median(lat),
        "call_ms_p80": 1e3 * percentile_80(lat),
        "reps_per_s": wl.reps_per_call * len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl, cli, seconds: float, record: dict, spans_path: Path) -> dict:
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    main = tracer.root(cli.main)

    def pair(k):
        # The same call untraced and traced, back to back so that drift in
        # the machine's speed cancels out of the overhead; traced first on
        # odd k so that neither twin always runs on the other's warm state.
        def traced_call():
            with tracer.patched():
                return wl.call(k, main, extra_checks=False)

        if k % 2:
            lat = traced_call()
            return wl.call(k, cli.main), lat
        plain = wl.call(k, cli.main)
        return plain, traced_call()

    plain, lat = zip(*closed_loop(pair, seconds, warm_up(wl, cli)))
    wall = sum(lat)
    tracer.dump(spans_path)
    record["provenance"]["calls"] = len(lat)
    record["spans_file"] = spans_path.name
    shapes = tracer.shape_table()
    record["shape_table_ms"] = shapes
    all_errors = tracer.errors()
    record["errors"] = all_errors

    metrics = tracer.summary(wall)
    for name, fn, shape in SHAPE_METRICS:
        metrics[name] = shapes.get(fn, {}).get(shape, 0.0)
    for name, fn in (("cli.read_csv_matrix.ms", "cli.read_csv_matrix"),
                     ("inference.confidence_interval.ms", "inference.confidence_interval")):
        durs = [1e3 * s.duration for s in tracer.spans if f"{s.layer}.{s.name}" == fn]
        metrics[name] = statistics.median(durs) if durs else 0.0
    for name in ERROR_METRICS:
        metrics[name] = all_errors.get(name, 0)
    for layer in LAYERS:
        metrics[f"{layer}.errors.other"] = sum(
            v for k, v in all_errors.items()
            if k.startswith(f"{layer}.errors.") and k not in ERROR_METRICS
        )
    metrics["harness.rep_failures"] = wl.rep_failures / wl.calls
    metrics["trace.overhead_frac"] = wall / sum(plain) - 1.0
    return metrics


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, wl) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    # A checkout exported without .git has no commit; the digest of the
    # package sources still tells its runs apart.
    digest = hashlib.sha256()
    for path in sorted((SRC / "ellipkurt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **wl.provenance(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_package()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    if args.reps and args.workload == "estimate-tall":
        raise SystemExit("error: --reps applies to the table workloads only")
    kwargs = {"reps": args.reps} if args.reps else {}
    wl = WORKLOADS[args.workload](args.seed, OUT, **kwargs)
    wl.prepare()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance(args, wl)}
    if args.trace:
        metrics = traced(wl, cli, args.seconds, record, OUT / f"{stem}.spans.jsonl")
    else:
        metrics = end_to_end(wl, cli, args.seconds, record)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if args.trace else "end_to_end"]
    record["failed_frac"] = wl.failed / wl.attempted
    record["problems"] = wl.problems[:50]
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    record["result"] = result
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in wl.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
