"""Smoke test of the benchmark itself (about a minute):

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at minimal size in both modes and checks that each
metric named in BENCHMARK.json is reported with its unit, and that a
corrupted program output is counted as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import EstimateTall, Table1Desk, Table2Desk  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_unit(workload, trace):
    reps = [] if workload == "estimate-tall" else ["--reps", "2"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)] + reps,
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


def _rewrite_line(main, key: str, text: str):
    """``main`` with the value of its output line ``key`` replaced by ``text``."""
    def rewritten(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        for line in buf.getvalue().splitlines():
            print(f"{key:<8s} {text}" if line.split(" ", 1)[0] == key else line)
        return rc
    return rewritten


def test_corrupted_estimate_output_is_a_failure(tmp_path):
    from ellipkurt import cli

    wl = EstimateTall(seed=3, out_dir=tmp_path)
    wl.prepare()
    wl.call(2, cli.main)
    assert (wl.attempted, wl.failed) == (1, 0)
    wl.call(3, _rewrite_line(cli.main, "theta", "nan"))
    assert (wl.attempted, wl.failed) == (2, 1)
    assert any("theta" in p for p in wl.problems)


@pytest.mark.parametrize("method, failed", [("case1", 1), ("t", 0)])
def test_only_the_t_interval_may_be_unavailable(tmp_path, method, failed):
    from ellipkurt import cli

    wl = EstimateTall(seed=3, out_dir=tmp_path)
    wl.prepare()
    wl.call(2, _rewrite_line(cli.main, method, "unavailable: injected"))
    assert (wl.attempted, wl.failed) == (1, failed)


def _fake_csv(kind: str, reps: int, corrupt_row: int | None) -> str:
    lines = [checks.CSV_HEADER]
    for i, (fam, p, method) in enumerate(checks.expected_rows(kind)):
        theta = checks.true_theta(fam, p)
        used = reps - 1 if i == corrupt_row else reps
        cov = "0.95,0.1" if kind == "coverage" else ","
        lines.append(f"{fam},{p},100,{method},{theta:.6g},0.1,{cov},{used},0")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("table", [Table1Desk, Table2Desk])
def test_corrupted_table_row_is_a_failure(tmp_path, table):
    wl = table(seed=3, out_dir=tmp_path, reps=20)

    def fake_main(corrupt_row):
        def main(argv):
            out_dir = Path(argv[argv.index("--out-dir") + 1])
            (out_dir / f"{wl.kind}.csv").write_text(_fake_csv(wl.kind, 20, corrupt_row))
            return 0
        return main

    wl.call(0, fake_main(None))
    assert (wl.attempted, wl.failed) == (60, 0)
    wl.call(1, fake_main(7))
    assert (wl.attempted, wl.failed) == (120, 1)

    rows, bad, problems, _ = checks.check_table(
        _fake_csv(wl.kind, 20, None).replace(checks.CSV_HEADER, "family,p"), wl.kind, 20)
    assert bad == rows == 60 and "header" in problems[0]


@pytest.mark.parametrize("method, bad", [("case1", 1), ("case2", 0)])
def test_zero_width_interval_is_a_failure_except_case2(method, bad):
    lines = _fake_csv("coverage", 20, None).splitlines()
    i = next(i for i, line in enumerate(lines) if line.split(",")[3] == method)
    lines[i] = lines[i].replace(",0.95,0.1,", ",0,0,")
    _, found, _, _ = checks.check_table("\n".join(lines) + "\n", "coverage", 20)
    assert found == bad


def test_bare_directory_exits_nonzero(tmp_path):
    """Without the package sources the benchmark fails without a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate-tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracer_self_time_and_errors_by_class():
    from tracer import Tracer

    tracer = Tracer()
    inner = tracer.wrap("ustat", "inner", lambda: time.sleep(0.02) or 1 / 0)

    def outer_fn():
        time.sleep(0.01)
        try:
            inner()
        except ZeroDivisionError:
            pass

    tracer.wrap("cli", "outer", outer_fn)()
    outer, = [s for s in tracer.spans if s.name == "outer"]
    child, = [s for s in tracer.spans if s.name == "inner"]
    assert child.parent == outer.sid and outer.parent == 0
    assert outer.self_s == pytest.approx(outer.duration - child.duration)
    assert 0.01 <= outer.self_s < outer.duration
    assert tracer.errors() == {"ustat.errors.ZeroDivisionError": 1}
    summary = tracer.summary(outer.duration)
    assert summary["cli.busy_s"] + summary["ustat.busy_s"] == pytest.approx(outer.duration)
    assert summary["trace.unattributed_frac"] == pytest.approx(0.0, abs=1e-9)


def test_tracer_records_every_span_across_threads():
    from tracer import Tracer

    tracer = Tracer()
    leaf = tracer.wrap("models", "leaf", lambda: None)
    node = tracer.wrap("harness", "node", lambda: [leaf() for _ in range(50)])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [node() for _ in range(20)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    spans = tracer.spans
    assert len(spans) == 8 * 20 * 51
    assert len({s.sid for s in spans}) == len(spans)
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.name == "leaf":
            assert by_id[s.parent].name == "node" and by_id[s.parent].thread == s.thread
