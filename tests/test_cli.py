import dataclasses
import json
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ellipkurt import CSV_HEADER, estimate_kurtosis, harness, validation
from ellipkurt.cli import _parse_lines, _read_lines, main, read_csv_matrix
from ellipkurt.errors import CsvParseError


def write_csv(path, X, header=None):
    lines = []
    if header:
        lines.append(header)
    lines.extend(",".join(repr(float(v)) for v in row) for row in X)
    path.write_text("\n".join(lines) + "\n")


def test_read_csv_matrix_plain(tmp_path):
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.5, -6.25], [0.0, 9.0]])
    path = tmp_path / "data.csv"
    write_csv(path, X)
    assert np.array_equal(read_csv_matrix(path), X)


def test_read_csv_matrix_header_autodetect(tmp_path):
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "data.csv"
    write_csv(path, X, header="alpha,beta")
    assert np.array_equal(read_csv_matrix(path), X)


def test_read_csv_matrix_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n5,oops\n")
    with pytest.raises(CsvParseError, match="line 3"):
        read_csv_matrix(path)


def test_read_csv_matrix_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(CsvParseError, match="line 2"):
        read_csv_matrix(path)


@pytest.mark.parametrize("header", [None, "alpha,beta"])
def test_read_csv_matrix_byte_order_mark(tmp_path, header):
    # A BOM is not part of line 1: without a header, that line is data.
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    path = tmp_path / "bom.csv"
    write_csv(path, X, header=header)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert np.array_equal(read_csv_matrix(path), X)


def parse_both(path):
    """(result, error message) of ``read_csv_matrix`` and of the
    line-by-line reference parse, each a float array or a string."""
    def outcome(parse):
        try:
            return parse()
        except CsvParseError as exc:
            return str(exc)

    return (outcome(lambda: read_csv_matrix(path)),
            outcome(lambda: _parse_lines(path, _read_lines(path))))


def assert_same_outcome(got, ref):
    if isinstance(ref, str):
        assert got == ref
    else:
        assert got.shape == ref.shape and got.dtype == ref.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("text, expected", [
    ("alpha,beta\n\n \t\n1,2\n\n3,4\n \n", [[1, 2], [3, 4]]),
    ("\n  \nalpha,beta\n\t\n1,2\n", "line 3: non-numeric value in data row"),
    ("a,b\r\n 1 ,\t2\r\n3\t, 4 \r\n", [[1, 2], [3, 4]]),
    ("1,2\n\n3,4,\n", "line 3: non-numeric value in data row"),
    ("1,2\n\n\n3,4,5\n", "line 4: expected 2 columns, got 3"),
    ("1_0,2\n3,4_5\n", [[10, 2], [3, 45]]),
    ("\u0661,2\n3,\u0664\n", [[1, 2], [3, 4]]),
    ("nan,-inf\n1e400,-nan\n", [[NAN, -INF], [INF, -NAN]]),
    ("1,2,3\n", [[1, 2, 3]]),
    ("x\n1\n2\n", [[1], [2]]),
    ("", "no data rows found"),
    ("alpha,beta\n", "no data rows found"),
], ids=["header-blank-lines-after", "header-after-blank-lines", "crlf-spaces-tabs",
        "trailing-comma", "ragged-after-blank-lines", "underscore", "non-ascii-digit",
        "non-finite", "single-row", "single-column", "empty", "header-only"])
def test_read_csv_matrix_matches_line_parse(tmp_path, text, expected):
    # The one-pass parse and the line-by-line parse agree bit for bit, or
    # raise the same message.
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    got, ref = parse_both(path)
    assert_same_outcome(got, ref)
    if isinstance(expected, str):
        assert got == f"{path}: {expected}"
    else:
        assert_same_outcome(got, np.array(expected, dtype=float))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@given(X=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)),
       header=st.booleans())
@settings(max_examples=100, deadline=None)
def test_read_csv_matrix_round_trips_repr(csv_path, X, header):
    write_csv(csv_path, X, header="a,b" if header else None)
    got, ref = parse_both(csv_path)
    assert_same_outcome(got, ref)
    assert_same_outcome(got, X)


@given(text=st.text(alphabet="0123456789.,+-eEinfa_ \t\r\n\x1c\xa0\u0661", max_size=40))
@settings(max_examples=300, deadline=None)
def test_read_csv_matrix_matches_line_parse_on_any_text(csv_path, text):
    # The loadtxt grammar is a subset of float's, with the same doubles.
    csv_path.write_bytes(text.encode("utf-8"))
    assert_same_outcome(*parse_both(csv_path))


def test_estimate_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4, 2))
    path = tmp_path / "data.csv"
    write_csv(path, X)
    assert main(["estimate", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    est = estimate_kurtosis(X)
    theta_line = [l for l in out.splitlines() if l.startswith("theta")][0]
    assert float(theta_line.split()[1]) == float(f"{est.theta_hat:.10g}")


def test_estimate_all_intervals(tmp_path, capsys, gram_builds):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 4)) + np.array([5.0, 4.0, 3.0, 2.0])
    path = tmp_path / "iris_like.csv"
    write_csv(path, X, header="a,b,c,d")
    assert main(["estimate", "--input", str(path), "--ci", "all"]) == 0
    out = capsys.readouterr().out
    assert "case1" in out
    assert "case2    [" in out
    assert "example1" in out
    # theta_hat and the case-2 plug-ins read one summary of the data.
    assert gram_builds == [(50, 4)]


def test_estimate_writes_csv_reports(tmp_path, capsys):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 3))
    path = tmp_path / "data.csv"
    write_csv(path, X)
    out_dir = tmp_path / "out"
    assert main([
        "estimate", "--input", str(path), "--ci", "laplace",
        "--out-dir", str(out_dir),
    ]) == 0
    est_lines = (out_dir / "estimate.csv").read_text().splitlines()
    assert est_lines[0] == "theta_hat,t1,t2,t3,n,p"
    got_theta = float(est_lines[1].split(",")[0])
    assert got_theta == pytest.approx(estimate_kurtosis(X).theta_hat, rel=1e-9)
    ci_lines = (out_dir / "intervals.csv").read_text().splitlines()
    assert ci_lines[0] == "method,lower,upper,level,sigma_hat,theta_hat"
    assert ci_lines[1].startswith("laplace,")


def test_estimate_malformed_csv_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nx,y\n")
    assert main(["estimate", "--input", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("make, message", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"1,2\n3,\xff\n"), "not UTF-8 text"),
], ids=["missing", "directory", "not-utf8"])
def test_estimate_unreadable_input_exit_2(tmp_path, capsys, make, message):
    path = tmp_path / "data.csv"
    make(path)
    assert main(["estimate", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("ci", [[], ["--ci", "all"], ["--ci", "laplace"]])
@pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
def test_estimate_bad_alpha_exit_2(tmp_path, capsys, ci, alpha):
    # A usage error before any work: the input is never read.
    args = ["estimate", "--input", str(tmp_path / "missing.csv"), "--alpha", alpha]
    assert main(args + ci) == 2
    captured = capsys.readouterr()
    assert "alpha must be in (0, 1)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("alpha", ["1e-17", "1e-20", "5e-324"])
def test_estimate_alpha_whose_z_is_infinite_exit_2(tmp_path, capsys, alpha):
    path = tmp_path / "data.csv"
    write_csv(path, np.random.default_rng(3).normal(size=(10, 2)))
    assert main(["estimate", "--input", str(path), "--ci", "all", "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert "alpha" in captured.err and "too small" in captured.err
    assert captured.out == ""


def test_estimate_insufficient_sample_exit_1(tmp_path, capsys):
    path = tmp_path / "small.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    assert main(["estimate", "--input", str(path)]) == 1
    assert "4 observations" in capsys.readouterr().err


def test_simulate_dry_run_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main([
        "simulate", "--family", "normal", "--p", "10", "--n", "20",
        "--reps", "3", "--seed", "7", "--out-dir", str(out_dir), "--dry-run",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "planned grid" in out
    assert not out_dir.exists()


def test_simulate_inline_flags(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main([
        "simulate", "--family", "normal", "--p", "10", "--p", "15",
        "--n", "20", "--reps", "4", "--seed", "7",
        "--ci-method", "example1",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    est = (out_dir / "estimation.csv").read_text().splitlines()
    assert est[0].startswith("family,p,n,method")
    assert len(est) == 1 + 2 * 3  # two dimensions, three estimators
    cov = (out_dir / "coverage.csv").read_text().splitlines()
    assert len(cov) == 1 + 2 * 1
    for line in cov[1:]:
        fields = line.split(",")
        assert fields[6] != "" and fields[7] != ""  # ecp, avg_width populated


def test_simulate_config_file(tmp_path, capsys):
    cfg = {
        "family": "laplace",
        "p_list": [8],
        "n": 16,
        "reps": 3,
        "seed": 11,
        "methods": ["theta_hat"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "res"
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    rows = (out_dir / "estimation.csv").read_text().splitlines()
    assert len(rows) == 2


def test_simulate_bad_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "normal", "p_list": [8], "nope": 1}))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("make, message", [
    (lambda path: None, "cannot read config: No such file or directory"),
    (lambda path: path.write_text('{"family": "normal",'), "not a JSON config"),
], ids=["missing", "broken-json"])
def test_simulate_unreadable_config_exit_2(tmp_path, capsys, make, message):
    cfg_path = tmp_path / "cfg.json"
    make(cfg_path)
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: {message}")


def refused_config_error(tmp_path, capsys, bad, dry_run):
    """stderr of a simulate call on a config with the ``bad`` entries, which
    must exit 2 before it plans or writes anything."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "normal", "p_list": [8], "n": 16, **bad}))
    out_dir = tmp_path / "res"
    args = ["simulate", "--config", str(cfg_path), "--out-dir", str(out_dir)]
    assert main(args + ["--dry-run"] * dry_run) == 2
    captured = capsys.readouterr()
    assert "planned grid" not in captured.out and not out_dir.exists()
    return captured.err


@pytest.mark.parametrize("dry_run", [True, False])
def test_simulate_config_bad_rho_exit_2(tmp_path, capsys, dry_run):
    # An invalid AR(1) coefficient is a config error before any cell runs.
    assert "rho" in refused_config_error(tmp_path, capsys, {"rho": 1.5}, dry_run)


@pytest.mark.parametrize("dry_run", [True, False])
def test_simulate_config_unknown_ci_method_exit_2(tmp_path, capsys, dry_run):
    # An unknown interval method is a config error, not a traceback.
    assert "bogus" in refused_config_error(tmp_path, capsys, {"ci_methods": ["bogus"]}, dry_run)


@pytest.mark.parametrize("dry_run", [True, False])
@pytest.mark.parametrize("bad, message", [
    ({"n": 20.5}, "n must be an integer"), ({"reps": 2.5}, "reps must be an integer"),
    ({"seed": "abc"}, "seed must be an integer"), ({"seed": -1}, "seed must be >= 0"),
    ({"p_list": [10.7]}, "p must be an integer"), ({"family": 5}, "family must be one of"),
    ({"family": "cauchy"}, "family must be one of"), ({"alpha": "0.1"}, "alpha must be in"),
])
def test_simulate_config_bad_types_exit_2(tmp_path, capsys, bad, message, dry_run):
    assert message in refused_config_error(tmp_path, capsys, bad, dry_run)


@pytest.mark.parametrize("source", [["--family", "normal", "--p", "8", "--n", "16"],
                                    ["--preset", "table1-desk"]], ids=["family", "preset"])
@pytest.mark.parametrize("reps, dry_run", [("0", False), ("-3", True), ("0", True)])
def test_simulate_bad_reps_exit_2(tmp_path, capsys, source, reps, dry_run):
    # --reps overrides a validated config and is validated like it.
    out_dir = tmp_path / "res"
    args = ["simulate", *source, "--reps", reps, "--out-dir", str(out_dir)]
    assert main(args + ["--dry-run"] * dry_run) == 2
    captured = capsys.readouterr()
    assert "reps must be >= 1" in captured.err
    assert "planned grid" not in captured.out
    assert not out_dir.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("dry_run", [False, True])
def test_simulate_bad_workers_exit_2(tmp_path, capsys, workers, dry_run):
    out_dir = tmp_path / "res"
    args = ["simulate", "--family", "normal", "--p", "8", "--reps", "3",
            "--workers", workers, "--out-dir", str(out_dir)]
    assert main(args + ["--dry-run"] * dry_run) == 2
    captured = capsys.readouterr()
    assert "workers must be >= 1" in captured.err
    assert "planned grid" not in captured.out
    assert not out_dir.exists()


def test_simulate_reports_workers_and_blas(tmp_path, capsys, fake_blas):
    # estimate never looks up the library; simulate holds it at one thread
    # at every --workers, and the workers line says so.
    path = tmp_path / "data.csv"
    write_csv(path, np.random.default_rng(3).normal(size=(20, 3)))
    assert main(["estimate", "--input", str(path), "--ci", "all"]) == 0
    assert fake_blas.lookups == 0
    capsys.readouterr()
    args = ["simulate", "--family", "normal", "--p", "8", "--n", "16", "--reps", "2",
            "--out-dir", str(tmp_path / "res")]
    assert main(args + ["--workers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "workers: 1 (OpenBLAS held to 1 thread while replications run)"
    assert fake_blas.lookups == 1 and fake_blas.lib.sets == [1, 4]
    assert main(args + ["--workers", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed: ")
    assert lines[1] == "workers: 2 (OpenBLAS held to 1 thread while replications run)"
    assert fake_blas.lib.sets == [1, 4, 1, 4]


@pytest.mark.filterwarnings("ignore:aggregate over a single replication")
def test_simulate_preset_runs_one_pool_and_one_blas_hold(tmp_path, capsys, fake_blas,
                                                        monkeypatch):
    # Every config and cell of a preset shares one pool: as many worker
    # threads are started as asked for, every replication samples in one of
    # them, never in the main thread, and OpenBLAS is held at one thread
    # once. The harness samples through its module global, so a wrapper
    # there sees each replication's thread.
    started, sampled_in = [], set()

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    real_sample_data = harness.sample_data

    def sampling(*args):
        sampled_in.add(threading.current_thread())
        return real_sample_data(*args)

    monkeypatch.setattr(harness, "threading", SimpleNamespace(Thread=CountingThread))
    monkeypatch.setattr(harness, "sample_data", sampling)
    for workers in (1, 2):
        started.clear()
        sampled_in.clear()
        fake_blas.lib.sets.clear()
        args = ["simulate", "--preset", "table2-desk", "--reps", "2",
                "--workers", str(workers), "--out-dir", str(tmp_path / "res")]
        assert main(args) == 0
        assert len(started) == workers and sampled_in and sampled_in <= set(started)
        assert fake_blas.lib.sets == [1, 4]


def test_simulate_reports_why_blas_is_not_limited(tmp_path, capsys, fake_blas):
    fake_blas.lib = None
    args = ["simulate", "--family", "normal", "--p", "8", "--n", "16", "--reps", "2",
            "--workers", "2", "--out-dir", str(tmp_path / "res")]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "workers: 2 (OpenBLAS threads not limited: no library (fake))"


def test_simulate_without_source_exit_2(capsys):
    assert main(["simulate"]) == 2


def test_validate_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "everything"])
    assert exc.value.code == 2


def test_validate_negative_seed_exit_2(capsys):
    assert main(["validate", "ustat", "--quick", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_validate_ustat_quick(capsys):
    assert main(["validate", "ustat", "--quick", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ustat differential" in out
    assert "all checks passed" in out


def test_validate_moments_quick(capsys):
    assert main(["validate", "moments", "--quick"]) == 0
    out = capsys.readouterr().out
    for group in ("sphere moment", "xi moment", "quadform variance"):
        assert f"ok   {group} " in out
    assert "all checks passed" in out


def test_validate_failed_check_exit_1(capsys, monkeypatch):
    # A brute-force oracle off by a relative 1e-9 fails the differential.
    real = validation.ustats_bruteforce
    monkeypatch.setattr(validation, "ustats_bruteforce",
                        lambda X: dataclasses.replace(real(X), t3=real(X).t3 * (1 + 1e-9)))
    assert main(["validate", "ustat", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL ustat differential" in out and "1 check(s) failed" in out


@pytest.mark.filterwarnings("ignore:aggregate over a single replication")
@pytest.mark.parametrize(
    "preset, csv_name", [("table1-desk", "estimation.csv"), ("table2-desk", "coverage.csv")]
)
def test_simulate_preset_end_to_end(tmp_path, capsys, preset, csv_name):
    # The full desk grid at 2 replications: 4 families x 5 dimensions x
    # 3 methods, reproducible by seed and independent of the worker count.
    def run(name, *extra):
        out_dir = tmp_path / name
        args = ["simulate", "--preset", preset, "--reps", "2", "--seed", "11",
                "--out-dir", str(out_dir), *extra]
        assert main(args) == 0
        return (out_dir / csv_name).read_bytes()

    first = run("a")
    lines = first.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 60
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[8]) + int(fields[9]) == 2
    # The default worker count is the usable cores; it must not matter.
    for workers in ("1", "2", "8"):
        assert run(f"w{workers}", "--workers", workers) == first


DATA = Path(__file__).parent / "data"


@pytest.mark.filterwarnings("ignore:aggregate over a single replication")
@pytest.mark.parametrize(
    "preset, reps, golden",
    [("table1-desk", "3", "table1-desk-reps3-seed7-estimation.csv"),
     ("table2-desk", "6", "table2-desk-reps6-seed7-coverage.csv")],
)
@pytest.mark.parametrize("workers", ["1", "2", "8"])
def test_simulate_preset_matches_golden_csv(tmp_path, capsys, preset, reps, golden, workers):
    # Seeded preset CSVs are a fixed contract: byte for byte the committed
    # outputs, at any worker count. A change to the draws, the statistics
    # or the aggregation that moves any printed digit fails here.
    out_dir = tmp_path / "out"
    args = ["simulate", "--preset", preset, "--reps", reps, "--seed", "7",
            "--workers", workers, "--out-dir", str(out_dir)]
    assert main(args) == 0
    csv_name = golden.rpartition("-")[2]
    assert (out_dir / csv_name).read_bytes() == (DATA / golden).read_bytes()


ESTIMATE_GOLDEN = DATA / "estimate-t12-n60-p6-seed13"


@pytest.mark.parametrize("alpha", ["0.05", "1e-06"])
def test_estimate_matches_golden_output(tmp_path, capsys, alpha):
    # What `estimate --ci all` prints and writes for a committed sample is a
    # fixed contract: stdout, estimate.csv and intervals.csv byte for byte.
    out_dir = tmp_path / "out"
    args = ["estimate", "--input", str(ESTIMATE_GOLDEN / "input.csv"), "--ci", "all",
            "--alpha", alpha, "--out-dir", str(out_dir)]
    assert main(args) == 0
    golden = ESTIMATE_GOLDEN / f"alpha{alpha}"
    assert capsys.readouterr().out == (golden / "stdout.txt").read_text(encoding="utf-8")
    for name in ("estimate.csv", "intervals.csv"):
        assert (out_dir / name).read_bytes() == (golden / name).read_bytes()
