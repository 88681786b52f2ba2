import json

import numpy as np
import pytest

from ellipkurt import CSV_HEADER, estimate_kurtosis
from ellipkurt.cli import main, read_csv_matrix
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


@pytest.mark.parametrize("dry_run", [True, False])
def test_simulate_config_bad_rho_exit_2(tmp_path, capsys, dry_run):
    # An invalid AR(1) coefficient is a config error before any cell runs.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "normal", "p_list": [8], "n": 16, "rho": 1.5}))
    out_dir = tmp_path / "res"
    args = ["simulate", "--config", str(cfg_path), "--out-dir", str(out_dir)]
    assert main(args + ["--dry-run"] * dry_run) == 2
    assert "rho" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("dry_run", [True, False])
def test_simulate_config_unknown_ci_method_exit_2(tmp_path, capsys, dry_run):
    # An unknown interval method is a config error, not a traceback.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "normal", "p_list": [8], "n": 16,
                                    "ci_methods": ["bogus"]}))
    out_dir = tmp_path / "res"
    args = ["simulate", "--config", str(cfg_path), "--out-dir", str(out_dir)]
    assert main(args + ["--dry-run"] * dry_run) == 2
    assert "bogus" in capsys.readouterr().err
    assert not out_dir.exists()


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
    # estimate and a serial simulate never look up or set the BLAS threads;
    # the workers line says what a pooled run did with them.
    path = tmp_path / "data.csv"
    write_csv(path, np.random.default_rng(3).normal(size=(20, 3)))
    assert main(["estimate", "--input", str(path), "--ci", "all"]) == 0
    capsys.readouterr()
    args = ["simulate", "--family", "normal", "--p", "8", "--n", "16", "--reps", "2",
            "--out-dir", str(tmp_path / "res")]
    assert main(args + ["--workers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "workers: 1 (serial; OpenBLAS threads left as set)"
    assert fake_blas.lookups == 0
    assert main(args + ["--workers", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed: ")
    assert lines[1] == "workers: 2 (OpenBLAS held to 1 thread while replications run)"
    assert [lib.sets for lib in fake_blas.libs] == [[1, 4]] * 2


def test_simulate_reports_why_blas_is_not_limited(tmp_path, capsys, fake_blas):
    fake_blas.libs = []
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


def test_validate_ustat_quick(capsys):
    assert main(["validate", "ustat", "--quick", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ustat differential" in out
    assert "all checks passed" in out


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
    assert run("b", "--workers", "1") == first
    assert run("c", "--workers", "2") == first
