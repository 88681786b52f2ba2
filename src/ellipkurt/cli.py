"""Command-line surface.

Subcommands:

* ``estimate``: kurtosis point estimate (and optional confidence
  intervals) from a CSV data matrix, rows = observations.
* ``simulate``: run the estimation and/or coverage experiments from a
  JSON config, a named preset, or inline flags; writes CSV summaries.
* ``validate``: Monte-Carlo agreement checks for the closed-form moment
  oracles and brute-force-vs-fast differential tests for the statistics.

Exit codes: 0 success, 1 validation/data failure, 2 usage or parse error.
The CLI adds no arithmetic of its own; every number it prints comes from
the corresponding library call.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CsvParseError, EllipkurtError, InvalidParameterError, SchemaError
from .harness import (
    DEFAULT_SEED,
    ExperimentConfig,
    check_workers,
    load_config,
    preset_table1_desk,
    preset_table2_desk,
    run_coverage_experiment,
    run_estimation_experiment,
    summarize_to_csv,
    usable_cores,
)
from .inference import CiMethod, confidence_interval, plugin_moments_case2
from .linalg import BLAS_LIMIT, centered_gram, toeplitz_ar1
from .models import make_law, sample_sphere
from .moments import (
    sphere_moment_1,
    sphere_moment_2,
    sphere_moment_3,
    sphere_moment_4,
    var_centered_sq,
    var_quadform,
    xi_moment,
)
from .ustat import theta_hat, ustats_bruteforce, ustats_fast

CI_CHOICES = ("example1", "kotz", "t", "laplace", "case1", "case2", "all")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def read_csv_matrix(path) -> np.ndarray:
    """Parse a CSV file into an (n, p) float matrix.

    Comma-separated, '.' decimal point. A single leading header line is
    auto-detected (first row with any non-numeric field) and skipped.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            try:
                values = [float(f) for f in fields]
            except ValueError:
                if lineno == 1 and not rows:
                    continue  # header line
                raise CsvParseError(
                    f"{path}: line {lineno}: non-numeric value in data row"
                ) from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise CsvParseError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise CsvParseError(f"{path}: no data rows found")
    return np.asarray(rows, dtype=float)


def cmd_estimate(args) -> int:
    X = read_csv_matrix(args.input)
    cg = centered_gram(X)
    est = theta_hat(ustats_fast(cg))
    u = est.ustats
    print(f"n        {u.n}")
    print(f"p        {u.p}")
    print(f"t1       {u.t1:.10g}")
    print(f"t2       {u.t2:.10g}")
    print(f"t3       {u.t3:.10g}")
    print(f"theta    {est.theta_hat:.10g}")

    ci_rows = []
    if args.ci is not None:
        methods = (
            ["example1", "kotz", "t", "laplace", "case1", "case2"]
            if args.ci == "all"
            else [args.ci]
        )
        plugin = None
        if "case2" in methods:
            try:
                plugin = plugin_moments_case2(cg, theta_hat=est.theta_hat)
            except EllipkurtError as exc:
                if args.ci != "all":
                    raise
                print(f"case2    unavailable: {exc}")
                methods.remove("case2")
        print(f"level    {1 - args.alpha:g}")
        for m in methods:
            try:
                ci = confidence_interval(est, m, args.alpha, plugin=plugin)
            except EllipkurtError as exc:
                if args.ci != "all":
                    raise
                print(f"{m:<8s} unavailable: {exc}")
                continue
            print(f"{m:<8s} [{ci.lower:.6g}, {ci.upper:.6g}]  sigma={ci.sigma_hat:.6g}")
            ci_rows.append(ci)

    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "estimate.csv", "w", encoding="utf-8") as fh:
            fh.write("theta_hat,t1,t2,t3,n,p\n")
            fh.write(
                f"{est.theta_hat:.10g},{u.t1:.10g},{u.t2:.10g},{u.t3:.10g},{u.n},{u.p}\n"
            )
        if ci_rows:
            with open(out_dir / "intervals.csv", "w", encoding="utf-8") as fh:
                fh.write("method,lower,upper,level,sigma_hat,theta_hat\n")
                for ci in ci_rows:
                    fh.write(
                        f"{ci.method.value},{ci.lower:.10g},{ci.upper:.10g},"
                        f"{ci.level:g},{ci.sigma_hat:.10g},{ci.theta_hat:.10g}\n"
                    )
    return EXIT_OK


def _configs_from_args(args) -> list[ExperimentConfig]:
    """The configs a simulate call runs. Every config, ``--reps`` included,
    goes through ``ExperimentConfig`` validation, and ``--workers`` through
    the harness check; a value they reject is a usage error
    (:class:`SchemaError`)."""
    try:
        check_workers(args.workers)
        if args.config is not None:
            configs = [load_config(args.config)]
        elif args.preset == "table1-desk":
            configs = preset_table1_desk(seed=args.seed)
        elif args.preset == "table2-desk":
            configs = preset_table2_desk(seed=args.seed)
        elif args.family is not None:
            configs = [
                ExperimentConfig(
                    family=args.family,
                    p_list=tuple(args.p) if args.p else (100,),
                    n=args.n,
                    alpha=args.alpha,
                    seed=args.seed,
                    ci_methods=tuple(args.ci_method or ()),
                )
            ]
        else:
            raise SchemaError("simulate needs --config, --preset, or --family")
        if args.reps is not None:
            configs = [dataclasses.replace(cfg, reps=args.reps) for cfg in configs]
    except InvalidParameterError as exc:
        raise SchemaError(f"invalid simulate options: {exc}") from exc
    return configs


def _print_rows(rows):
    header = ("family", "p", "n", "method", "mean", "sd", "ecp", "avg_width", "used", "fail")
    fmt = "{:<8s} {:>5s} {:>4s} {:<10s} {:>10s} {:>10s} {:>7s} {:>10s} {:>5s} {:>5s}"
    print(fmt.format(*header))
    f6 = lambda x: "" if x is None else f"{x:.6g}"
    for r in rows:
        print(
            fmt.format(
                r.family, str(r.p), str(r.n), r.method, f6(r.mean), f6(r.sd),
                f6(r.ecp), f6(r.avg_width), str(r.reps_used), str(r.failures),
            )
        )


def cmd_simulate(args) -> int:
    configs = _configs_from_args(args)
    if args.dry_run:
        print("planned grid (nothing will be written):")
        for cfg in configs:
            kind = "coverage" if cfg.ci_methods else "estimation"
            print(
                f"  {kind}: family={cfg.family_name} p_list={list(cfg.p_list)} "
                f"n={cfg.n} reps={cfg.reps} alpha={cfg.alpha} seed={cfg.seed} "
                f"methods={list(cfg.methods)} ci_methods={list(cfg.ci_methods)}"
            )
        return EXIT_OK

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"seed: {configs[0].seed}")
    if args.workers == 1:
        blas = "serial; OpenBLAS threads left as set"
    elif BLAS_LIMIT.reason:
        blas = f"OpenBLAS threads not limited: {BLAS_LIMIT.reason}"
    else:
        blas = "OpenBLAS held to 1 thread while replications run"
    print(f"workers: {args.workers} ({blas})")
    est_rows = []
    cov_rows = []
    for cfg in configs:
        if cfg.methods:
            est_rows.extend(run_estimation_experiment(cfg, workers=args.workers))
        if cfg.ci_methods:
            cov_rows.extend(run_coverage_experiment(cfg, workers=args.workers))
    if est_rows:
        path = out_dir / "estimation.csv"
        summarize_to_csv(est_rows, path)
        print(f"\nestimation summary -> {path}")
        _print_rows(est_rows)
    if cov_rows:
        path = out_dir / "coverage.csv"
        summarize_to_csv(cov_rows, path)
        print(f"\ncoverage summary -> {path}")
        _print_rows(cov_rows)
    return EXIT_OK


class _CheckReport:
    """Collects per-check pass/fail lines for the validate command."""

    def __init__(self):
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        status = "ok  " if ok else "FAIL"
        print(f"{status} {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            self.failures += 1


def _mc_band(err: float, se: float, n_se: float = 4.0) -> bool:
    return abs(err) <= n_se * max(se, 1e-300)


def _validate_ustat(report: _CheckReport, rng: np.random.Generator, quick: bool) -> None:
    n_cases = 20 if quick else 50
    worst = 0.0
    families = ("normal", "kotz", "t", "laplace")
    for case in range(n_cases):
        n = int(rng.integers(4, 13))
        # p straddles n, so both sides of the centered-Gram reduction run.
        p = int(rng.integers(1, 2 * n))
        law = make_law(families[case % 4], p)
        xi = np.sqrt(law.sample_squared(rng, n))
        U = sample_sphere(p, rng, n)
        X = xi[:, None] * U + rng.normal(size=p)
        fast = ustats_fast(X)
        ref = ustats_bruteforce(X)
        for a, b in ((fast.t1, ref.t1), (fast.t2, ref.t2), (fast.t3, ref.t3)):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    report.check(
        f"ustat differential ({n_cases} instances)",
        worst <= 1e-10,
        f"worst rel err {worst:.2e}",
    )


def _validate_moments(report: _CheckReport, rng: np.random.Generator, quick: bool) -> None:
    draws = 200_000 if quick else 1_000_000
    for p in (2, 5, 10):
        A = rng.normal(size=(p, p))
        A = 0.5 * (A + A.T)
        B = rng.normal(size=(p, p))
        B = 0.5 * (B + B.T)
        U = sample_sphere(p, rng, draws)
        qa = np.einsum("ij,ij->i", U @ A, U)
        qb = np.einsum("ij,ij->i", U @ B, U)
        samples = {
            "order-1": (qa, sphere_moment_1(A)),
            "order-2": (qa * qb, sphere_moment_2(A, B)),
            "order-3": (qa * qa * qb, sphere_moment_3(A, A, B)),
            "order-4": (qa**4, sphere_moment_4(A)),
        }
        for name, (vals, exact) in samples.items():
            se = float(np.std(vals)) / math.sqrt(draws)
            report.check(
                f"sphere moment {name} p={p}",
                _mc_band(float(np.mean(vals)) - exact, se),
                f"mc={np.mean(vals):.5g} exact={exact:.5g}",
            )
    # squared-radius moments and quadratic-form variances
    xi_draws = draws // 2
    p = 20
    sigma = toeplitz_ar1(p, 0.5)
    for fam in ("normal", "kotz", "t", "laplace"):
        law = make_law(fam, p)
        x2 = law.sample_squared(rng, xi_draws)
        for m in (1, 2):
            vals = x2**m
            se = float(np.std(vals)) / math.sqrt(xi_draws)
            exact = xi_moment(law, m)
            report.check(
                f"xi moment m={m} {fam}",
                _mc_band(float(np.mean(vals)) - exact, se),
                f"mc={np.mean(vals):.5g} exact={exact:.5g}",
            )
    L = np.linalg.cholesky(sigma)
    Z = rng.normal(size=(xi_draws, p))
    quad = np.einsum("ij,ij->i", Z @ L, Z @ L) / np.einsum("ij,ij->i", Z, Z)
    for fam in ("normal", "laplace"):
        law = make_law(fam, p)
        q = law.sample_squared(rng, xi_draws) * quad
        vals = (q - float(np.mean(q))) ** 2
        se_var = math.sqrt(
            max(float(np.mean((vals - np.mean(vals)) ** 2)), 0.0) / xi_draws
        )
        exact = var_quadform(sigma, law)
        report.check(
            f"quadform variance {fam} p={p}",
            _mc_band(float(np.var(q)) - exact, se_var),
            f"mc={np.var(q):.5g} exact={exact:.5g}",
        )
        tr = float(np.trace(sigma))
        sq = (q - tr) ** 2
        vals = (sq - float(np.mean(sq))) ** 2
        se_var = math.sqrt(max(float(np.mean((vals - np.mean(vals)) ** 2)), 0.0) / xi_draws)
        exact = var_centered_sq(sigma, law, center="trace")
        report.check(
            f"centered-square variance {fam} p={p}",
            _mc_band(float(np.var(sq)) - exact, se_var),
            f"mc={np.var(sq):.5g} exact={exact:.5g}",
        )


def cmd_validate(args) -> int:
    print(f"seed: {args.seed}")
    rng = np.random.default_rng(args.seed)
    report = _CheckReport()
    if args.suite in ("ustat", "all"):
        _validate_ustat(report, rng, args.quick)
    if args.suite in ("moments", "all"):
        _validate_moments(report, rng, args.quick)
    if report.failures:
        print(f"{report.failures} check(s) failed")
        return EXIT_FAILURE
    print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipkurt",
        description="Kurtosis estimation for high-dimensional elliptical data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate kurtosis from a CSV data matrix")
    p_est.add_argument("--input", required=True, help="CSV file, rows = observations")
    p_est.add_argument("--ci", choices=CI_CHOICES, default=None,
                       help="also print this confidence interval ('all' prints every method)")
    p_est.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_est.add_argument("--out-dir", default=None, help="also write CSV reports here")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run simulation experiments")
    p_sim.add_argument("--config", default=None, help="JSON experiment config")
    p_sim.add_argument("--preset", choices=("table1-desk", "table2-desk"), default=None,
                       help="built-in desk-scale experiment grid")
    p_sim.add_argument("--family", choices=("normal", "kotz", "t", "laplace"), default=None)
    p_sim.add_argument("--p", type=int, action="append", help="dimension (repeatable)")
    p_sim.add_argument("--n", type=int, default=100, help="sample size")
    p_sim.add_argument("--reps", type=int, default=None, help="override replication count")
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--ci-method", action="append",
                       choices=[m.value for m in CiMethod],
                       help="run a coverage experiment with this interval (repeatable)")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"master seed (default {DEFAULT_SEED})")
    p_sim.add_argument("--out-dir", default=".", help="directory for output CSVs")
    p_sim.add_argument("--workers", type=int, default=usable_cores(),
                       help="replication worker threads; OpenBLAS is held at 1 thread "
                            "while more than one runs (default: the usable cores, "
                            "%(default)s here)")
    p_sim.add_argument("--dry-run", action="store_true", help="print the grid, write nothing")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="run Monte-Carlo and differential checks")
    p_val.add_argument("suite", choices=("moments", "ustat", "all"))
    p_val.add_argument("--quick", action="store_true", help="reduced draw counts")
    p_val.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"master seed (default {DEFAULT_SEED})")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CsvParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EllipkurtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
