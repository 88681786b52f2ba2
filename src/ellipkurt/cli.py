"""Command-line surface.

Subcommands:

* ``estimate``: kurtosis point estimate (and optional confidence
  intervals) from a CSV data matrix, rows = observations.
* ``simulate``: run the estimation and/or coverage experiments from a
  JSON config, a named preset, or inline flags; writes CSV summaries.
* ``validate``: the Monte-Carlo and differential checks of
  :mod:`ellipkurt.validation`, the same code the acceptance suite runs.

Exit codes: 0 success, 1 validation/data failure, 2 usage or parse error.
The CLI adds no arithmetic of its own; every number it prints comes from
the corresponding library call.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CsvParseError, EllipkurtError, InvalidParameterError, SchemaError
from .harness import (
    CI_NAMES,
    DEFAULT_SEED,
    ExperimentConfig,
    check_seed,
    check_workers,
    load_config,
    preset_table1_desk,
    preset_table2_desk,
    run_experiments,
    summarize_to_csv,
    usable_cores,
)
from .inference import confidence_interval, plugin_moments_case2, z_quantile
from .linalg import OPENBLAS, centered_gram
from .models import FAMILY_NAMES
from .ustat import theta_hat, ustats_fast
from .validation import SUITES, run_suite

CI_CHOICES = (*CI_NAMES, "all")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def read_csv_matrix(path) -> np.ndarray:
    """Parse a CSV file into an (n, p) float matrix.

    Comma-separated, '.' decimal point, UTF-8 with an optional byte-order
    mark. Blank lines are skipped. Line 1 is a header, and skipped, when
    ``float`` refuses any of its fields. A file that cannot be read or
    parsed raises :class:`CsvParseError`.

    The body is parsed in one ``np.loadtxt`` call, which gives the same
    doubles as ``float`` but accepts a subset of its grammar (no ``1_0``,
    no non-ASCII digits). Where it refuses, the line-by-line parse decides:
    it either accepts the file or raises the error with its line number.
    """
    lines = _read_lines(path)
    start = 1 if _parse_row(lines[0]) is None else 0  # header (or blank) line 1
    body = [line for line in lines[start:] if line.strip()]
    if not body:  # loadtxt warns on empty input
        raise CsvParseError(f"{path}: no data rows found")
    try:
        return np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return _parse_lines(path, lines)


def _read_lines(path) -> list[str]:
    """The file's lines without their line ends (universal newlines)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read().split("\n")
    except OSError as exc:
        raise CsvParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _parse_row(line: str) -> list[float] | None:
    """The comma-separated fields of a line as floats, or None if ``float``
    refuses one of them. Fields are stripped first: ``float`` itself does
    not strip every character that ``str.strip`` does (``\\x1c``-``\\x1f``)."""
    try:
        return [float(f.strip()) for f in line.strip().split(",")]
    except ValueError:
        return None


def _parse_lines(path, lines: list[str]) -> np.ndarray:
    """Parse ``lines`` one at a time with ``float``: the reference grammar
    of :func:`read_csv_matrix`, and the source of its line numbers."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        values = _parse_row(line)
        if values is None:
            if lineno == 1:
                continue  # header line
            raise CsvParseError(f"{path}: line {lineno}: non-numeric value in data row")
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
    try:
        z_quantile(args.alpha)  # the intervals' own check, before the input is read
    except InvalidParameterError as exc:
        raise SchemaError(f"invalid estimate options: {exc}") from exc
    # The parsed matrix is read only here, so the summary centers it in place.
    cg = centered_gram(read_csv_matrix(args.input), overwrite_x=True)
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
        methods = list(CI_NAMES) if args.ci == "all" else [args.ci]
        plugin = None
        if "case2" in methods:
            try:
                plugin = plugin_moments_case2(cg)
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


_PRESETS = {"table1-desk": preset_table1_desk, "table2-desk": preset_table2_desk}

# The simulate flags that shape an inline --family grid, by argparse dest.
_FAMILY_FLAGS = {"p": "--p", "n": "--n", "alpha": "--alpha", "ci_method": "--ci-method"}


def _configs_from_args(args) -> list[ExperimentConfig]:
    """The configs a simulate call runs: from ``--config``, ``--preset`` or
    ``--family``, of which argparse lets at most one through, with ``--reps``
    and ``--seed`` overriding every config. ``--p``, ``--n``, ``--alpha``
    or ``--ci-method`` without ``--family`` is refused rather than ignored.
    Every config goes through ``ExperimentConfig`` validation, and
    ``--workers`` through the harness check; a value they reject is a usage
    error (:class:`SchemaError`)."""
    given = {dest: getattr(args, dest) for dest in _FAMILY_FLAGS
             if getattr(args, dest) is not None}
    if given and args.family is None:
        flags = ", ".join(_FAMILY_FLAGS[dest] for dest in given)
        raise SchemaError(f"{flags} apply only to a --family grid")
    try:
        check_workers(args.workers)
        if args.config is not None:
            configs = [load_config(args.config)]
        elif args.preset is not None:
            configs = _PRESETS[args.preset]()
        elif args.family is not None:
            configs = [ExperimentConfig(family=args.family,
                                        p_list=tuple(given.pop("p", (100,))),
                                        ci_methods=tuple(given.pop("ci_method", ())),
                                        **given)]
        else:
            raise SchemaError("simulate needs --config, --preset, or --family")
        overrides = {name: getattr(args, name) for name in ("reps", "seed")
                     if getattr(args, name) is not None}
        configs = [dataclasses.replace(cfg, **overrides) for cfg in configs]
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
            kind = "+".join(name for name, wanted in (("estimation", cfg.methods),
                                                      ("coverage", cfg.ci_methods)) if wanted)
            print(
                f"  {kind}: family={cfg.family_name} p_list={list(cfg.p_list)} "
                f"n={cfg.n} reps={cfg.reps} alpha={cfg.alpha} seed={cfg.seed} "
                f"methods={list(cfg.methods)} ci_methods={list(cfg.ci_methods)}"
            )
        return EXIT_OK

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"seed: {configs[0].seed}")
    if OPENBLAS.reason:
        blas = f"OpenBLAS threads not limited: {OPENBLAS.reason}"
    else:
        blas = "OpenBLAS held to 1 thread while replications run"
    print(f"workers: {args.workers} ({blas})")
    est_rows, cov_rows = run_experiments(configs, workers=args.workers)
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


def cmd_validate(args) -> int:
    try:
        check_seed(args.seed)
    except InvalidParameterError as exc:
        raise SchemaError(f"invalid validate options: {exc}") from exc
    print(f"seed: {args.seed}")
    rng = np.random.default_rng(args.seed)
    failures = 0
    for suite in SUITES if args.suite == "all" else (args.suite,):
        for check in run_suite(suite, rng, quick=args.quick):
            status = "ok  " if check.ok else "FAIL"
            print(f"{status} {check.name}" + (f"  ({check.detail})" if check.detail else ""))
            failures += not check.ok
    if failures:
        print(f"{failures} check(s) failed")
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
    source = p_sim.add_mutually_exclusive_group()
    source.add_argument("--config", default=None, help="JSON experiment config")
    source.add_argument("--preset", choices=tuple(_PRESETS), default=None,
                        help="built-in desk-scale experiment grid")
    source.add_argument("--family", choices=FAMILY_NAMES, default=None,
                        help="inline grid of this family, shaped by --p, --n, --alpha "
                             "and --ci-method")
    p_sim.add_argument("--p", type=int, action="append",
                       help="dimension (repeatable; default 100)")
    p_sim.add_argument("--n", type=int, default=None, help="sample size (default 100)")
    p_sim.add_argument("--reps", type=int, default=None, help="override replication count")
    p_sim.add_argument("--alpha", type=float, default=None,
                       help="significance level (default 0.05)")
    p_sim.add_argument("--ci-method", action="append",
                       choices=CI_NAMES,
                       help="run a coverage experiment with this interval (repeatable)")
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"override master seed (default: the config's, else {DEFAULT_SEED})")
    p_sim.add_argument("--out-dir", default=".", help="directory for output CSVs")
    p_sim.add_argument("--workers", type=int, default=usable_cores(),
                       help="replication worker threads; OpenBLAS is held at 1 thread "
                            "while they run (default: the usable cores, %(default)s here)")
    p_sim.add_argument("--dry-run", action="store_true",
                       help="print each config with the studies it runs, write nothing")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="run Monte-Carlo and differential checks")
    p_val.add_argument("suite", choices=(*SUITES, "all"))
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
