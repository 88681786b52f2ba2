"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them on
success; failures surface through the assertions either way). Criteria 1,
4 and 5 run the checks of :mod:`ellipkurt.validation`, the code that
``ellipkurt validate`` runs, at this suite's seeds and draw counts.

The statistical criteria (2 and 3) are seeded Monte-Carlo experiments at
desk scale: 200 replications for the estimation study, 500 for coverage,
against bands wide enough to absorb Monte-Carlo error at those counts.
"""

import math
import time

import numpy as np
import pytest

from ellipkurt import (
    FAMILY_NAMES,
    CiMethod,
    ExperimentConfig,
    confidence_interval,
    estimate_kurtosis,
    make_law,
    plugin_moments_case2,
    run_experiments,
    sample_sphere,
    summarize_to_csv,
    theta_hat,
    ustats_fast,
    validation,
)
from ellipkurt.errors import EllipkurtError

SEED = 20240811
# Replications are small-matrix work; threads only add GIL contention here.
# Determinism across worker counts is criterion 7's job.
WORKERS = 1


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def pulls(checks) -> str:
    return "; ".join(f"{c.name}: {c.detail}" for c in checks if c.detail)


def test_criterion_1_ustat_differential():
    assert validation.MAX_REL_ERR == 1e-10
    t0 = time.perf_counter()
    [check] = validation.ustat_differential(np.random.default_rng(SEED), cases=50)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: fast path equals brute force "
        "(50 datasets, all families, both Gram sides)",
        check.ok and elapsed < 10.0,
        f"{check.detail}, {elapsed:.1f} s",
    )


ESTIMATION_CELLS = [
    # family, p, band for the replication mean of both estimators
    ("normal", 100, (0.997, 1.003)),
    ("kotz", 200, (1.006, 1.014)),
    ("laplace", 100, (1.95, 2.07)),
    ("t", 100, (1.30, 1.48)),
]


def test_criterion_2_estimation_study():
    t0 = time.perf_counter()
    details = []
    ok = True
    for fam, p, band in ESTIMATION_CELLS:
        cfg = ExperimentConfig(
            family=fam, p_list=(p,), n=100, reps=200, seed=SEED,
            methods=("theta_hat", "oracle"),
        )
        for row in run_experiments([cfg], workers=WORKERS)[0]:
            inside = band[0] <= row.mean <= band[1]
            ok = ok and inside and row.failures == 0
            details.append(f"{fam}/p={p}/{row.method}: {row.mean:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(
        "criterion 2: estimation means in reference bands (200 reps, n=100)",
        ok,
        "; ".join(details) + f"; {elapsed:.0f} s",
    )


COVERAGE_CELLS = [
    # family, p, method, ECP band, width band
    ("normal", 200, "example1", (0.91, 0.97), (0.008, 0.011)),
    ("kotz", 100, "kotz", (0.91, 0.97), (0.026, 0.032)),
    ("laplace", 100, "laplace", (0.90, 0.97), (0.75, 0.82)),
]


def test_criterion_3_coverage_study():
    t0 = time.perf_counter()
    details = []
    ok = True
    for fam, p, method, ecp_band, width_band in COVERAGE_CELLS:
        cfg = ExperimentConfig(
            family=fam, p_list=(p,), n=100, reps=500, seed=SEED,
            methods=(), ci_methods=(method,), alpha=0.05,
        )
        row = run_experiments([cfg], workers=WORKERS)[1][0]
        inside = (
            ecp_band[0] <= row.ecp <= ecp_band[1]
            and width_band[0] <= row.avg_width <= width_band[1]
        )
        ok = ok and inside
        details.append(f"{fam}/p={p}: ecp={row.ecp:.3f} width={row.avg_width:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report(
        "criterion 3: coverage and width in reference bands (500 reps, alpha=0.05)",
        ok,
        "; ".join(details) + f"; {elapsed:.0f} s",
    )


def test_criterion_4_sphere_moment_agreement():
    assert validation.MAX_PULL == 4.0
    checks = validation.sphere_moments(np.random.default_rng(SEED + 4), draws=1_000_000)
    report(
        "criterion 4: sphere quadratic-form moments match Monte Carlo (1e6 draws)",
        all(c.ok for c in checks),
        pulls(checks),
    )


def test_criterion_5_quadform_variance_agreement():
    assert validation.MAX_PULL == 4.0
    checks = validation.quadform_variances(
        np.random.default_rng(SEED + 5), cells=((20, 600_000), (50, 200_000))
    )
    report(
        "criterion 5: quadratic-form variance formulas match Monte Carlo",
        all(c.ok for c in checks),
        pulls(checks),
    )


def test_criterion_6_invariance_suite():
    rng = np.random.default_rng(SEED + 6)
    ok = True
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(10, 40))
        p = int(rng.integers(2, 12))
        X = rng.normal(size=(n, p)) * rng.uniform(0.5, 4.0)
        base = estimate_kurtosis(X).theta_hat
        shifted = estimate_kurtosis(X + rng.normal(size=p) * 50).theta_hat
        scaled = estimate_kurtosis(float(rng.uniform(0.1, 9.0)) * X).theta_hat
        Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        rotated = estimate_kurtosis(X @ Q).theta_hat
        permuted = estimate_kurtosis(X[rng.permutation(n)]).theta_hat
        for other in (shifted, scaled, rotated, permuted):
            worst = max(worst, rel_err(base, other))
    ok = worst <= 1e-9

    # Interval well-formedness on every successful construction.
    ci_checked = 0
    for rep in range(20):
        n = int(rng.integers(20, 60))
        p = int(rng.integers(5, 30))
        fam = FAMILY_NAMES[rep % len(FAMILY_NAMES)]
        law = make_law(fam, p)
        xi = np.sqrt(law.sample_squared(rng, n))
        X = xi[:, None] * sample_sphere(p, rng, n)
        est = theta_hat(ustats_fast(X))
        try:
            plugin = plugin_moments_case2(X)
        except EllipkurtError:
            plugin = None
        for method in CiMethod:
            try:
                ci = confidence_interval(est, method, 0.05, plugin=plugin)
            except EllipkurtError:
                continue
            ci_checked += 1
            ok = ok and ci.lower <= est.theta_hat <= ci.upper
    report(
        "criterion 6: invariances within 1e-9 and intervals bracket the estimate",
        ok,
        f"worst invariance drift {worst:.2e}; {ci_checked} intervals checked",
    )


def test_criterion_7_determinism_across_workers(tmp_path):
    est_cfg = ExperimentConfig(
        family="kotz", p_list=(20, 30), n=24, reps=10, seed=SEED,
        methods=("theta_hat", "oracle", "wl_plugin"),
    )
    cov_cfg = ExperimentConfig(
        family="laplace", p_list=(20,), n=24, reps=10, seed=SEED,
        methods=(), ci_methods=("laplace", "case1", "case2"),
    )
    files = {}
    for workers in (1, 8):
        est_path = tmp_path / f"est_w{workers}.csv"
        cov_path = tmp_path / f"cov_w{workers}.csv"
        summarize_to_csv(run_experiments([est_cfg], workers=workers)[0], est_path)
        summarize_to_csv(run_experiments([cov_cfg], workers=workers)[1], cov_path)
        files[workers] = (est_path.read_bytes(), cov_path.read_bytes())
    ok = files[1] == files[8]
    report(
        "criterion 7: CSV output bit-identical with 1 and 8 worker threads",
        ok,
        f"{len(files[1][0])} + {len(files[1][1])} bytes compared",
    )


def test_criterion_8_fast_path_performance():
    p, n = 1600, 100
    law = make_law("normal", p)
    rng = np.random.default_rng(SEED + 8)
    xi = np.sqrt(law.sample_squared(rng, n))
    X = xi[:, None] * sample_sphere(p, rng, n)
    t0 = time.perf_counter()
    est = theta_hat(ustats_fast(X))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 2.0 and math.isfinite(est.theta_hat)
    report(
        "criterion 8: single estimate at n=100, p=1600 under 2 s (fast path)",
        ok,
        f"{elapsed * 1000:.0f} ms, theta_hat={est.theta_hat:.4f}",
    )
