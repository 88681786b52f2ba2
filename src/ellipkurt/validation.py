"""Monte-Carlo and differential checks of the closed-form oracles.

The one copy of each check: ``ellipkurt validate`` prints them and the
acceptance suite (criteria 1, 4 and 5) asserts them. Each takes a
generator and its draw counts and returns :class:`Check` records; its
defaults are the acceptance suite's counts. A Monte-Carlo check passes
when the sample mean is within ``MAX_PULL`` standard errors of the exact
value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .linalg import toeplitz_ar1
from .models import FAMILY_NAMES, make_law, sample_sphere
from .moments import (
    sphere_moment_1,
    sphere_moment_2,
    sphere_moment_3,
    sphere_moment_4,
    var_centered_sq,
    var_quadform,
)
from .ustat import ustats_bruteforce, ustats_fast

MAX_REL_ERR = 1e-10
MAX_PULL = 4.0


class Check(NamedTuple):
    """One check's outcome; ``detail`` may be empty."""

    name: str
    ok: bool
    detail: str


def _mean_check(name: str, vals: np.ndarray, exact: float) -> Check:
    """Is the mean of ``vals`` within MAX_PULL standard errors of ``exact``?"""
    se = float(vals.std()) / math.sqrt(vals.size)
    pull = abs(float(vals.mean()) - exact) / max(se, 1e-300)
    return Check(name, pull <= MAX_PULL, f"{pull:.1f} se")


def ustat_differential(rng: np.random.Generator, cases: int = 50) -> list[Check]:
    """Worst relative error of ``ustats_fast`` against ``ustats_bruteforce``
    over ``cases`` data sets of every family (n in 4..12, p in 1..2n-1, a
    random offset). It also fails unless both Gram sides (p < n, p >= n)
    ran."""
    worst = 0.0
    wide = 0
    for case in range(cases):
        n = int(rng.integers(4, 13))
        p = int(rng.integers(1, 2 * n))
        wide += p >= n
        law = make_law(FAMILY_NAMES[case % len(FAMILY_NAMES)], p)
        xi = np.sqrt(law.sample_squared(rng, n))
        X = xi[:, None] * sample_sphere(p, rng, n) + rng.normal(size=p) * rng.uniform(0, 5)
        fast = ustats_fast(X)
        ref = ustats_bruteforce(X)
        for a, b in ((fast.t1, ref.t1), (fast.t2, ref.t2), (fast.t3, ref.t3)):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return [
        Check(
            f"ustat differential ({cases} cases, all families)",
            worst <= MAX_REL_ERR and 0 < wide < cases,
            f"worst rel err {worst:.2e}, {wide} of {cases} with p >= n",
        )
    ]


def sphere_moments(rng: np.random.Generator, draws: int = 1_000_000) -> list[Check]:
    """Sphere quadratic-form moments of orders 1-4 at p = 2, 5, 10 on
    random symmetric matrices (three distinct ones for order 3) against
    ``draws`` sphere vectors, and their exact value 1 at the identity."""
    checks = []
    for p in (2, 5, 10):
        A, B, C = (0.5 * (M + M.T) for M in rng.normal(size=(3, p, p)))
        U = sample_sphere(p, rng, draws)
        qa, qb, qc = (np.einsum("ij,ij->i", U @ M, U) for M in (A, B, C))
        checks += [
            _mean_check(f"p={p} m1", qa, sphere_moment_1(A)),
            _mean_check(f"p={p} m2", qa * qb, sphere_moment_2(A, B)),
            _mean_check(f"p={p} m3", qa * qb * qc, sphere_moment_3(A, B, C)),
            _mean_check(f"p={p} m4", qa**4, sphere_moment_4(A)),
        ]
        I = np.eye(p)
        at_I = (sphere_moment_1(I), sphere_moment_2(I, I), sphere_moment_3(I, I, I),
                sphere_moment_4(I))
        ok = at_I == (1.0, 1.0, 1.0, 1.0)
        checks.append(Check(f"p={p} identity", ok, "" if ok else f"m1..m4 = {at_I}"))
    return checks


def xi_moments(rng: np.random.Generator, draws: int = 500_000) -> list[Check]:
    """E xi^2 and E xi^4 of every family at p = 20 against ``draws``
    samples of xi^2."""
    checks = []
    p = 20
    for fam in FAMILY_NAMES:
        law = make_law(fam, p)
        x2 = law.sample_squared(rng, draws)
        checks += [_mean_check(f"{fam}/p={p} m{m}", x2**m, law.moment(m)) for m in (1, 2)]
    return checks


def quadform_variances(
    rng: np.random.Generator, cells=((20, 600_000), (50, 200_000))
) -> list[Check]:
    """``var_quadform`` and ``var_centered_sq`` against the variance of
    q = xi^2 u' sigma u (``var``) and of (q - c)^2 around c = tr sigma
    (``c-tr``) and c = theta tr sigma (``c-th``), sigma AR(1) with
    rho = 0.5, for each (p, draws) cell. A sample variance is the mean of
    the squared deviations, so it is checked as one. The t family is left
    out: the standard error of var (q - c)^2 needs E xi^16."""
    checks = []
    for p, draws in cells:
        sigma = toeplitz_ar1(p, 0.5)
        L = np.linalg.cholesky(sigma)
        Z = rng.normal(size=(draws, p))
        Y = Z @ L
        quad = np.einsum("ij,ij->i", Y, Y) / np.einsum("ij,ij->i", Z, Z)
        tr = float(np.trace(sigma))
        for fam in ("normal", "laplace"):
            law = make_law(fam, p)
            q = law.sample_squared(rng, draws) * quad
            for label, vals, exact in (
                ("var", q, var_quadform(sigma, law)),
                ("c-tr", (q - tr) ** 2, var_centered_sq(sigma, law, "trace")),
                ("c-th", (q - law.theta() * tr) ** 2,
                 var_centered_sq(sigma, law, "theta_trace")),
            ):
                sq_dev = (vals - vals.mean()) ** 2
                checks.append(_mean_check(f"{fam}/p={p} {label}", sq_dev, exact))
    return checks


# suite -> (name prefix, check, its reduced counts for --quick)
SUITES = {
    "ustat": [("", ustat_differential, {"cases": 20})],
    "moments": [
        ("sphere moment ", sphere_moments, {"draws": 200_000}),
        ("xi moment ", xi_moments, {"draws": 100_000}),
        ("quadform variance ", quadform_variances, {"cells": ((20, 100_000), (50, 100_000))}),
    ],
}


def run_suite(suite: str, rng: np.random.Generator, quick: bool = False) -> list[Check]:
    """The checks of one suite in :data:`SUITES`, drawn in order from
    ``rng``, at the acceptance counts or, with ``quick``, the reduced ones."""
    if suite not in SUITES:
        raise InvalidParameterError(f"unknown suite {suite!r}; expected one of {tuple(SUITES)}")
    return [
        check._replace(name=label + check.name)
        for label, run, reduced in SUITES[suite]
        for check in run(rng, **(reduced if quick else {}))
    ]
