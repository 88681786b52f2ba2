"""Closed-form moment oracles.

Expectations of quadratic forms in a uniform unit-sphere vector, the
normalized radius moments eta_m, and the variance of the squared norm of a
centered elliptical vector around two different centerings. The exact
moments E xi^{2m} themselves belong to the squared-radius laws
(:meth:`ellipkurt.models.XiLaw.moment`). These serve as ground truth for
the Monte-Carlo property tests and the checks in
:mod:`ellipkurt.validation`.

Throughout, eta_m denotes E xi^{2m} divided by the m-th moment of a
chi-squared variable with p degrees of freedom, so eta_1 = 1 under the
E xi^2 = p normalization and eta_2 is the kurtosis parameter.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .linalg import check_symmetric, trace_powers
from .models import XiLaw, chi2_moment


def sphere_moment_1(A) -> float:
    """E[u' A u] = tr A / p for u uniform on the unit sphere."""
    A = check_symmetric(A, "A")
    p = A.shape[0]
    return float(np.trace(A)) / p


def sphere_moment_2(A, B) -> float:
    """E[(u' A u)(u' B u)] = (tr A tr B + 2 tr AB) / (p (p + 2))."""
    A = check_symmetric(A, "A")
    B = check_symmetric(B, "B")
    p = A.shape[0]
    if B.shape[0] != p:
        raise InvalidParameterError(f"dimension mismatch: {p} vs {B.shape[0]}")
    num = float(np.trace(A)) * float(np.trace(B)) + 2.0 * float(np.sum(A * B))
    return num / (p * (p + 2))


def sphere_moment_3(A, B, C) -> float:
    """Third mixed moment of quadratic forms in a sphere vector.

    (tr A tr B tr C + 2 tr A tr BC + 2 tr B tr AC + 2 tr C tr AB + 8 tr ABC)
    divided by p (p + 2) (p + 4).
    """
    A = check_symmetric(A, "A")
    B = check_symmetric(B, "B")
    C = check_symmetric(C, "C")
    p = A.shape[0]
    if B.shape[0] != p or C.shape[0] != p:
        raise InvalidParameterError(
            f"dimension mismatch: {p}, {B.shape[0]}, {C.shape[0]}"
        )
    ta, tb, tc = (float(np.trace(M)) for M in (A, B, C))
    tab = float(np.sum(A * B))
    tac = float(np.sum(A * C))
    tbc = float(np.sum(B * C))
    tabc = float(np.trace(A @ B @ C))
    num = ta * tb * tc + 2.0 * (ta * tbc + tb * tac + tc * tab) + 8.0 * tabc
    return num / (p * (p + 2) * (p + 4))


def sphere_quartic(t1: float, t2: float, t3: float, t4: float) -> float:
    """t1^4 + 12 t1^2 t2 + 12 t2^2 + 32 t1 t3 + 48 t4 for the traces
    t_k = tr A^k: p (p + 2) (p + 4) (p + 6) E[(u' A u)^4].

    Products, not float **, so an overflow gives inf instead of raising.
    """
    sq = t1 * t1
    return sq * sq + 12.0 * sq * t2 + 12.0 * t2 * t2 + 32.0 * t1 * t3 + 48.0 * t4


def sphere_moment_4(A) -> float:
    """E[(u' A u)^4] for u uniform on the unit sphere:
    :func:`sphere_quartic` of the trace powers of A divided by
    p (p + 2) (p + 4) (p + 6).
    """
    A = check_symmetric(A, "A")
    p = A.shape[0]
    return sphere_quartic(*trace_powers(A)) / (p * (p + 2) * (p + 4) * (p + 6))


def eta(law: XiLaw, m: int) -> float:
    """Normalized moment E xi^{2m} / E Y^m with Y chi-squared(p).

    eta(law, 1) == 1 for every correctly normalized law and eta(law, 2)
    is the kurtosis parameter.
    """
    return law.moment(m) / chi2_moment(law.p, m)


def var_quadform(sigma, law: XiLaw) -> float:
    """Variance of ||X0||^2 for a centered elliptical vector X0 with
    covariance-scale sigma: 2 theta tr sigma^2 + (theta - 1) tr^2 sigma."""
    sigma = check_symmetric(sigma, "sigma")
    theta = eta(law, 2)
    t1, t2, _, _ = trace_powers(sigma)
    return 2.0 * theta * t2 + (theta - 1.0) * t1**2


def var_centered_sq(sigma, law: XiLaw, center: str = "trace") -> float:
    """Variance of (||X0||^2 - c)^2 for a centered elliptical vector.

    ``center="trace"`` uses c = tr sigma (the mean of ||X0||^2);
    ``center="theta_trace"`` uses c = theta * tr sigma. Both are degree-4
    polynomials in the trace powers of sigma with coefficients in
    eta_2, eta_3, eta_4; evaluating them needs moments through
    E xi^8 (so ScaledF requires d > 8).

    The coefficient sets follow from expanding E(||X0||^2 - c)^4 and
    E(||X0||^2 - c)^2 through the sphere quadratic-form moments, using
    E(||X0||^2)^k = eta_k * (tr-power polynomial of order k).
    """
    sigma = check_symmetric(sigma, "sigma")
    e2 = eta(law, 2)
    e3 = eta(law, 3)
    e4 = eta(law, 4)
    if center == "trace":
        r1 = e4 - 4.0 * e3 - e2 * e2 + 8.0 * e2 - 4.0
        r2 = 4.0 * (3.0 * e4 - 6.0 * e3 - e2 * e2 + 4.0 * e2)
        r4 = 32.0 * (e4 - e3)
    elif center == "theta_trace":
        r1 = e4 - 4.0 * e3 * e2 - e2 * e2 + 4.0 * e2**3
        r2 = 4.0 * (3.0 * e4 - 6.0 * e3 * e2 + 2.0 * e2**3 + e2 * e2)
        r4 = 32.0 * (e4 - e3 * e2)
    else:
        raise InvalidParameterError(
            f"center must be 'trace' or 'theta_trace', got {center!r}"
        )
    r3 = 4.0 * (3.0 * e4 - e2 * e2)
    r5 = 48.0 * e4
    t1, t2, t3, t4 = trace_powers(sigma)
    return r1 * t1**4 + r2 * t1**2 * t2 + r3 * t2**2 + r4 * t1 * t3 + r5 * t4
