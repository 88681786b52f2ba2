"""Comparison estimators for the simulation studies.

* :func:`oracle_theta` knows the true location and covariance-scale and
  averages the squared Mahalanobis norms; it is the benchmark every other
  estimator is compared against.
* :func:`wl_theta` is a WL-style plug-in of the population moment equation
  using the sample mean and sample covariance. The estimator it stands in
  for is defined in external work; this plug-in follows the same recipe
  (moment equation + sample covariance) and is labeled accordingly, not
  claimed as a reimplementation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    DegenerateDataError,
    InsufficientSampleError,
    InvalidParameterError,
    SingularMatrixError,
)
from .linalg import centered_gram, check_symmetric, require_finite

__all__ = ["oracle_theta", "wl_theta"]


def oracle_theta(X, mu, sigma, *, chol: np.ndarray | None = None) -> float:
    """Kurtosis estimate with known location and covariance-scale.

    (1 / (n p (p + 2))) * sum_i ((X_i - mu)' sigma^{-1} (X_i - mu))^2,
    applying sigma^{-1} through a Cholesky solve (never an explicit
    inverse). Pass ``chol`` (lower Cholesky factor of sigma) to amortize
    the factorization across replications.
    """
    X = np.asarray(X, dtype=float)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if X.ndim != 2:
        raise InvalidParameterError(f"data must be 2-d, got shape {X.shape}")
    n, p = X.shape
    if mu.shape[0] != p:
        raise InvalidParameterError(f"mu has length {mu.shape[0]}, data has p={p}")
    if chol is None:
        sigma = check_symmetric(sigma, "sigma")
        if sigma.shape[0] != p:
            raise InvalidParameterError(f"sigma is {sigma.shape[0]} x {sigma.shape[0]}, data has p={p}")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"sigma is not positive definite: {exc}") from exc
    # Finiteness is the caller's contract; skipping the scan matters when
    # the harness calls this hundreds of times per cell.
    Y = solve_triangular(chol, (X - mu).T, lower=True, check_finite=False)
    q = np.einsum("ij,ij->j", Y, Y)
    return math.fsum(q * q) / (n * p * (p + 2))


def wl_theta(X) -> float:
    """WL-style plug-in of the moment equation.

    theta ~= (var ||X - Xbar||^2 + tr^2 S) / (tr^2 S + 2 tr S^2) with S the
    sample covariance (divisor n - 1, no bias correction) and the variance
    taken with divisor n - 1. tr S and tr S^2 come from the centered Gram
    summary, so the cost is O(n p min(n, p)).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InsufficientSampleError(
            f"need at least 2 observations, got shape {X.shape}"
        )
    n = X.shape[0]
    cg = centered_gram(X)
    tr1 = cg.T / (n - 1)
    tr2 = cg.W / (n - 1) ** 2
    den = tr1 * tr1 + 2.0 * tr2
    g_max = float(np.max(cg.g))
    if den <= 0.0 or not den > 1e-24 * max(1.0, g_max * g_max):
        raise DegenerateDataError("sample covariance is numerically zero")
    v = float(np.var(cg.g, ddof=1))
    out = (v + tr1 * tr1) / den
    require_finite(out)
    return out
