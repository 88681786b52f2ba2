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

from .errors import DegenerateDataError, InsufficientSampleError, InvalidParameterError
from .linalg import as_covariance, centered_gram, require_finite

__all__ = ["oracle_theta", "wl_theta"]


def oracle_theta(X, mu, sigma) -> float:
    """Kurtosis estimate with known location and covariance-scale.

    (1 / (n p (p + 2))) * sum_i ((X_i - mu)' sigma^{-1} (X_i - mu))^2.
    ``sigma`` is a covariance object (:class:`ellipkurt.linalg.AR1` or
    :class:`ellipkurt.linalg.Dense`) or a dense matrix. The Mahalanobis
    norms are squared norms of the whitened rows L^{-1} (X_i - mu), never
    an explicit inverse: O(n p) for AR(1), a triangular solve on the
    Cholesky factor for a dense matrix. A covariance object keeps its
    factor, so passing the same one each replication factors it once.
    """
    X = np.asarray(X, dtype=float)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if X.ndim != 2:
        raise InvalidParameterError(f"data must be 2-d, got shape {X.shape}")
    n, p = X.shape
    if mu.shape[0] != p:
        raise InvalidParameterError(f"mu has length {mu.shape[0]}, data has p={p}")
    cov = as_covariance(sigma)
    if cov.p != p:
        raise InvalidParameterError(f"sigma is {cov.p} x {cov.p}, data has p={p}")
    # Every harness cell has mu = 0: whitening X itself saves an n x p copy
    # and is bit-identical, as q reads only squares (the sign of a zero).
    Y = cov.whiten(X if not np.any(mu) else X - mu)
    q = np.einsum("ij,ij->i", Y, Y)
    return math.fsum(q * q) / (n * p * (p + 2))


def wl_theta(X) -> float:
    """WL-style plug-in of the moment equation.

    theta ~= (var ||X - Xbar||^2 + tr^2 S) / (tr^2 S + 2 tr S^2) with S the
    sample covariance (divisor n - 1, no bias correction) and the variance
    taken with divisor n - 1. ``X`` is the data matrix or its centered Gram
    summary (:func:`ellipkurt.linalg.centered_gram`), which gives
    ||X_i - Xbar||^2, tr S and tr S^2; building it costs O(n p min(n, p)),
    and given the summary the rest is O(n).
    """
    cg = centered_gram(X)
    n = cg.n
    if n < 2:
        raise InsufficientSampleError(f"need at least 2 observations, got {n}")
    tr1 = cg.T / (n - 1)
    tr2 = cg.W / (n - 1) ** 2
    den = tr1 * tr1 + 2.0 * tr2
    g_max = float(np.max(cg.g))
    if den <= 0.0 or not den / (g_max * g_max) > 1e-24:
        raise DegenerateDataError("sample covariance is numerically zero")
    v = float(np.var(cg.g, ddof=1))
    out = (v + tr1 * tr1) / den
    require_finite(out)
    return out
