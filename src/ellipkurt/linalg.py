"""Dense symmetric-matrix utilities.

Covariance construction, PSD square roots, trace powers, and the centered
Gram summary of a data matrix (:func:`centered_gram`), which is the only
place in the package that centers data or forms a Gram product. Everything
is dense: the simulation settings top out around p = 1600, well within
dense-eigendecomposition territory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NotPSDError

# Eigenvalues below -PSD_CLAMP_TOL * ||M||_2 mean the input is not PSD;
# anything in (-tol * ||M||_2, 0) is treated as rounding noise and clamped.
PSD_CLAMP_TOL = 1e-8


@dataclass(frozen=True)
class TracePowers:
    """Traces of the first four powers of a symmetric matrix."""

    t1: float
    t2: float
    t3: float
    t4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.t1, self.t2, self.t3, self.t4)


def check_symmetric(M, name: str = "matrix") -> np.ndarray:
    """Validate a dense, exactly symmetric, square float matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise InvalidParameterError(
            f"{name} must be a square matrix with dim >= 1, got shape {M.shape}"
        )
    if not np.array_equal(M, M.T):
        raise InvalidParameterError(f"{name} must be exactly symmetric")
    return M


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Average a nearly symmetric matrix with its transpose.

    Products such as ``X @ X.T`` are symmetric in exact arithmetic but BLAS
    may round the (i, j) and (j, i) entries differently; this restores the
    exact symmetry the rest of the package requires.
    """
    return 0.5 * (M + M.T)


def toeplitz_ar1(p: int, rho: float) -> np.ndarray:
    """AR(1) Toeplitz covariance: entry (j, k) equals rho**|j - k|.

    Positive definite for |rho| < 1.

    Parameters
    ----------
    p : int
        Dimension, at least 1.
    rho : float
        Off-diagonal decay, must satisfy |rho| < 1.
    """
    if p < 1:
        raise InvalidParameterError(f"p must be >= 1, got {p}")
    if not abs(rho) < 1:
        raise InvalidParameterError(f"|rho| must be < 1, got {rho}")
    idx = np.arange(p)
    return float(rho) ** np.abs(np.subtract.outer(idx, idx)).astype(float)


def sqrt_psd(M) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in (-tol * ||M||_2, 0) are clamped to zero; anything more
    negative raises :class:`NotPSDError`. The returned root R is exactly
    symmetric and satisfies R @ R == M up to rounding.
    """
    M = check_symmetric(M)
    evals, evecs = np.linalg.eigh(M)
    scale = max(abs(float(evals[0])), abs(float(evals[-1])))
    if float(evals[0]) < -PSD_CLAMP_TOL * scale:
        raise NotPSDError(
            f"matrix is not PSD: smallest eigenvalue {evals[0]:.3e} "
            f"below -{PSD_CLAMP_TOL:.0e} * ||M||"
        )
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    return symmetrize(root)


def trace_powers(M) -> TracePowers:
    """Traces of M, M^2, M^3, M^4 for symmetric M.

    Only one matrix product is formed: with S = M @ M,

        tr M^3 = <M, S>_F    and    tr M^4 = ||S||_F^2,

    which avoids the extra O(p^3) multiplications for the cubic and quartic
    powers.
    """
    M = check_symmetric(M)
    S = M @ M
    return TracePowers(
        t1=float(np.trace(M)),
        t2=float(np.trace(S)),
        t3=float(np.sum(M * S)),
        t4=float(np.sum(S * S)),
    )


@dataclass(frozen=True)
class CenteredGram:
    """Scalars of the rows of X centered by the column mean.

    ``g`` holds the squared centered row norms and ``M`` the smaller of the
    two Gram matrices, Xc' Xc (p x p) when p < n and Xc Xc' (n x n)
    otherwise; both share their nonzero eigenvalues, so every trace power
    of M is that of either side. T = sum g_i = tr M, t = sum g_i^2 and
    W = ||M||_F^2 are exact sums (:func:`exact_sum`).
    """

    g: np.ndarray
    M: np.ndarray
    T: float
    t: float
    W: float


def require_finite(*values: float) -> None:
    """Raise :class:`InvalidParameterError` when a result is not finite.

    The statistics are fourth powers of the data's scale, so data whose
    entries are finite can still overflow double precision.
    """
    if not all(math.isfinite(v) for v in values):
        raise InvalidParameterError(
            "statistic is not finite: the data contain non-finite values or "
            "their scale overflows double precision when raised to the fourth power"
        )


def exact_sum(a) -> float:
    """math.fsum of the entries of ``a``: exact and independent of order.

    An infinite, NaN or overflowing sum raises :class:`InvalidParameterError`.
    """
    try:
        out = math.fsum(np.ravel(a).tolist())
    except OverflowError:
        out = math.inf
    require_finite(out)
    return out


def centered_gram(X) -> CenteredGram:
    """Center the rows of X and summarize their Gram matrix.

    Costs O(n p min(n, p)). M is exactly symmetric. Raises
    :class:`InvalidParameterError` when T, t or W overflows.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise InvalidParameterError(f"X must be a nonempty 2-d matrix, got shape {X.shape}")
    n, p = X.shape
    Xc = X - X.mean(axis=0)
    g = np.einsum("ij,ij->i", Xc, Xc)
    M = symmetrize(Xc.T @ Xc if p < n else Xc @ Xc.T)
    return CenteredGram(g=g, M=M, T=exact_sum(g), t=exact_sum(g * g), W=exact_sum(M * M))
