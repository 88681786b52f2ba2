"""Covariance objects and symmetric-matrix utilities.

A covariance object has a dimension ``p`` and two row-wise maps with a
factor L of the covariance (L L' = sigma): ``apply_root(Z)`` maps each row
z to L z and ``whiten(Y)`` maps each row y to L^{-1} y. Both return a new
array and leave their input as it is, so a caller may scale and shift the
result in place. :class:`AR1` does both in O(n p) from the closed-form
Cholesky factor of the AR(1) matrix: the root is one LAPACK
triangular-banded solve (``dtbtrs``) of the unit lower-bidiagonal
recursion, the whitening one subtraction. :class:`Dense` wraps any
symmetric matrix, sampling with its symmetric square root and whitening
with its Cholesky factor. Also here: PSD square roots, trace powers, and
the centered Gram summary of a data matrix (:func:`centered_gram`), which
is the only place in the package that centers data or forms a Gram
product. The summary is built once per sample and handed to every
statistic that reads it (``ustats_fast``, ``wl_theta``,
``plugin_moments_case2``); each of them also accepts the raw data and then
builds it itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtbtrs

from .errors import InvalidParameterError, NotPSDError, SingularMatrixError

# Eigenvalues below -PSD_CLAMP_TOL * ||M||_2 mean the input is not PSD;
# anything in (-tol * ||M||_2, 0) is treated as rounding noise and clamped.
PSD_CLAMP_TOL = 1e-8

# Smallest positive normal double: fourth powers of the data below it
# carry subnormal rounding, so results built from them are not trusted.
TINY = float(np.finfo(float).tiny)


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


def _check_ar1(p: int, rho: float) -> None:
    if p < 1:
        raise InvalidParameterError(f"p must be >= 1, got {p}")
    if not abs(rho) < 1:
        raise InvalidParameterError(f"|rho| must be < 1, got {rho}")


def toeplitz_ar1(p: int, rho: float) -> np.ndarray:
    """AR(1) Toeplitz covariance: entry (j, k) equals rho**|j - k|.

    Positive definite for |rho| < 1. :class:`AR1` is the same covariance
    without the p x p matrix.

    Parameters
    ----------
    p : int
        Dimension, at least 1.
    rho : float
        Off-diagonal decay, must satisfy |rho| < 1.
    """
    _check_ar1(p, rho)
    idx = np.arange(p)
    return float(rho) ** np.abs(np.subtract.outer(idx, idx)).astype(float)


@dataclass(frozen=True)
class AR1:
    """The AR(1) covariance rho**|j - k| of :func:`toeplitz_ar1`, never formed.

    Its Cholesky factor L is the AR(1) recursion with unit marginal
    variance: x = L z has x_0 = z_0 and x_j = rho x_{j-1} + s z_j with
    s = sqrt(1 - rho^2), so L^{-1} is lower bidiagonal. ``apply_root`` runs
    the recursion as a triangular-banded solve with no factorization, and
    ``whiten`` applies the bidiagonal inverse; both cost O(n p) for n rows.
    """

    p: int
    rho: float

    def __post_init__(self):
        _check_ar1(self.p, self.rho)

    def apply_root(self, Z) -> np.ndarray:
        """Rows z of Z mapped to L z.

        Solves B x = (z_0, s z_1, ..., s z_{p-1}), where B = diag(1, s, ..., s)
        L^{-1} is unit lower bidiagonal with subdiagonal -rho, by forward
        substitution (LAPACK ``dtbtrs``): x_j = rhs_j + rho x_{j-1}, one
        contiguous column of the F-ordered right-hand side Z' at a time.
        The BLAS kernel may fuse that multiply-add.
        """
        Z = np.asarray(Z, dtype=float)
        rho = float(self.rho)
        ab = np.ones((2, self.p))
        ab[1] = -rho
        rhs = Z.T * math.sqrt(1.0 - rho * rho)
        rhs[0] = Z[:, 0]
        X, info = dtbtrs(ab, rhs, uplo="L", trans="N", diag="U", overwrite_b=1)
        if info != 0:
            raise InvalidParameterError(f"AR(1) root: LAPACK dtbtrs returned info={info}")
        return X.T

    def whiten(self, Y) -> np.ndarray:
        """Rows y of Y mapped to L^{-1} y: y_0, then (y_j - rho y_{j-1}) / s."""
        Y = np.asarray(Y, dtype=float)
        rho = float(self.rho)
        out = np.empty_like(Y)
        out[:, 0] = Y[:, 0]
        tail = out[:, 1:]
        np.multiply(Y[:, :-1], rho, out=tail)
        np.subtract(Y[:, 1:], tail, out=tail)
        tail /= math.sqrt(1.0 - rho * rho)
        return out


@dataclass(frozen=True, eq=False)
class Dense:
    """A user-supplied covariance matrix with lazily computed factors.

    ``apply_root`` uses the symmetric square root (:func:`sqrt_psd`) and
    ``whiten`` the lower Cholesky factor; each is computed on first use
    and kept. The two maps use different factors, which is harmless: a
    sphere draw u is rotation invariant, and the Mahalanobis norm of
    R u is that of L u.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", check_symmetric(self.matrix, "sigma"))

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def root(self) -> np.ndarray:
        """Symmetric PSD square root; raises :class:`NotPSDError`."""
        return sqrt_psd(self.matrix)

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor; raises :class:`SingularMatrixError`."""
        try:
            return np.linalg.cholesky(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"sigma is not positive definite: {exc}") from exc

    def apply_root(self, Z) -> np.ndarray:
        """Rows z of Z mapped to R z with R the symmetric root."""
        return Z @ self.root

    def whiten(self, Y) -> np.ndarray:
        """Rows y of Y mapped to L^{-1} y with L the Cholesky factor.

        Finiteness of Y is the caller's contract; the solve skips the scan.
        """
        return solve_triangular(self.chol, np.asarray(Y, dtype=float).T, lower=True,
                                check_finite=False).T


def as_covariance(sigma) -> AR1 | Dense:
    """A covariance object for ``sigma``: an :class:`AR1` or :class:`Dense`
    passes through, anything else is wrapped as a dense matrix."""
    return sigma if isinstance(sigma, (AR1, Dense)) else Dense(sigma)


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
    # An overflow shows as inf and is the caller's to report (require_finite).
    with np.errstate(over="ignore", invalid="ignore"):
        S = M @ M
        return TracePowers(
            t1=float(np.trace(M)),
            t2=float(np.trace(S)),
            t3=float(np.sum(M * S)),
            t4=float(np.sum(S * S)),
        )


@dataclass(frozen=True)
class CenteredGram:
    """Scalars of the rows of an n x p matrix X centered by the column mean.

    ``g`` holds the squared centered row norms and ``M`` the smaller of the
    two Gram matrices, Xc' Xc (p x p) when p < n and Xc Xc' (n x n)
    otherwise; both share their nonzero eigenvalues, so every trace power
    of M is that of either side. T = sum g_i = tr M, t = sum g_i^2 and
    W = ||M||_F^2 are exact sums (:func:`exact_sum`). ``x_max`` = max |X|
    is the absolute scale of the raw data, offset included, for
    degeneracy floors relative to it.
    """

    n: int
    p: int
    x_max: float
    g: np.ndarray
    M: np.ndarray
    T: float
    t: float
    W: float


def require_normal(*values: float) -> None:
    """Raise :class:`InvalidParameterError` when a positive power of the
    data underflows, i.e. is below the smallest normal double.

    Subnormal values have lost relative precision, so a ratio built from
    them would be returned silently wrong.
    """
    if min(values) < TINY:
        raise InvalidParameterError(
            "statistic underflows: a power of the data's scale is below the "
            "smallest normal double"
        )


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


def as_data_matrix(X) -> tuple[np.ndarray, float]:
    """X as a float matrix and its scale max |X|.

    X is checked to be 2-d with at least one row and one column and to be
    finite; raises :class:`InvalidParameterError` otherwise. One max and
    one min reduction do both: NaN and infinities propagate through them.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise InvalidParameterError(f"data must be a nonempty 2-d matrix, got shape {X.shape}")
    hi, lo = float(X.max()), float(X.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise InvalidParameterError("data contains non-finite values")
    # max(hi, -lo) is max |X| except that it can be -0.0; abs makes it 0.0.
    return X, abs(max(hi, -lo))


@lru_cache(maxsize=8)
def _upper_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices of the strict upper triangle of a k x k matrix."""
    rows, cols = np.triu_indices(k, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def frobenius_sq(M) -> float:
    """||M||_F^2 of an exactly symmetric M, summed over one triangle.

    The diagonal squares and the doubled squares above the diagonal are one
    :func:`exact_sum`. Doubling is exact and fsum is correctly rounded, so
    the result is bit for bit ``exact_sum(M * M)``, at half the terms.
    """
    M = np.asarray(M, dtype=float)
    # An overflow shows as inf and raises through exact_sum.
    with np.errstate(over="ignore"):
        upper = M[_upper_indices(M.shape[0])]
        return exact_sum(np.concatenate((np.diagonal(M) ** 2, 2.0 * (upper * upper))))


def centered_gram(X) -> CenteredGram:
    """Center the rows of X and summarize their Gram matrix.

    A :class:`CenteredGram` is returned as it is, so a statistic can take
    either the data or their summary, and the caller that holds the sample
    builds the summary once for all of them. Raw data are checked by
    :func:`as_data_matrix`.

    Costs O(n p min(n, p)). M is exactly symmetric. The rows are shifted by
    the first row before the column mean is taken out, which is the same
    in exact arithmetic and keeps the rounding relative to the spread of
    the rows, so a degeneracy test can be relative too. Raises
    :class:`InvalidParameterError` when T, t or W overflows, or when the
    centered data are not all zero but t underflows (W >= t, so W is then
    normal too).
    """
    if isinstance(X, CenteredGram):
        return X
    X, x_max = as_data_matrix(X)
    n, p = X.shape
    # An overflow shows as inf and raises through exact_sum.
    with np.errstate(over="ignore", invalid="ignore"):
        # Shifting by the first row first (exact for nearby values) makes the
        # rounding of the centered rows relative to their spread, not to the
        # offset: identical rows center to exact zeros at any scale.
        Xc = X - X[0]
        Xc -= Xc.mean(axis=0)
        g = np.einsum("ij,ij->i", Xc, Xc)
        M = symmetrize(Xc.T @ Xc if p < n else Xc @ Xc.T)
        cg = CenteredGram(n=n, p=p, x_max=x_max, g=g, M=M,
                          T=exact_sum(g), t=exact_sum(g * g), W=frobenius_sq(M))
    if np.any(Xc):
        require_normal(cg.t)
    return cg
