"""Covariance objects and symmetric-matrix utilities.

A covariance object has a dimension ``p`` and row-wise maps with a factor
L of the covariance (L L' = sigma): ``apply_root(Z)`` maps each row z to
L z and ``whiten(Y)`` maps each row y to L^{-1} y, both into a new array
that leaves their input as it is; ``scaled_root(Z, scale)`` maps row z_i
to L (scale_i z_i) and may overwrite Z, which is how the sampler draws
without a second n x p array; ``whitened_sq_norms(Y)`` gives the squared
norms ||L^{-1} y||^2 of the rows. :class:`AR1` does all of them in O(n p)
from the closed-form Cholesky factor of the AR(1) matrix: the root is one
in-place LAPACK triangular-banded solve (``dtbtrs``) of the unit
lower-bidiagonal recursion, the whitening one subtraction.
:class:`Dense` wraps any symmetric matrix, sampling with its symmetric
square root and whitening with its Cholesky factor. Also here: PSD square
roots, trace powers, and the centered Gram summary of a data matrix
(:func:`centered_gram`), which is the only place in the package that
centers data or forms a Gram product. It centers a copy of the data
unless its caller, which owns the sample, lets it center in place. The
summary is built once per sample and handed to every statistic that
reads it (``ustats_fast``, ``wl_theta``, ``plugin_moments_case2``); each
of them also accepts the raw data and then builds it itself.

Last, :data:`OPENBLAS` is numpy's bundled OpenBLAS, the one native library
the package drives, found by path on first use: it holds the library at
one thread while concurrent callers run, and it runs LAPACK's triangular
solves through ``ctypes``, which releases the interpreter lock: the AR(1)
root's banded ``dtbtrs``, so threads sampling at once run their roots at
once, and the dense whitening's ``dtrtrs``. Where numpy's library lacks
the thread-count routines or ``dtbtrs``, the hold does nothing, the root
runs in numpy, equal to LAPACK's up to rounding, and ``OPENBLAS.reason``
says why; a library that lacks only ``dtrtrs`` is still driven, and only
the whitening solves in numpy. The package imports no scipy module.
"""

from __future__ import annotations

import ctypes
import glob
import math
import numbers
import operator
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, NotPSDError, SingularMatrixError

# Eigenvalues below -PSD_CLAMP_TOL * ||M||_2 mean the input is not PSD;
# anything in (-tol * ||M||_2, 0) is treated as rounding noise and clamped.
PSD_CLAMP_TOL = 1e-8

# Smallest positive normal double: fourth powers of the data below it
# carry subnormal rounding, so results built from them are not trusted.
TINY = float(np.finfo(float).tiny)


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


def _is_int(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy integer, not a
    bool. The one integer test of the package's parameter checks."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_ar1(p: int, rho: float) -> None:
    if not _is_int(p):
        raise InvalidParameterError(f"p must be an integer, got {p!r}")
    if p < 1:
        raise InvalidParameterError(f"p must be >= 1, got {p}")
    if not isinstance(rho, numbers.Real):
        raise InvalidParameterError(f"rho must be a real number, got {rho!r}")
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
    s = sqrt(1 - rho^2), so L^{-1} is lower bidiagonal. ``scaled_root``
    runs the recursion as an in-place triangular-banded solve with no
    factorization, and ``apply_root`` runs it on a copy; ``whiten`` and
    ``whitened_sq_norms`` apply the bidiagonal inverse. Each costs O(n p)
    for n rows.
    """

    p: int
    rho: float
    # LAPACK band storage of diag(1, s, ..., s) L^{-1}, built once; read only.
    _band: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_ar1(self.p, self.rho)
        band = np.empty((2, self.p), order="F")
        band[0] = 1.0
        band[1] = -float(self.rho)
        band.flags.writeable = False
        object.__setattr__(self, "_band", band)

    def apply_root(self, Z) -> np.ndarray:
        """Rows z of Z mapped to L z, in a new array."""
        return self.scaled_root(np.array(Z, dtype=float, order="C"), 1.0)

    def scaled_root(self, Z: np.ndarray, scale) -> np.ndarray:
        """Rows z_i of Z mapped to L (scale_i z_i), written over Z.

        ``Z`` is a C-ordered float64 (n, p) array and ``scale`` a length-n
        array or a scalar. One pass scales the rows into the right-hand
        side (scale_i z_i0, c_i z_i1, ..., c_i z_i,p-1) with c_i = scale_i s:
        it scales whole contiguous rows by c_i and then writes back column 0,
        saved beforehand as scale_i z_i0.
        Forward substitution (LAPACK ``dtbtrs``) then solves B x = rhs in
        place, where B = diag(1, s, ..., s) L^{-1} is unit lower bidiagonal
        with subdiagonal -rho: x_j = rhs_j + rho x_{j-1}, one contiguous
        column of the F-ordered transpose Z' at a time. The BLAS kernel may
        fuse that multiply-add. The solve is :meth:`OpenBlas.solve`, which
        releases the interpreter lock and solves a Z it cannot take as it
        is (not C-ordered float64) in a copy.
        """
        rho = float(self.rho)
        scale = np.asarray(scale, dtype=float)[..., None]
        head = Z[:, :1] * scale
        Z *= scale * math.sqrt(1.0 - rho * rho)
        Z[:, :1] = head
        X, info = OPENBLAS.solve(self._band, Z)
        if info != 0:
            raise InvalidParameterError(f"AR(1) root: LAPACK dtbtrs returned info={info}")
        return X

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

    def whitened_sq_norms(self, Y) -> np.ndarray:
        """||L^{-1} y||^2 per row y of Y, as
        y_0^2 + ||y_{1:} - rho y_{:-1}||^2 / (1 - rho^2): one n x (p - 1)
        difference array and no division pass. Y is left as it is."""
        Y = np.asarray(Y, dtype=float)
        rho = float(self.rho)
        D = np.multiply(Y[:, :-1], rho)
        np.subtract(Y[:, 1:], D, out=D)
        head = Y[:, 0]
        return head * head + np.einsum("ij,ij->i", D, D) / (1.0 - rho * rho)


@dataclass(frozen=True, eq=False)
class Dense:
    """A user-supplied covariance matrix with lazily computed factors.

    ``apply_root`` uses the symmetric square root (:func:`sqrt_psd`) and
    ``whiten`` the lower Cholesky factor, through a triangular solve
    (:meth:`OpenBlas.solve_triangular`); each factor is computed on first
    use and kept. The two maps use different factors, which is harmless: a
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

    def scaled_root(self, Z: np.ndarray, scale) -> np.ndarray:
        """Rows z_i of Z mapped to R (scale_i z_i): Z is scaled in place,
        then multiplied by R into a new array."""
        Z *= np.asarray(scale, dtype=float)[..., None]
        return Z @ self.root

    def whiten(self, Y) -> np.ndarray:
        """Rows y of Y mapped to L^{-1} y with L the Cholesky factor, in a
        new C-ordered array.

        Finiteness of Y is the caller's contract; the solve skips the scan.
        """
        W, info = OPENBLAS.solve_triangular(self.chol, Y)
        if info != 0:
            raise SingularMatrixError(f"whitening: LAPACK dtrtrs returned info={info}")
        return W

    def whitened_sq_norms(self, Y) -> np.ndarray:
        """||L^{-1} y||^2 per row y of Y, from the whitened rows."""
        W = self.whiten(Y)
        return np.einsum("ij,ij->i", W, W)


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
    # BLAS may round the (i, j) and (j, i) entries of the product differently.
    return 0.5 * (root + root.T)


def trace_powers(M: np.ndarray) -> tuple[float, float, float, float]:
    """Traces of M, M^2, M^3, M^4 for an exactly symmetric float matrix M,
    which is not checked: the callers hold a matrix that is checked
    (:func:`check_symmetric`) or symmetric by construction
    (``CenteredGram.M``).

    Only one matrix product is formed: with S = M @ M,

        tr M^3 = <M, S>_F    and    tr M^4 = ||S||_F^2,

    which avoids the extra O(p^3) multiplications for the cubic and quartic
    powers.
    """
    # An overflow shows as inf and is the caller's to report (require_finite).
    with np.errstate(over="ignore", invalid="ignore"):
        S = M @ M
        return (float(np.trace(M)), float(np.trace(S)), float(np.sum(M * S)),
                float(np.sum(S * S)))


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


_NOT_FINITE = ("statistic is not finite: the data contain non-finite values or their "
               "scale overflows double precision when raised to the fourth power")


def require_finite(*values: float) -> None:
    """Raise :class:`InvalidParameterError` when a result is not finite.

    The statistics are fourth powers of the data's scale, so data whose
    entries are finite can still overflow double precision.
    """
    if not all(math.isfinite(v) for v in values):
        raise InvalidParameterError(_NOT_FINITE)


# Terms per bincount in exact_sum: any chunk of at most 2**26 keeps its sums exact.
_SUM_CHUNK = 1 << 20
# Up to this many terms exact_sum calls math.fsum: on a 2-core x86-64 VM,
# fsum took 2.6 us at 100 terms and 16 us at 400, the buckets 16-25 us
# at either; the two crossed near 600 terms.
_FSUM_TERMS = 600
# np.frexp exponents of finite doubles run from -1073 (for 2**-1074) to 1024.
_EXP_BIAS = 1073
_SUM_SCALE = 1 << (_EXP_BIAS + 53)


def exact_sum(a) -> float:
    """The sum of the entries of ``a``, correctly rounded: ``math.fsum``'s
    result bit for bit, whatever the order of the entries.

    ``np.frexp`` writes each entry as x = t * 2**(e - 26) with
    |t| < 2**26 a multiple of 2**-27. Its floor h is an integer with
    |h| <= 2**26 and f = t - h a multiple of 2**-27 in [0, 1); both are
    exact. Per exponent e, ``np.bincount`` sums the h's and the f's in
    float64: over at most 2**26 terms every partial sum of h's is an integer
    below 2**52 in magnitude and every partial sum of f's a multiple of
    2**-27 below 2**26, so each is exact in any order. The bucket totals,
    one per exponent from the smallest to the largest present, are then
    added exactly as Python integers in units of 2**-1126, and the one
    rounding of the whole computation is the correctly rounded integer
    division that turns that count back into a double.

    Up to ``_FSUM_TERMS`` entries, where it is faster, ``math.fsum``
    itself gives the result; where fsum raises ``OverflowError`` the
    buckets decide.

    A non-finite entry, or a sum whose rounding overflows, raises
    :class:`InvalidParameterError`. Unlike ``math.fsum``, whose running
    partial sums can overflow for some orders of mixed-sign entries near
    the top of the double range, the result never depends on the order.
    """
    x = np.asarray(a, dtype=float).reshape(-1)  # a view where the layout allows
    if x.size <= _FSUM_TERMS:
        try:
            short = math.fsum(x.tolist())
        except OverflowError:
            pass  # a partial sum overflowed, which depends on the order
        except ValueError:  # inf - inf
            raise InvalidParameterError(_NOT_FINITE) from None
        else:
            if not math.isfinite(short):
                raise InvalidParameterError(_NOT_FINITE)
            return short
    total = 0  # the sum in units of 2**-1126
    for start in range(0, x.size, _SUM_CHUNK):
        chunk = x[start:start + _SUM_CHUNK]
        if not np.isfinite(chunk).all():
            raise InvalidParameterError(_NOT_FINITE)
        mant, exp = np.frexp(chunk)
        low = int(exp.min())
        exp -= low  # bucket k holds exponent low + k
        t = mant * 2.0**26
        h = np.floor(t)
        t -= h
        for sums, shift in ((np.bincount(exp, h), 27), (np.bincount(exp, t) * 2.0**27, 0)):
            first = low + _EXP_BIAS + shift
            total += sum(map(operator.lshift, sums.astype(np.int64).tolist(),
                             range(first, first + sums.size)))
    try:  # a zero sum is +0.0, as with fsum, all-negative-zero input included
        return total / _SUM_SCALE
    except OverflowError:
        raise InvalidParameterError(_NOT_FINITE) from None


def as_float_matrix(X) -> np.ndarray:
    """X as a float64 matrix, the same array when it is one.

    Raises :class:`InvalidParameterError` for complex, str and bytes
    arrays, and object arrays holding str or bytes, which a float
    conversion would cast with a warning or parse, for input that does not
    convert to floats (a ragged or non-numeric list, or a Python integer
    beyond the double range), and unless X is 2-d with at least one row and
    one column. The values of a numeric array are not read.
    """
    text = None  # the type of the first str or bytes in an object array
    try:
        X = np.asarray(X)
        if X.dtype.kind == "O":
            text = next((type(v).__name__ for v in X.flat if isinstance(v, (str, bytes))), None)
        if text is None and X.dtype.kind not in "cSU":
            X = X.astype(float, copy=False)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidParameterError(f"data must be a numeric matrix: {exc}") from None
    if text is not None:
        raise InvalidParameterError(f"data must be real numbers, got {text} in an object array")
    if X.dtype.kind in "cSU":
        raise InvalidParameterError(f"data must be real numbers, got dtype {X.dtype}")
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise InvalidParameterError(
            f"data must be a 2-d matrix with at least one row and one column, got shape {X.shape}"
        )
    return X


def as_data_matrix(X) -> tuple[np.ndarray, float]:
    """X as a float matrix (:func:`as_float_matrix`) and its scale max |X|.

    X is also checked to be finite; raises :class:`InvalidParameterError`
    otherwise. One max and one min reduction do both: NaN and infinities
    propagate through them.
    """
    X = as_float_matrix(X)
    hi, lo = float(X.max()), float(X.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise InvalidParameterError("data contains non-finite values")
    # max(hi, -lo) is max |X| except that it can be -0.0; abs makes it 0.0.
    return X, abs(max(hi, -lo))


def centered_gram(X, overwrite_x: bool = False) -> CenteredGram:
    """Center the rows of X and summarize their Gram matrix.

    A :class:`CenteredGram` is returned as it is, so a statistic can take
    either the data or their summary, and the caller that holds the sample
    builds the summary once for all of them. Raw data are checked by
    :func:`as_data_matrix`. X is centered in a copy and left as it is,
    unless ``overwrite_x`` lets a float64 X be centered in place: then X
    holds the centered rows afterwards.

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
        if overwrite_x:
            Xc = X
            Xc -= X[0].copy()
        else:
            Xc = X - X[0]
        Xc -= Xc.mean(axis=0)
        g = np.einsum("ij,ij->i", Xc, Xc)
        # numpy forms a matrix times its own transpose with one symmetric
        # rank-k update (BLAS syrk) and mirrors the triangle it wrote, so M
        # is exactly symmetric on either side without averaging.
        M = Xc.T @ Xc if p < n else Xc @ Xc.T
        cg = CenteredGram(n=n, p=p, x_max=x_max, g=g, M=M,
                          T=exact_sum(g), t=exact_sum(g * g), W=exact_sum(M * M))
    # Only a t below the normal range can raise, so only then is Xc scanned.
    if cg.t < TINY and np.any(Xc):
        require_normal(cg.t)
    return cg


@dataclass(frozen=True)
class _Library:
    """The routines the package calls in one loaded OpenBLAS library."""

    path: str
    get: Callable[[], int]
    set: Callable[[int], None]
    dtbtrs: Callable[..., None]
    dtrtrs: Callable[..., None] | None  # None where the library lacks it


# Exported names in numpy's OpenBLAS, the ILP64 scipy-openblas64 build of
# numpy 2 wheels: the thread-count getter and setter and LAPACK dtbtrs and
# dtrtrs.
_THREADS_SYMBOL = "scipy_openblas_{}_num_threads64_"
_DTBTRS_SYMBOL = "scipy_dtbtrs_64_"
_DTRTRS_SYMBOL = "scipy_dtrtrs_64_"
_I64 = ctypes.POINTER(ctypes.c_int64)
# uplo, trans, diag, n, kd, nrhs, ab, ldab, b, ldb, info, then the hidden
# lengths of the three character arguments that gfortran passes; dtrtrs
# takes the same arguments without kd.
_DTBTRS_ARGTYPES = ([ctypes.c_char_p] * 3 + [_I64] * 3
                    + [ctypes.c_void_p, _I64, ctypes.c_void_p, _I64, _I64] + [ctypes.c_size_t] * 3)
_DTRTRS_ARGTYPES = _DTBTRS_ARGTYPES[:4] + _DTBTRS_ARGTYPES[5:]


def _find_openblas() -> tuple[_Library | None, str | None]:
    """numpy's bundled OpenBLAS, loaded, and the reason when there is none
    that exports the thread-count routines and ``dtbtrs`` (numpy built on
    another BLAS, or on an older OpenBLAS build). ``dtrtrs``, which only
    the dense whitening calls, is looked up on its own: without it the
    library is still driven, and its ``dtrtrs`` is None. Loading a library
    the process already holds returns that same library, so its thread
    count is numpy's."""
    misses = []
    symbols = (_THREADS_SYMBOL.format("get"), _THREADS_SYMBOL.format("set"), _DTBTRS_SYMBOL)
    for path in sorted(glob.glob(f"{os.path.dirname(np.__file__)}.libs/*openblas*")):
        name = os.path.basename(path)
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            misses.append(f"{name}: {exc}")
            continue
        missing = [s for s in symbols if not hasattr(lib, s)]
        if missing:
            misses.append(f"{name}: no {', '.join(missing)}")
            continue
        get, set_, dtbtrs = (getattr(lib, s) for s in symbols)
        dtrtrs = getattr(lib, _DTRTRS_SYMBOL, None)
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        dtbtrs.argtypes, dtbtrs.restype = _DTBTRS_ARGTYPES, None
        if dtrtrs is not None:
            dtrtrs.argtypes, dtrtrs.restype = _DTRTRS_ARGTYPES, None
        return _Library(path, get, set_, dtbtrs, dtrtrs), None
    return None, "; ".join(misses) or "no OpenBLAS library bundled with numpy"


def _forward_substitution(ab: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """:meth:`OpenBlas.solve` in numpy, in place, for a library without
    ``dtbtrs``: column j of Z takes off the multiples of columns
    j - kd .. j - 1, in that order, as the forward substitution of
    ``dtbtrs`` does, each product rounded before it is subtracted."""
    kd = ab.shape[0] - 1
    for j in range(1, Z.shape[1]):
        for i in range(max(j - kd, 0), j):
            Z[:, j] -= ab[j - i, i] * Z[:, i]
    return Z


class OpenBlas:
    """numpy's bundled OpenBLAS, the one native library the package drives.

    The library is looked up on first use, once, under a lock
    (:data:`OPENBLAS` is the process's one instance): :attr:`library` is
    what was found and :attr:`reason` says why nothing was. Three things
    use it:

    - :meth:`one_thread` holds the library at one thread while any holder
      is inside it. The thread count is process-wide, and holders are
      counted under the lock: the first one in saves the count and sets it
      to 1, and the last one out restores it, also when an exception
      escapes. Without a library it does nothing.
    - :meth:`solve` calls LAPACK ``dtbtrs`` through ``ctypes``, whose calls
      release the interpreter lock, so threads that solve at once run at
      once. Without a library it runs a numpy column recurrence, which
      holds the lock between columns. It gives LAPACK's bits where each
      product of the recurrence is exact (a subdiagonal of zeros or signed
      powers of two, as at rho = 0.5); elsewhere the two differ at the
      rounding level, since the BLAS kernel may fuse the multiply-add.
    - :meth:`solve_triangular` calls LAPACK ``dtrtrs`` the same way.
      Without a library, or in one that lacks ``dtrtrs`` alone, it runs
      ``np.linalg.solve`` on the factor, an LU solve that agrees with
      ``dtrtrs`` up to rounding.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._found: tuple[_Library | None, str | None] | None = None
        self._holders = 0
        self._saved = 0

    def _resolve(self) -> tuple[_Library | None, str | None]:
        found = self._found
        if found is None:
            with self._lock:
                if self._found is None:
                    self._found = _find_openblas()
                found = self._found
        return found

    @property
    def library(self) -> _Library | None:
        """The library's routines, or None when there is none."""
        return self._resolve()[0]

    @property
    def reason(self) -> str | None:
        """Why no library is driven, or None when one is."""
        return self._resolve()[1]

    @contextmanager
    def one_thread(self) -> Iterator[None]:
        lib = self.library
        if lib is None:
            yield
            return
        with self._lock:
            if self._holders == 0:
                self._saved = lib.get()
                lib.set(1)
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    lib.set(self._saved)

    def solve(self, ab: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve A x = z for each row z of Z; the solutions as rows, and
        LAPACK's ``info``.

        A is p x p unit lower triangular with kd = ab.shape[0] - 1
        subdiagonals in LAPACK band storage ``ab`` (entry (i, j) of A, for
        0 <= i - j <= kd, is ab[i - j, j]; the diagonal row is not read).
        The F-ordered Z' is solved in place and Z returned when Z is a
        C-ordered, writeable float64 array; any other Z (F-ordered,
        strided, another dtype) is solved in such a copy, which is
        returned, so a memory layout never changes which routine runs.
        """
        if Z.ndim != 2 or ab.ndim != 2 or ab.shape[1] != Z.shape[1]:
            raise ValueError(f"band {ab.shape} does not fit right-hand sides {Z.shape}")
        Z = np.require(Z, np.float64, "CAW")
        ab = np.require(ab, np.float64, "FA")
        lib = self.library
        if lib is None:
            return _forward_substitution(ab, Z), 0
        n, p = Z.shape
        rows = ab.shape[0]
        i64, info = ctypes.c_int64, ctypes.c_int64(0)
        lib.dtbtrs(b"L", b"N", b"U", ctypes.byref(i64(p)), ctypes.byref(i64(rows - 1)),
                   ctypes.byref(i64(n)), ab.ctypes.data, ctypes.byref(i64(rows)),
                   Z.ctypes.data, ctypes.byref(i64(max(p, 1))), ctypes.byref(info), 1, 1, 1)
        return Z, info.value

    def solve_triangular(self, L: np.ndarray, Y) -> tuple[np.ndarray, int]:
        """Solve L x = y for each row y of Y; the solutions as the rows of a
        new C-ordered array, and LAPACK's ``info``. Y is left as it is.

        L is a C-ordered p x p lower triangular float64 matrix, such as
        ``np.linalg.cholesky`` returns; its upper triangle is not read. A
        float64 copy of Y in C order, which is the F-ordered p x n
        right-hand side Y', is solved in place; L's buffer is passed as
        it is, read as the upper triangular L' and solved transposed.
        """
        X = np.array(Y, dtype=np.float64, order="C")
        L = np.require(L, np.float64, "CA")
        if X.ndim != 2 or L.shape != (X.shape[1],) * 2:
            raise ValueError(f"triangle {L.shape} does not fit right-hand sides {X.shape}")
        lib = self.library
        if lib is None or lib.dtrtrs is None:
            return np.ascontiguousarray(np.linalg.solve(L, X.T).T), 0
        n, p = X.shape
        i64, info, ld = ctypes.c_int64, ctypes.c_int64(0), ctypes.c_int64(max(p, 1))
        lib.dtrtrs(b"U", b"T", b"N", ctypes.byref(i64(p)), ctypes.byref(i64(n)),
                   L.ctypes.data, ctypes.byref(ld), X.ctypes.data, ctypes.byref(ld),
                   ctypes.byref(info), 1, 1, 1)
        return X, info.value


OPENBLAS = OpenBlas()
