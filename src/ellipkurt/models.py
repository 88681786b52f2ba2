"""Generative samplers for the elliptical location-scale model.

A sample row is  x = mu + xi * (A @ u)  where A is a root of the
covariance (A A' = sigma), u is uniform on the unit sphere and xi >= 0 is
an independent radius. The covariance object chooses A: the closed-form
Cholesky factor for AR(1) (:class:`ellipkurt.linalg.AR1`, O(p) per row)
and the symmetric square root for a dense matrix. Every root gives the
same law, because u is rotation invariant. :func:`sample_data` computes a
row as mu + A (c z) with z a vector of standard normals and
c = xi / ||z||: one scaling of the normals, then the root, in place for
AR(1), then the location, which is skipped when it is zero. All shipped
squared-radius laws are normalized so that E xi^2 = p, the
identifiability convention used throughout the package.

Four families are provided, named after the multivariate distribution they
induce:

* ``normal`` : xi^2 chi-squared with p degrees of freedom (kurtosis 1),
* ``kotz``   : xi^2 = w^2 / (p + 1), w ~ Gamma(p, 1)
  (kurtosis (p + 3)/(p + 1)),
* ``t``      : xi^2 = p ((d - 2)/d) F(p, d), d > 8
  (kurtosis (d - 2)/(d - 4)),
* ``laplace``: xi^2 = R1 * R2, R1 ~ Exp(1), R2 ~ chi-squared p
  (kurtosis 2).

Each law class owns its family's facts: the sampler, the closed forms
:meth:`XiLaw.theta` and :meth:`XiLaw.moment`, and the name of the family's
confidence interval. The order of :data:`FAMILY_LAWS` fixes the simulation
harness's substream codes.

Samplers take an explicit ``numpy.random.Generator``; there is no global
RNG. Identical generator states produce bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidParameterError, MomentDoesNotExistError
from .linalg import AR1, Dense, as_covariance


class XiLaw:
    """Base class for squared-radius laws, normalized so that E xi^2 = p.

    Subclasses draw xi^2 via :meth:`sample_squared`. One without closed
    forms keeps the base :meth:`theta` and :meth:`moment`, which raise
    :class:`InvalidParameterError`. ``interval`` names the family's
    confidence interval.
    """

    p: int
    family: ClassVar[str] = "custom"
    interval: ClassVar[str | None] = None

    def sample_squared(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def theta(self) -> float:
        """Population kurtosis E xi^4 / (p (p + 2))."""
        raise InvalidParameterError(f"no kurtosis known for law {self!r}")

    def moment(self, m: int) -> float:
        """Exact E xi^{2m}, m in 1..4."""
        raise InvalidParameterError(f"no moment formula known for law {self!r}")


def _check_dim(p: int) -> None:
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise InvalidParameterError(f"dimension p must be a positive integer, got {p!r}")


def _check_order(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= 4:
        raise InvalidParameterError(f"moment order must be an integer in 1..4, got {m!r}")


def chi2_moment(p: int, m: int) -> float:
    """m-th moment of a chi-squared variable with p degrees of freedom:
    p (p + 2) ... (p + 2m - 2)."""
    out = 1.0
    for j in range(1, m + 1):
        out *= p + 2 * j - 2
    return out


@dataclass(frozen=True)
class ChiSquared(XiLaw):
    """xi^2 ~ chi-squared with p degrees of freedom (multivariate normal)."""

    p: int
    family: ClassVar[str] = "normal"
    interval: ClassVar[str] = "example1"

    def __post_init__(self):
        _check_dim(self.p)

    def sample_squared(self, rng, size=None):
        return rng.chisquare(self.p, size)

    def theta(self) -> float:
        return 1.0

    def moment(self, m: int) -> float:
        _check_order(m)
        return chi2_moment(self.p, m)


@dataclass(frozen=True)
class KotzHalf(XiLaw):
    """xi^2 = w^2 / (p + 1) with w ~ Gamma(p, 1).

    The Gamma draw uses numpy's rejection sampler (valid for shape >= 1,
    and shape = p >= 1 here).
    """

    p: int
    family: ClassVar[str] = "kotz"
    interval: ClassVar[str] = "kotz"

    def __post_init__(self):
        _check_dim(self.p)

    def sample_squared(self, rng, size=None):
        w = rng.gamma(self.p, 1.0, size)
        return w * w / (self.p + 1)

    def theta(self) -> float:
        return (self.p + 3) / (self.p + 1)

    def moment(self, m: int) -> float:
        """E w^{2m} / (p + 1)^m = p (p + 1) ... (p + 2m - 1) / (p + 1)^m."""
        _check_order(m)
        out = 1.0
        for j in range(1, 2 * m + 1):
            out *= self.p + j - 1
        return out / (self.p + 1) ** m


@dataclass(frozen=True)
class ScaledF(XiLaw):
    """xi^2 = p ((d - 2)/d) F(p, d) (multivariate t with d degrees of freedom).

    The scale factor makes E xi^2 = p. Requires integer d > 8 so that the
    eighth moment of xi exists (needed by the asymptotic-variance formulas).
    The F variate is drawn as a ratio of two independent normalized
    chi-squares.
    """

    p: int
    d: int = 9
    family: ClassVar[str] = "t"
    interval: ClassVar[str] = "t"

    def __post_init__(self):
        _check_dim(self.p)
        if not isinstance(self.d, (int, np.integer)) or self.d <= 8:
            raise InvalidParameterError(
                f"ScaledF requires an integer d > 8 for finite eighth moments, got {self.d!r}"
            )

    def sample_squared(self, rng, size=None):
        num = rng.chisquare(self.p, size) / self.p
        den = rng.chisquare(self.d, size) / self.d
        return self.p * ((self.d - 2) / self.d) * num / den

    def theta(self) -> float:
        return (self.d - 2) / (self.d - 4)

    def moment(self, m: int) -> float:
        """Orders m >= d/2 raise :class:`MomentDoesNotExistError`. Gamma
        ratios go through log-gamma differences, so large p cannot overflow."""
        _check_order(m)
        if 2 * m >= self.d:
            raise MomentDoesNotExistError(
                f"E xi^{2 * m} is infinite for ScaledF with d={self.d} (needs d > {2 * m})"
            )
        log_val = (
            m * math.log(self.d - 2)
            + math.lgamma(self.p / 2 + m)
            - math.lgamma(self.p / 2)
            + math.lgamma(self.d / 2 - m)
            - math.lgamma(self.d / 2)
        )
        return math.exp(log_val)


@dataclass(frozen=True)
class ExpChiProduct(XiLaw):
    """xi^2 = R1 * R2 with R1 ~ Exp(1) and R2 ~ chi-squared p
    (multivariate Laplace)."""

    p: int
    family: ClassVar[str] = "laplace"
    interval: ClassVar[str] = "laplace"

    def __post_init__(self):
        _check_dim(self.p)

    def sample_squared(self, rng, size=None):
        return rng.exponential(1.0, size) * rng.chisquare(self.p, size)

    def theta(self) -> float:
        return 2.0

    def moment(self, m: int) -> float:
        _check_order(m)
        return math.factorial(m) * chi2_moment(self.p, m)


# The order is fixed: a family's index is its substream code in the
# simulation harness (normal=0, kotz=1, t=2, laplace=3).
FAMILY_LAWS = {law.family: law for law in (ChiSquared, KotzHalf, ScaledF, ExpChiProduct)}
FAMILY_NAMES = tuple(FAMILY_LAWS)


def make_law(family: str, p: int, d: int = 9) -> XiLaw:
    """Build the squared-radius law for a named family at dimension p."""
    try:
        factory = FAMILY_LAWS[family]
    except KeyError:
        raise InvalidParameterError(
            f"unknown family {family!r}; expected one of {FAMILY_NAMES}"
        ) from None
    return ScaledF(p=p, d=d) if factory is ScaledF else factory(p=p)


@dataclass(frozen=True, eq=False)
class EllipticalSpec:
    """Generative description of an elliptical model.

    Holds the location, the covariance object ``sigma`` and the
    squared-radius law. Sampling goes through ``sigma.scaled_root``. Build
    via :meth:`create`.
    """

    mu: np.ndarray
    sigma: AR1 | Dense
    xi: XiLaw

    @classmethod
    def create(cls, mu, sigma, xi: XiLaw) -> "EllipticalSpec":
        """``sigma`` is a covariance object or a symmetric matrix. A matrix
        becomes :class:`ellipkurt.linalg.Dense` and its symmetric root is
        computed here, so a matrix that is not PSD fails at creation."""
        cov = as_covariance(sigma)
        mu = np.asarray(mu, dtype=float).reshape(-1)
        p = cov.p
        if mu.shape[0] != p:
            raise InvalidParameterError(
                f"mu has length {mu.shape[0]} but sigma is {p} x {p}"
            )
        if xi.p != p:
            raise InvalidParameterError(
                f"xi law has dimension {xi.p} but sigma is {p} x {p}"
            )
        if isinstance(cov, Dense):
            cov.root  # factor now, so a non-PSD matrix fails here
        return cls(mu=mu, sigma=cov, xi=xi)

    @property
    def p(self) -> int:
        return self.sigma.p


def _normal_rows(p: int, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    """An (m, p) array of standard normal draws and its row norms.

    The norms come from one ``einsum`` reduction, with no m x p temporary.
    The measure-zero event of a row that is exactly zero is handled by
    redrawing that row.
    """
    Z = rng.standard_normal((m, p))
    norms = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    while not norms.all():
        bad = norms == 0.0
        Z[bad] = rng.standard_normal((int(bad.sum()), p))
        norms = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    return Z, norms


def sample_sphere(p: int, rng: np.random.Generator, size: int | None = None):
    """Uniform draws from the unit sphere in R^p.

    A standard Gaussian vector is normalized, which is rotation invariant
    by construction; a zero vector is redrawn. Returns shape (p,) for
    ``size=None``, else (size, p).
    """
    _check_dim(p)
    Z, norms = _normal_rows(p, rng, 1 if size is None else int(size))
    Z /= norms[:, None]
    return Z[0] if size is None else Z


def sample_xi(law: XiLaw, rng: np.random.Generator, size: int | None = None):
    """Draw the nonnegative radius xi (square root of the law's xi^2)."""
    return np.sqrt(law.sample_squared(rng, size))


def sample_data(spec: EllipticalSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, p) data matrix of independent rows from the model.

    Draw order is fixed for reproducibility: all n radii xi_i first, then
    the n rows z_i of standard normals. Row i of X is
    mu + A (c_i z_i) with c_i = xi_i / ||z_i||, the same law as
    mu + xi_i A u_i. ``sigma.scaled_root`` folds c_i into its one scaling
    pass and, for AR(1), overwrites the normals with the sample, so no
    second n x p array is made. The location is added only when it is
    nonzero; adding a zero would change at most the sign of a zero entry.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameterError(f"n must be a positive integer, got {n!r}")
    xi = sample_xi(spec.xi, rng, n)
    Z, norms = _normal_rows(spec.p, rng, n)
    X = spec.sigma.scaled_root(Z, xi / norms)
    if np.any(spec.mu):
        X += spec.mu
    return X
