"""Generative samplers for the elliptical location-scale model.

A sample row is  x = mu + xi * (A @ u)  where A is a root of the
covariance (A A' = sigma), u is uniform on the unit sphere and xi >= 0 is
an independent radius. The covariance object chooses A: the closed-form
Cholesky factor for AR(1) (:class:`ellipkurt.linalg.AR1`, O(p) per row)
and the symmetric square root for a dense matrix. Every root gives the
same law, because u is rotation invariant. All shipped squared-radius laws
are normalized so that E xi^2 = p, the identifiability convention used
throughout the package.

Four families are provided, named after the multivariate distribution they
induce:

* ``normal`` : xi^2 chi-squared with p degrees of freedom (kurtosis 1),
* ``kotz``   : xi^2 = w^2 / (p + 1), w ~ Gamma(p, 1)
  (kurtosis (p + 3)/(p + 1)),
* ``t``      : xi^2 = p ((d - 2)/d) F(p, d), d > 8
  (kurtosis (d - 2)/(d - 4)),
* ``laplace``: xi^2 = R1 * R2, R1 ~ Exp(1), R2 ~ chi-squared p
  (kurtosis 2).

Samplers take an explicit ``numpy.random.Generator``; there is no global
RNG. Identical generator states produce bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidParameterError
from .linalg import AR1, Dense, as_covariance

__all__ = [
    "XiLaw",
    "ChiSquared",
    "KotzHalf",
    "ScaledF",
    "ExpChiProduct",
    "FAMILY_NAMES",
    "make_law",
    "true_theta",
    "EllipticalSpec",
    "sample_sphere",
    "sample_xi",
    "sample_data",
]


class XiLaw:
    """Base class for squared-radius laws.

    Subclasses draw xi^2 via :meth:`sample_squared` and are normalized so
    that E xi^2 = p.
    """

    p: int
    family: ClassVar[str] = "custom"

    def sample_squared(self, rng: np.random.Generator, size=None):
        raise NotImplementedError


def _check_dim(p: int) -> None:
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise InvalidParameterError(f"dimension p must be a positive integer, got {p!r}")


@dataclass(frozen=True)
class ChiSquared(XiLaw):
    """xi^2 ~ chi-squared with p degrees of freedom (multivariate normal)."""

    p: int
    family: ClassVar[str] = "normal"

    def __post_init__(self):
        _check_dim(self.p)

    def sample_squared(self, rng, size=None):
        return rng.chisquare(self.p, size)


@dataclass(frozen=True)
class KotzHalf(XiLaw):
    """xi^2 = w^2 / (p + 1) with w ~ Gamma(p, 1).

    The Gamma draw uses numpy's rejection sampler (valid for shape >= 1,
    and shape = p >= 1 here).
    """

    p: int
    family: ClassVar[str] = "kotz"

    def __post_init__(self):
        _check_dim(self.p)

    def sample_squared(self, rng, size=None):
        w = rng.gamma(self.p, 1.0, size)
        return w * w / (self.p + 1)


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


@dataclass(frozen=True)
class ExpChiProduct(XiLaw):
    """xi^2 = R1 * R2 with R1 ~ Exp(1) and R2 ~ chi-squared p
    (multivariate Laplace)."""

    p: int
    family: ClassVar[str] = "laplace"

    def __post_init__(self):
        _check_dim(self.p)

    def sample_squared(self, rng, size=None):
        return rng.exponential(1.0, size) * rng.chisquare(self.p, size)


FAMILY_NAMES = ("normal", "kotz", "t", "laplace")

_FAMILY_FACTORIES = {
    "normal": ChiSquared,
    "kotz": KotzHalf,
    "t": ScaledF,
    "laplace": ExpChiProduct,
}


def make_law(family: str, p: int, d: int = 9) -> XiLaw:
    """Build the squared-radius law for a named family at dimension p."""
    try:
        factory = _FAMILY_FACTORIES[family]
    except KeyError:
        raise InvalidParameterError(
            f"unknown family {family!r}; expected one of {FAMILY_NAMES}"
        ) from None
    if factory is ScaledF:
        return ScaledF(p=p, d=d)
    return factory(p=p)


def true_theta(law: XiLaw) -> float:
    """Population kurtosis E xi^4 / (p (p + 2)) of a squared-radius law."""
    if isinstance(law, ChiSquared):
        return 1.0
    if isinstance(law, KotzHalf):
        return (law.p + 3) / (law.p + 1)
    if isinstance(law, ScaledF):
        return (law.d - 2) / (law.d - 4)
    if isinstance(law, ExpChiProduct):
        return 2.0
    theta = getattr(law, "theta", None)
    if callable(theta):
        return float(theta())
    raise InvalidParameterError(f"no kurtosis known for law {law!r}")


@dataclass(frozen=True, eq=False)
class EllipticalSpec:
    """Generative description of an elliptical model.

    Holds the location, the covariance object ``sigma`` and the
    squared-radius law. Sampling goes through ``sigma.apply_root``. Build
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


def sample_sphere(p: int, rng: np.random.Generator, size: int | None = None):
    """Uniform draws from the unit sphere in R^p.

    A standard Gaussian vector is normalized, which is rotation invariant
    by construction. The measure-zero event of an exactly zero Gaussian
    draw is handled by redrawing. Returns shape (p,) for ``size=None``,
    else (size, p).
    """
    _check_dim(p)
    m = 1 if size is None else int(size)
    Z = rng.normal(size=(m, p))
    norms = np.linalg.norm(Z, axis=1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        Z[bad] = rng.normal(size=(int(bad.sum()), p))
        norms = np.linalg.norm(Z, axis=1)
    U = Z / norms[:, None]
    return U[0] if size is None else U


def sample_xi(law: XiLaw, rng: np.random.Generator, size: int | None = None):
    """Draw the nonnegative radius xi (square root of the law's xi^2)."""
    return np.sqrt(law.sample_squared(rng, size))


def sample_data(spec: EllipticalSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, p) data matrix of independent rows from the model.

    Draw order is fixed for reproducibility: all n radii first, then the
    n sphere directions.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameterError(f"n must be a positive integer, got {n!r}")
    xi = sample_xi(spec.xi, rng, n)
    U = sample_sphere(spec.p, rng, n)
    return spec.mu + np.asarray(xi)[:, None] * spec.sigma.apply_root(U)
