"""Asymptotic-variance models and confidence intervals for the kurtosis
estimate.

Every interval has the form  theta_hat +- sigma_hat / sqrt(n) * z(alpha/2)
with a method-specific asymptotic scale sigma_hat:

* ``example1`` and ``case1``: one light-tail scale, sigma_hat^2 =
  2 ((tau_hat - 2)/p + 2 t3/t2)^2 with tau_hat = (p + 2) theta_hat - p.
  ``example1`` reads it for families whose squared radius is a sum of p
  i.i.d. squared variables with fourth-moment excess
  Delta = (p + 2)(theta - 1) = tau - 2; ``case1`` is the generic
  light-tail plug-in. Both spellings give the same interval.
* ``kotz``    : the Gamma-radius family, where the light-tail scale
  constant is 4; sigma_hat = sqrt(8) (1/p + t3/t2).
* ``t``       : heavy-tail F-radius family with degrees of freedom
  estimated as d_n = (4 theta_hat - 2) / (theta_hat - 1); requires
  d_n > 8.
* ``laplace`` : exponential-mixture family; the limit distribution has
  variance 4, so sigma_hat = 2.
* ``case2``   : generic heavy-tail plug-in using sixth- and eighth-moment
  ratio estimates from the sample (see :func:`plugin_moments_case2`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtri

from .errors import (
    DegenerateDataError,
    InsufficientSampleError,
    InvalidDofError,
    InvalidParameterError,
    UndefinedDofError,
)
from .linalg import centered_gram, exact_sum, require_finite, require_normal, trace_powers
from .ustat import KurtosisEstimate

__all__ = [
    "CiMethod",
    "ConfidenceInterval",
    "PlugInMoments",
    "z_quantile",
    "delta_hat",
    "tau_hat",
    "dof_hat",
    "sigma2_case1",
    "plugin_moments_case2",
    "sigma2_case2",
    "confidence_interval",
]


class CiMethod(str, Enum):
    """Confidence-interval variants; values double as the CLI spellings."""

    EXAMPLE1 = "example1"
    KOTZ = "kotz"
    STUDENT_T = "t"
    LAPLACE = "laplace"
    CASE1 = "case1"
    CASE2 = "case2"


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval theta_hat +- sigma_hat / sqrt(n) * z."""

    lower: float
    upper: float
    level: float
    method: CiMethod
    sigma_hat: float
    theta_hat: float

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def covers(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class PlugInMoments:
    """Sample-based sixth/eighth-moment ratio estimates.

    ``varrho_hat`` estimates E xi^6 and ``varphi_hat`` estimates E xi^8.
    The optional fields carry the kurtosis-derived plug-ins when a point
    estimate was supplied: tau_hat, delta_hat and the degrees of freedom
    d_n (None when theta_hat <= 1, where d_n is undefined).
    """

    varrho_hat: float
    varphi_hat: float
    tau_hat: float | None = None
    delta_hat: float | None = None
    d_n: float | None = None


def z_quantile(alpha: float) -> float:
    """Upper alpha/2 standard-normal quantile used by all intervals."""
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha}")
    return float(ndtri(1.0 - alpha / 2.0))


def delta_hat(theta_hat: float, p: int) -> float:
    """Fourth-moment excess plug-in (p + 2)(theta_hat - 1)."""
    return (p + 2) * (theta_hat - 1.0)


def tau_hat(theta_hat: float, p: int) -> float:
    """Light-tail scale plug-in (p + 2) theta_hat - p."""
    return (p + 2) * theta_hat - p


def dof_hat(theta_hat: float) -> float:
    """Degrees-of-freedom plug-in (4 theta_hat - 2) / (theta_hat - 1).

    Undefined for theta_hat <= 1. Values at or below 8 are returned but
    are unusable in the heavy-tail interval formula, which rejects them.
    """
    if theta_hat <= 1.0:
        raise UndefinedDofError(
            f"degrees of freedom undefined for theta_hat <= 1 (got {theta_hat})"
        )
    return (4.0 * theta_hat - 2.0) / (theta_hat - 1.0)


def sigma2_case1(tau_hat: float, ratio_hat: float, p: int) -> float:
    """Light-tail asymptotic variance 2 ((tau_hat - 2)/p + 2 ratio_hat)^2,
    where ratio_hat estimates tr sigma^2 / tr^2 sigma (use t3 / t2)."""
    s = (tau_hat - 2.0) / p + 2.0 * ratio_hat
    return 2.0 * s * s


def plugin_moments_case2(X, theta_hat: float | None = None) -> PlugInMoments:
    """Sixth- and eighth-moment ratio estimates from centered data.

    Implements the ratio estimators

        varrho_hat = p(p+2)(p+4)   m3 / (T^3 + 6 T T2 + 8 T3)
        varphi_hat = p(p+2)(p+4)(p+6) m4 / (T^4 + 12 T^2 T2 + 12 T2^2
                                             + 32 T T3 + 48 T4)

    where m_k is the k-th power sum (1/n) sum_i ||X_i - Xbar||^{2k} and
    T, T2, T3, T4 are the first four trace powers of the sample covariance
    (divisor n - 1). Trace powers come from the smaller Gram matrix of the
    centered data (see :func:`ellipkurt.linalg.centered_gram`), so the cost
    is O(n p min(n, p) + min(n, p)^3).

    When ``theta_hat`` is given the kurtosis-derived plug-ins (tau, delta,
    degrees of freedom) are filled in as well.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InsufficientSampleError(
            f"need at least 2 observations for sample moments, got shape {X.shape}"
        )
    n, p = X.shape
    cg = centered_gram(X)
    tp = trace_powers(cg.M)
    x_max = float(np.max(np.abs(X)))
    # Relative to the data's own scale (offset included), never absolute.
    if tp.t1 <= 1e-12 * x_max * x_max:
        raise DegenerateDataError("sample covariance is numerically zero")
    # Trace powers of the sample covariance, scaled by (n - 1)^-k.
    c = float(n - 1)
    t1, t2, t3, t4 = tp.t1 / c, tp.t2 / c**2, tp.t3 / c**3, tp.t4 / c**4
    # An overflow shows as inf and raises through exact_sum.
    with np.errstate(over="ignore", invalid="ignore"):
        m3 = exact_sum(cg.g**3) / n
        m4 = exact_sum(cg.g**4) / n
    # Products, not float **, so an overflow gives inf instead of raising.
    sq = t1 * t1
    den3 = sq * t1 + 6.0 * t1 * t2 + 8.0 * t3
    den4 = sq * sq + 12.0 * sq * t2 + 12.0 * t2 * t2 + 32.0 * t1 * t3 + 48.0 * t4
    require_finite(den3, den4)
    require_normal(m3, m4, den3, den4)
    varrho = p * (p + 2) * (p + 4) * m3 / den3
    varphi = p * (p + 2) * (p + 4) * (p + 6) * m4 / den4
    require_finite(varrho, varphi)
    if theta_hat is None:
        return PlugInMoments(varrho_hat=varrho, varphi_hat=varphi)
    d_n = dof_hat(theta_hat) if theta_hat > 1.0 else None
    return PlugInMoments(
        varrho_hat=varrho,
        varphi_hat=varphi,
        tau_hat=tau_hat(theta_hat, p),
        delta_hat=delta_hat(theta_hat, p),
        d_n=d_n,
    )


def sigma2_case2(theta_hat: float, pm: PlugInMoments, p: int) -> float:
    """Heavy-tail asymptotic variance from plug-in moment ratios.

    varphi/p^4 - A^2 - 4 (varrho/p^3) A + 4 A^3 with A = (p + 2) theta_hat / p.
    A negative plug-in value is a finite-sample artifact near the Gaussian
    boundary; it is clamped to zero with a warning so simulation sweeps
    degenerate to a point interval instead of aborting.
    """
    A = (p + 2) * theta_hat / p
    out = pm.varphi_hat / p**4 - A * A - 4.0 * (pm.varrho_hat / p**3) * A + 4.0 * A**3
    if out < 0.0:
        warnings.warn(
            "plug-in asymptotic variance came out negative; clamping to zero",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return out


def _half_width_scale(est: KurtosisEstimate, method: CiMethod, plugin) -> float:
    """sigma_hat such that the half width is sigma_hat / sqrt(n) * z."""
    th = est.theta_hat
    u = est.ustats
    p = u.p
    ratio = u.t3 / u.t2
    if method in (CiMethod.EXAMPLE1, CiMethod.CASE1):
        # Since tau_hat - 2 = delta_hat, the generic light-tail plug-in and
        # the i.i.d.-coordinate formula are one expression.
        return math.sqrt(sigma2_case1(tau_hat(th, p), ratio, p))
    if method is CiMethod.KOTZ:
        return math.sqrt(8.0) * abs(1.0 / p + ratio)
    if method is CiMethod.STUDENT_T:
        d = dof_hat(th)
        if d <= 8.0:
            raise InvalidDofError(
                f"estimated degrees of freedom {d:.3f} <= 8; heavy-tail interval undefined"
            )
        num = 8.0 * (d - 2.0) ** 2 * (d + 4.0)
        den = (d - 4.0) ** 3 * (d - 6.0) * (d - 8.0)
        return math.sqrt(num / den)
    if method is CiMethod.LAPLACE:
        return 2.0
    if method is CiMethod.CASE2:
        if plugin is None:
            raise InvalidParameterError("case2 interval requires plug-in moments")
        return math.sqrt(sigma2_case2(th, plugin, p))
    raise InvalidParameterError(f"unknown CI method {method!r}")


def confidence_interval(
    est: KurtosisEstimate,
    method: CiMethod | str,
    alpha: float = 0.05,
    *,
    plugin: PlugInMoments | None = None,
) -> ConfidenceInterval:
    """Two-sided (1 - alpha) confidence interval for the kurtosis.

    ``plugin`` is required for ``case2`` and ignored otherwise. The
    returned interval always satisfies lower <= theta_hat <= upper.
    """
    method = CiMethod(method)
    z = z_quantile(alpha)
    sigma = _half_width_scale(est, method, plugin)
    half = sigma / math.sqrt(est.ustats.n) * z
    return ConfidenceInterval(
        lower=est.theta_hat - half,
        upper=est.theta_hat + half,
        level=1.0 - alpha,
        method=method,
        sigma_hat=sigma,
        theta_hat=est.theta_hat,
    )
