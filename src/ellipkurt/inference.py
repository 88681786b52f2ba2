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
  ratio estimates from the sample (see :func:`plugin_moments_case2`). They
  read the same centered Gram summary as the estimate itself, so a caller
  builds it once per sample (:func:`ellipkurt.linalg.centered_gram`) and
  passes it to both.

The normal quantile z comes from :class:`statistics.NormalDist`, so this
module, and with it ``estimate``, imports no scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientSampleError,
    InvalidDofError,
    InvalidParameterError,
    UndefinedDofError,
)
from .linalg import centered_gram, exact_sum, require_finite, require_normal, trace_powers
from .moments import sphere_quartic
from .ustat import KurtosisEstimate


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
    """Sample-based sixth/eighth-moment ratio estimates: ``varrho_hat``
    estimates E xi^6 and ``varphi_hat`` estimates E xi^8."""

    varrho_hat: float
    varphi_hat: float


_STANDARD_NORMAL = NormalDist()


def z_quantile(alpha: float) -> float:
    """Upper alpha/2 standard-normal quantile used by all intervals: the
    inverse normal CDF at 1 - alpha/2, from the standard library.

    Raises :class:`InvalidParameterError` unless alpha is a real number in
    (0, 1) for which 1 - alpha/2 is below 1.0 in double precision; below
    about 1.1e-16 it rounds to 1.0, whose quantile is infinite.
    """
    if not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0):
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha!r}")
    level = 1.0 - alpha / 2.0
    if level == 1.0:
        raise InvalidParameterError(
            f"alpha {alpha!r} is too small: 1 - alpha/2 rounds to 1 and z would be infinite"
        )
    return _STANDARD_NORMAL.inv_cdf(level)


def delta_hat(theta_hat: float, p: int) -> float:
    """Fourth-moment excess plug-in (p + 2)(theta_hat - 1)."""
    return (p + 2) * (theta_hat - 1.0)


def tau_hat(theta_hat: float, p: int) -> float:
    """Light-tail scale plug-in (p + 2) theta_hat - p."""
    return (p + 2) * theta_hat - p


def dof_hat(theta_hat: float) -> float:
    """Degrees-of-freedom plug-in (4 theta_hat - 2) / (theta_hat - 1).

    Undefined for theta_hat <= 1 and for NaN. Values at or below 8 are
    returned but are unusable in the heavy-tail interval formula, which
    rejects them.
    """
    if not theta_hat > 1.0:
        raise UndefinedDofError(
            f"degrees of freedom undefined for theta_hat <= 1 (got {theta_hat})"
        )
    return (4.0 * theta_hat - 2.0) / (theta_hat - 1.0)


def sigma2_case1(tau_hat: float, ratio_hat: float, p: int) -> float:
    """Light-tail asymptotic variance 2 ((tau_hat - 2)/p + 2 ratio_hat)^2,
    where ratio_hat estimates tr sigma^2 / tr^2 sigma (use t3 / t2)."""
    s = (tau_hat - 2.0) / p + 2.0 * ratio_hat
    return 2.0 * s * s


def plugin_moments_case2(X) -> PlugInMoments:
    """The sixth- and eighth-moment ratio estimates of centered data, as a
    :class:`PlugInMoments` (``varrho_hat``, ``varphi_hat``).

    Implements the ratio estimators

        varrho_hat = p(p+2)(p+4)   m3 / (T^3 + 6 T T2 + 8 T3)
        varphi_hat = p(p+2)(p+4)(p+6) m4 / (T^4 + 12 T^2 T2 + 12 T2^2
                                             + 32 T T3 + 48 T4)

    where m_k is the k-th power sum (1/n) sum_i ||X_i - Xbar||^{2k} and
    T, T2, T3, T4 are the first four trace powers of the sample covariance
    (divisor n - 1). ``X`` is the data matrix or its centered Gram summary
    (:func:`ellipkurt.linalg.centered_gram`); the trace powers come from its
    smaller Gram matrix, so the cost is O(n p min(n, p) + min(n, p)^3), of
    which the summary is the first term. The denominator of varphi_hat is
    :func:`ellipkurt.moments.sphere_quartic`, the numerator of the
    population moment :func:`ellipkurt.moments.sphere_moment_4`.
    """
    cg = centered_gram(X)
    n, p = cg.n, cg.p
    if n < 2:
        raise InsufficientSampleError(f"need at least 2 observations for sample moments, got {n}")
    # Relative to the data's own scale (offset included), never absolute.
    if cg.T <= 1e-12 * cg.x_max * cg.x_max:
        raise DegenerateDataError("sample covariance is numerically zero")
    # Trace powers of the sample covariance, scaled by (n - 1)^-k: tr M and
    # tr M^2 are the summary's exact sums T and W, the same values the
    # U-statistics and the WL plug-in read.
    _, _, tr3, tr4 = trace_powers(cg.M)
    c = float(n - 1)
    t1, t2, t3, t4 = cg.T / c, cg.W / c**2, tr3 / c**3, tr4 / c**4
    # An overflow shows as inf and raises through exact_sum.
    with np.errstate(over="ignore", invalid="ignore"):
        m3 = exact_sum(cg.g**3) / n
        m4 = exact_sum(cg.g**4) / n
    # Products, not float **, so an overflow gives inf instead of raising.
    den3 = t1 * t1 * t1 + 6.0 * t1 * t2 + 8.0 * t3
    den4 = sphere_quartic(t1, t2, t3, t4)
    require_finite(den3, den4)
    require_normal(m3, m4, den3, den4)
    varrho = p * (p + 2) * (p + 4) * m3 / den3
    varphi = p * (p + 2) * (p + 4) * (p + 6) * m4 / den4
    require_finite(varrho, varphi)
    return PlugInMoments(varrho_hat=varrho, varphi_hat=varphi)


def sigma2_case2(theta_hat: float, pm: PlugInMoments, p: int) -> float:
    """Heavy-tail asymptotic variance from plug-in moment ratios.

    varphi/p^4 - A^2 - 4 (varrho/p^3) A + 4 A^3 with A = (p + 2) theta_hat / p.
    A negative plug-in value is a finite-sample artifact near the Gaussian
    boundary; it is clamped to 0.0, so simulation sweeps degenerate to a
    point interval instead of aborting. The clamp is reported as data, not
    as a warning: the interval's ``sigma_hat`` is 0.
    """
    A = (p + 2) * theta_hat / p
    out = pm.varphi_hat / p**4 - A * A - 4.0 * (pm.varrho_hat / p**3) * A + 4.0 * A**3
    return max(out, 0.0)


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
    returned interval always satisfies lower <= theta_hat <= upper. An
    unknown ``method`` or an ``alpha`` outside (0, 1) raises
    :class:`InvalidParameterError`.
    """
    try:
        method = CiMethod(method)
    except ValueError:
        raise InvalidParameterError(
            f"unknown CI method {method!r}; expected one of {[m.value for m in CiMethod]}"
        ) from None
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
