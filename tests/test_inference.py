import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipkurt import (
    ChiSquared,
    CiMethod,
    DegenerateDataError,
    EllipticalSpec,
    ExpChiProduct,
    ExperimentConfig,
    InvalidDofError,
    InvalidParameterError,
    PlugInMoments,
    UndefinedDofError,
    UStats,
    confidence_interval,
    delta_hat,
    dof_hat,
    plugin_moments_case2,
    sample_data,
    sigma2_case1,
    sigma2_case2,
    tau_hat,
    theta_hat,
    toeplitz_ar1,
    ustats_fast,
    z_quantile,
)


def make_estimate(theta=1.0, t3_over_t2=1.0 / 60.0, n=100, p=100):
    # Reverse-engineer consistent statistics: theta = (t1 + t2 - 2 t3) / (t2 + 2 t3).
    t2 = 1.0
    t3 = t3_over_t2 * t2
    t1 = theta * (t2 + 2 * t3) - t2 + 2 * t3
    return theta_hat(UStats(t1=t1, t2=t2, t3=t3, n=n, p=p))


def test_z_quantile():
    assert z_quantile(0.05) == pytest.approx(1.959963985, abs=1e-8)
    assert z_quantile(0.10) == pytest.approx(1.644853627, abs=1e-8)
    est = make_estimate()
    for alpha in (0.0, 1.0, "0.1", None):
        with pytest.raises(InvalidParameterError, match="alpha"):
            z_quantile(alpha)
        with pytest.raises(InvalidParameterError, match="alpha"):
            confidence_interval(est, "laplace", alpha)
    for method in ("bogus", None):
        with pytest.raises(InvalidParameterError, match="unknown CI method"):
            confidence_interval(est, method)


@pytest.mark.parametrize("alpha", [1e-17, 1e-300, 5e-324])
def test_alpha_whose_level_rounds_to_one_is_rejected(alpha):
    # 1 - alpha/2 rounds to 1.0, whose quantile is infinite: a typed error,
    # never an interval [-inf, inf].
    assert 1.0 - alpha / 2.0 == 1.0
    with pytest.raises(InvalidParameterError, match="alpha"):
        z_quantile(alpha)
    with pytest.raises(InvalidParameterError, match="alpha"):
        confidence_interval(make_estimate(), "case1", alpha)
    with pytest.raises(InvalidParameterError, match="alpha"):
        ExperimentConfig(family="normal", p_list=(10,), alpha=alpha)


def test_z_quantile_matches_scipy_ndtri():
    # The standard library's inverse CDF against scipy's ndtri, over alphas
    # from the smallest accepted decades to nearly 1.
    from scipy.special import ndtri

    alphas = np.concatenate([np.geomspace(1e-15, 0.999, 2000), np.linspace(0.001, 0.999, 999)])
    for alpha in alphas.tolist():
        assert z_quantile(alpha) == pytest.approx(float(ndtri(1.0 - alpha / 2.0)), rel=2e-15, abs=0.0)
    # The smallest alpha whose level is below 1 still gives a finite z.
    assert math.isfinite(z_quantile(2.3e-16))


def test_delta_hat():
    assert delta_hat(1.0, 50) == 0.0
    assert delta_hat(1.02, 100) == pytest.approx(2.04, rel=1e-12)
    # Gamma-radius family value at p = 100: theta = 103/101.
    assert delta_hat(103 / 101, 100) == pytest.approx(102 * 2 / 101, rel=1e-12)


def test_tau_hat():
    assert tau_hat(1.0, 77) == 2.0
    assert tau_hat(1.02, 100) == pytest.approx(4.04, rel=1e-12)
    # Gamma-radius family: tau approaches 4 from below as p grows.
    assert tau_hat(103 / 101, 100) == pytest.approx(4.0, abs=0.05)
    assert tau_hat((10_000 + 3) / (10_000 + 1), 10_000) == pytest.approx(4.0, abs=1e-3)


def test_dof_hat():
    assert dof_hat(1.4) == pytest.approx(9.0, rel=1e-12)
    assert dof_hat(1.25) == pytest.approx(12.0, rel=1e-12)
    with pytest.raises(UndefinedDofError):
        dof_hat(1.0)
    with pytest.raises(UndefinedDofError):
        dof_hat(0.9)


def test_sigma2_case1_normal_case():
    # tau = 2 kills the first term: sigma^2 = 8 ratio^2.
    ratio = (5 / 3) / 100
    s2 = sigma2_case1(2.0, ratio, 100)
    assert s2 == pytest.approx(8 * ratio**2, rel=1e-12)
    assert math.sqrt(s2) == pytest.approx(0.04714, abs=5e-6)
    # Full width of the 95% interval at n = 100.
    width = 2 * math.sqrt(s2) / 10 * z_quantile(0.05)
    assert width == pytest.approx(0.01848, abs=2e-5)


@given(
    tau=st.floats(-10, 50),
    ratio=st.floats(0, 1),
    p=st.integers(1, 2000),
)
@settings(max_examples=100, deadline=None)
def test_sigma2_case1_nonnegative(tau, ratio, p):
    assert sigma2_case1(tau, ratio, p) >= 0.0


def test_sigma2_case2_laplace_population_values():
    # Substituting the exact sixth/eighth moments of the exponential-mixture
    # family gives 4 + O(1/p).
    p = 100
    law = ExpChiProduct(p=p)
    pm = PlugInMoments(
        varrho_hat=law.moment(3),
        varphi_hat=law.moment(4),
    )
    s2 = sigma2_case2(2.0, pm, p)
    assert s2 == pytest.approx(4.847, abs=1e-3)
    p = 4000
    law = ExpChiProduct(p=p)
    pm = PlugInMoments(varrho_hat=law.moment(3), varphi_hat=law.moment(4))
    assert sigma2_case2(2.0, pm, p) == pytest.approx(4.0, abs=0.03)


def test_sigma2_case2_normal_population_values():
    p = 100
    law = ChiSquared(p=p)
    pm = PlugInMoments(varrho_hat=law.moment(3), varphi_hat=law.moment(4))
    s2 = sigma2_case2(1.0, pm, p)
    assert 0.0 <= s2 < 0.1


def test_sigma2_case2_clamps_negative():
    # An inflated sixth-moment ratio with a zeroed eighth moment drives the
    # plug-in below zero. The clamp is silent and shows as sigma_hat == 0.
    pm = PlugInMoments(varrho_hat=10.0 * 100**3, varphi_hat=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s2 = sigma2_case2(1.0, pm, 100)
        ci = confidence_interval(make_estimate(theta=1.0), "case2", plugin=pm)
    assert s2 == 0.0
    assert ci.sigma_hat == 0.0 and ci.width == 0.0


def sample_normal_data(n, p, seed):
    spec = EllipticalSpec.create(np.zeros(p), toeplitz_ar1(p, 0.5), ChiSquared(p=p))
    return sample_data(spec, n, np.random.default_rng(seed))


def test_plugin_moments_normal():
    X = sample_normal_data(100, 50, seed=50)
    pm = plugin_moments_case2(X)
    p = 50
    expected6 = ChiSquared(p=p).moment(3) / p**3
    assert abs(pm.varrho_hat / p**3 - expected6) <= 0.15 * expected6


def test_plugin_moments_laplace():
    p = 50
    spec = EllipticalSpec.create(
        np.zeros(p), toeplitz_ar1(p, 0.5), ExpChiProduct(p=p)
    )
    X = sample_data(spec, 200, np.random.default_rng(51))
    pm = plugin_moments_case2(X)
    expected8 = ExpChiProduct(p=p).moment(4) / p**4
    assert abs(pm.varphi_hat / p**4 - expected8) <= 0.25 * expected8


def test_plugin_moments_degenerate():
    X = np.tile(np.array([1.0, 2.0, 3.0]), (10, 1))
    with pytest.raises(DegenerateDataError):
        plugin_moments_case2(X)


def test_plugin_moments_location_invariance():
    X = sample_normal_data(60, 20, seed=52)
    pm1 = plugin_moments_case2(X)
    pm2 = plugin_moments_case2(X + np.full(20, 1e3))
    assert abs(pm1.varrho_hat - pm2.varrho_hat) <= 1e-8 * abs(pm1.varrho_hat)
    assert abs(pm1.varphi_hat - pm2.varphi_hat) <= 1e-8 * abs(pm1.varphi_hat)


@pytest.mark.parametrize("n, p", [(40, 6), (12, 12), (10, 45)])
def test_plugin_moments_match_covariance_reference(n, p):
    # Both sides of the Gram choice against the p x p sample covariance.
    rng = np.random.default_rng(n * p)
    X = rng.standard_t(9, size=(n, p)) + 3.0
    S = np.cov(X, rowvar=False)
    T1, T2, T3, T4 = (np.trace(np.linalg.matrix_power(S, k)) for k in (1, 2, 3, 4))
    g = ((X - X.mean(axis=0)) ** 2).sum(axis=1)
    den3 = T1**3 + 6 * T1 * T2 + 8 * T3
    den4 = T1**4 + 12 * T1**2 * T2 + 12 * T2**2 + 32 * T1 * T3 + 48 * T4
    pm = plugin_moments_case2(X)
    assert pm.varrho_hat == pytest.approx(p * (p + 2) * (p + 4) * np.mean(g**3) / den3, rel=1e-10)
    assert pm.varphi_hat == pytest.approx(
        p * (p + 2) * (p + 4) * (p + 6) * np.mean(g**4) / den4, rel=1e-10
    )


def test_interval_laplace_width():
    est = make_estimate(theta=2.0, n=100, p=100)
    ci = confidence_interval(est, "laplace", alpha=0.05)
    assert ci.width == pytest.approx(2 * 2 * 1.959963985 / 10, abs=1e-6)
    assert ci.width == pytest.approx(0.784, abs=1e-3)
    assert ci.sigma_hat == 2.0


def test_interval_example1_shape():
    est = make_estimate(theta=1.0, t3_over_t2=(5 / 3) / 400, n=100, p=400)
    ci = confidence_interval(est, "example1", alpha=0.05)
    # theta = 1 kills the delta term; width = 2 sqrt(2/n) * 2 t3/t2 * z.
    expected = 2 * math.sqrt(2 / 100) * 2 * (5 / 3) / 400 * z_quantile(0.05)
    assert ci.width == pytest.approx(expected, rel=1e-12)
    assert ci.width == pytest.approx(0.0046, abs=5e-4)


def test_interval_kotz_width():
    est = make_estimate(theta=103 / 101, t3_over_t2=(5 / 3) / 100, n=100, p=100)
    ci = confidence_interval(est, "kotz", alpha=0.05)
    expected = 2 * math.sqrt(8 / 100) * (1 / 100 + (5 / 3) / 100) * z_quantile(0.05)
    assert ci.width == pytest.approx(expected, rel=1e-12)
    assert ci.width == pytest.approx(0.0296, abs=5e-4)


def test_interval_student_t():
    est = make_estimate(theta=1.4, n=100, p=100)
    ci = confidence_interval(est, "t", alpha=0.05)
    d = 9.0
    sigma = math.sqrt(8 * (d - 2) ** 2 * (d + 4) / ((d - 4) ** 3 * (d - 6) * (d - 8)))
    assert ci.sigma_hat == pytest.approx(sigma, rel=1e-12)
    assert ci.width == pytest.approx(2 * sigma / 10 * z_quantile(0.05), rel=1e-12)


def test_interval_student_t_invalid_dof():
    # theta >= 1.5 pushes the dof estimate to 8 or below.
    est = make_estimate(theta=1.6, n=100, p=100)
    with pytest.raises(InvalidDofError):
        confidence_interval(est, "t")
    est = make_estimate(theta=0.95, n=100, p=100)
    with pytest.raises(UndefinedDofError):
        confidence_interval(est, "t")


def test_interval_case1_equals_example1():
    rng = np.random.default_rng(60)
    for _ in range(20):
        theta = float(rng.uniform(0.8, 2.5))
        ratio = float(rng.uniform(0.0, 0.05))
        est = make_estimate(theta=theta, t3_over_t2=ratio, n=64, p=37)
        a = confidence_interval(est, "example1", alpha=0.05)
        b = confidence_interval(est, "case1", alpha=0.05)
        assert a.lower == pytest.approx(b.lower, abs=1e-12)
        assert a.upper == pytest.approx(b.upper, abs=1e-12)


def test_interval_case2():
    X = sample_normal_data(100, 50, seed=61)
    est = theta_hat(ustats_fast(X))
    pm = plugin_moments_case2(X)
    ci = confidence_interval(est, "case2", alpha=0.05, plugin=pm)
    assert ci.lower <= est.theta_hat <= ci.upper
    with pytest.raises(InvalidParameterError):
        confidence_interval(est, "case2", alpha=0.05)


def test_interval_invariants_all_methods():
    rng = np.random.default_rng(62)
    X = sample_normal_data(80, 30, seed=62)
    est = theta_hat(ustats_fast(X))
    pm = plugin_moments_case2(X)
    for method in CiMethod:
        try:
            ci = confidence_interval(est, method, alpha=0.05, plugin=pm)
        except (InvalidDofError, UndefinedDofError):
            continue
        assert ci.lower <= est.theta_hat <= ci.upper
        assert ci.width == pytest.approx(2 * ci.sigma_hat / math.sqrt(80) * z_quantile(0.05), rel=1e-12)


def test_interval_alpha_validation():
    est = make_estimate()
    with pytest.raises(InvalidParameterError):
        confidence_interval(est, "laplace", alpha=1.5)


def test_interval_well_formed_below_one():
    # A point estimate below 1 makes the light-tail slope negative; the
    # interval must still bracket the estimate.
    est = make_estimate(theta=0.8, t3_over_t2=1e-4, n=50, p=200)
    ci = confidence_interval(est, "example1", alpha=0.05)
    assert ci.lower <= est.theta_hat <= ci.upper
    assert ci.width >= 0.0
