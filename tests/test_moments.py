import itertools
import math
import zlib

import numpy as np
import pytest
import scipy.stats

from ellipkurt import (
    ChiSquared,
    ExpChiProduct,
    InvalidParameterError,
    KotzHalf,
    MomentDoesNotExistError,
    ScaledF,
    chi2_moment,
    eta,
    sample_sphere,
    sphere_moment_1,
    sphere_moment_2,
    sphere_moment_3,
    sphere_moment_4,
    toeplitz_ar1,
    var_centered_sq,
    var_quadform,
    validation,
)

ALL_LAWS = [
    ChiSquared(p=40),
    KotzHalf(p=40),
    ScaledF(p=40, d=9),
    ExpChiProduct(p=40),
]


def random_symmetric(p, rng):
    A = rng.normal(size=(p, p))
    return 0.5 * (A + A.T)


def test_sphere_moments_identity_are_one():
    for p in range(1, 65):
        I = np.eye(p)
        assert sphere_moment_1(I) == pytest.approx(1.0, rel=1e-12)
        assert sphere_moment_2(I, I) == pytest.approx(1.0, rel=1e-12)
        assert sphere_moment_3(I, I, I) == pytest.approx(1.0, rel=1e-12)
        assert sphere_moment_4(I) == pytest.approx(1.0, rel=1e-12)


def test_sphere_moment_1_values():
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    assert sphere_moment_1(e11) == 0.5
    assert sphere_moment_1(toeplitz_ar1(10, 0.5)) == pytest.approx(1.0)


def test_sphere_moment_2_projector():
    # E u1^4 = 3 / (p (p + 2)) for p = 2.
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    assert sphere_moment_2(e11, e11) == pytest.approx(3.0 / 8.0, rel=1e-14)


def test_sphere_moment_3_projector():
    # E u1^6 = 15 / (p (p + 2) (p + 4)) for p = 2.
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    assert sphere_moment_3(e11, e11, e11) == pytest.approx(15.0 / 48.0, rel=1e-14)


def test_sphere_moment_4_projector():
    # E u1^8 = 105 / (p (p + 2) (p + 4) (p + 6)) for p = 2.
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    assert sphere_moment_4(e11) == pytest.approx(105.0 / 384.0, rel=1e-14)


def test_sphere_moment_symmetry():
    rng = np.random.default_rng(0)
    A, B, C = (random_symmetric(5, rng) for _ in range(3))
    assert sphere_moment_2(A, B) == pytest.approx(sphere_moment_2(B, A), rel=1e-12)
    vals = {
        sphere_moment_3(*perm)
        for perm in itertools.permutations((A, B, C))
    }
    assert max(vals) - min(vals) <= 1e-12 * max(abs(v) for v in vals)


def test_sphere_moment_dimension_mismatch():
    with pytest.raises(InvalidParameterError):
        sphere_moment_2(np.eye(2), np.eye(3))
    with pytest.raises(InvalidParameterError):
        sphere_moment_3(np.eye(2), np.eye(2), np.eye(3))


def test_sphere_moments_monte_carlo():
    checks = validation.sphere_moments(np.random.default_rng(123), draws=200_000)
    assert all(c.ok for c in checks), checks


def test_xi_moment_chi2():
    assert ChiSquared(p=10).moment(2) == 120.0
    assert ChiSquared(p=10).moment(1) == 10.0
    assert chi2_moment(10, 3) == 10 * 12 * 14


def test_xi_moment_kotz():
    got = KotzHalf(p=100).moment(2)
    assert got == pytest.approx(100 * 101 * 102 * 103 / 101**2, rel=1e-14)
    theta = got / (100 * 102)
    assert theta == pytest.approx(103 / 101, rel=1e-14)


def test_xi_moment_scaled_f_theta():
    law = ScaledF(p=100, d=9)
    theta = law.moment(2) / (100 * 102)
    assert theta == pytest.approx(1.4, rel=1e-12)


def test_xi_moment_exp_chi_product():
    law = ExpChiProduct(p=10)
    assert law.moment(2) == pytest.approx(2.0 * 120.0, rel=1e-14)
    assert law.moment(3) == pytest.approx(6.0 * 10 * 12 * 14, rel=1e-14)


def test_xi_moment_nonexistent():
    law = ScaledF(p=10, d=9)
    # d = 9 supports orders up to 4 (2m < d); all should be finite.
    for m in (1, 2, 3, 4):
        assert math.isfinite(law.moment(m))
    # Constructing d <= 8 is rejected up front, so exercise the moment
    # bound through the order check instead.
    with pytest.raises(InvalidParameterError):
        law.moment(5)


def test_xi_moment_order_validation():
    with pytest.raises(InvalidParameterError):
        ChiSquared(p=5).moment(0)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.family)
def test_eta1_is_one(law):
    assert eta(law, 1) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.family)
def test_eta2_is_theta(law):
    assert eta(law, 2) == pytest.approx(law.theta(), rel=1e-12)


@pytest.mark.parametrize(
    "law",
    [*ALL_LAWS, pytest.param(ScaledF(p=40, d=17), id="t-d17")],
    ids=lambda l: l.family,
)
def test_xi_moments_match_monte_carlo(law):
    # The 4-SE band needs the sample mean of xi^{2m} to have finite
    # variance, i.e. E xi^{4m} < inf, which ScaledF lacks when d <= 4m.
    # Those orders are checked against scipy's F-distribution moments.
    rng = np.random.default_rng(zlib.crc32(law.family.encode()))
    draws = law.sample_squared(rng, 400_000)
    for m in (1, 2, 3, 4):
        if isinstance(law, ScaledF) and law.d <= 4 * m:
            scale = law.p * (law.d - 2) / law.d
            ref = scale**m * scipy.stats.f(law.p, law.d).moment(m)
            assert law.moment(m) == pytest.approx(ref, rel=1e-10)
            continue
        vals = draws**m
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - law.moment(m)) <= 4 * se


def test_var_quadform_identity_normal():
    assert var_quadform(np.eye(10), ChiSquared(p=10)) == pytest.approx(20.0)


def test_var_quadform_identity_laplace():
    assert var_quadform(np.eye(10), ExpChiProduct(p=10)) == pytest.approx(140.0)


def test_var_quadform_monte_carlo():
    p = 30
    sigma = toeplitz_ar1(p, 0.5)
    rng = np.random.default_rng(9)
    draws = 100_000
    law = ChiSquared(p=p)
    U = sample_sphere(p, rng, draws)
    q = law.sample_squared(rng, draws) * np.einsum("ij,ij->i", U @ sigma, U)
    mc = np.var(q)
    assert abs(mc - var_quadform(sigma, law)) <= 0.05 * var_quadform(sigma, law)


def test_var_centered_sq_centers_coincide_for_theta_one():
    sigma = toeplitz_ar1(12, 0.5)
    law = ChiSquared(p=12)
    a = var_centered_sq(sigma, law, center="trace")
    b = var_centered_sq(sigma, law, center="theta_trace")
    assert a == pytest.approx(b, rel=1e-12)


def test_var_centered_sq_monte_carlo_normal():
    p = 20
    sigma = toeplitz_ar1(p, 0.5)
    law = ChiSquared(p=p)
    rng = np.random.default_rng(31)
    draws = 200_000
    U = sample_sphere(p, rng, draws)
    q = law.sample_squared(rng, draws) * np.einsum("ij,ij->i", U @ sigma, U)
    sq = (q - np.trace(sigma)) ** 2
    mc = np.var(sq)
    centered = (sq - sq.mean()) ** 2
    se = math.sqrt(np.mean((centered - centered.mean()) ** 2) / draws)
    assert abs(mc - var_centered_sq(sigma, law, center="trace")) <= 4 * se


def test_var_centered_sq_monte_carlo_laplace_theta_center():
    p = 20
    sigma = toeplitz_ar1(p, 0.5)
    law = ExpChiProduct(p=p)
    rng = np.random.default_rng(32)
    draws = 600_000
    U = sample_sphere(p, rng, draws)
    q = law.sample_squared(rng, draws) * np.einsum("ij,ij->i", U @ sigma, U)
    sq = (q - 2.0 * np.trace(sigma)) ** 2
    mc = np.var(sq)
    centered = (sq - sq.mean()) ** 2
    se = math.sqrt(np.mean((centered - centered.mean()) ** 2) / draws)
    assert abs(mc - var_centered_sq(sigma, law, center="theta_trace")) <= 4 * se


def test_var_centered_sq_invalid_center():
    with pytest.raises(InvalidParameterError):
        var_centered_sq(np.eye(3), ChiSquared(p=3), center="mean")


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.family)
def test_variances_nonnegative(law):
    sigma = toeplitz_ar1(law.p, 0.5)
    assert var_quadform(sigma, law) >= 0.0
    assert var_centered_sq(sigma, law, center="trace") >= 0.0
    assert var_centered_sq(sigma, law, center="theta_trace") >= 0.0
