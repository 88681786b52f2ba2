import math
from fractions import Fraction

import numpy as np
import pytest

from ellipkurt import (
    ChiSquared,
    EllipticalSpec,
    ExpChiProduct,
    InvalidParameterError,
    KotzHalf,
    ScaledF,
    XiLaw,
    make_law,
    sample_data,
    sample_sphere,
    sample_xi,
    sqrt_psd,
    toeplitz_ar1,
)
from ellipkurt.linalg import AR1

ALL_LAWS = [
    ChiSquared(p=50),
    KotzHalf(p=50),
    ScaledF(p=50, d=9),
    ExpChiProduct(p=50),
]


class ConstantZero:
    """Test stub: xi identically zero."""

    p = 10
    family = "zero_stub"

    def sample_squared(self, rng, size=None):
        return np.zeros(size if size is not None else ())


def test_sphere_p1_is_sign():
    rng = np.random.default_rng(0)
    draws = sample_sphere(1, rng, 200)
    assert set(np.unique(draws)) == {-1.0, 1.0}
    # both signs occur
    assert 0 < np.mean(draws == 1.0) < 1


def test_sphere_unit_norm():
    rng = np.random.default_rng(1)
    U = sample_sphere(3, rng, 1000)
    assert np.all(np.abs(np.linalg.norm(U, axis=1) - 1.0) <= 1e-12)
    u = sample_sphere(7, rng)
    assert u.shape == (7,)
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def test_sphere_coordinate_moments():
    rng = np.random.default_rng(2)
    U = sample_sphere(10, rng, 100_000)
    assert np.abs(U.mean(axis=0)).max() <= 0.02
    assert abs(np.mean(U[:, 0] ** 2) - 0.1) <= 0.01


class ZeroRowFirst:
    """Generator stub: the first block of normals has an all-zero row 1."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def standard_normal(self, size):
        self.calls.append(size)
        Z = self.rng.standard_normal(size)
        if len(self.calls) == 1:
            Z[1] = 0.0
        return Z

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_zero_normal_row_is_redrawn():
    # A row of exactly zero normals has no direction: the sphere and the
    # sampler redraw only that row.
    rng = ZeroRowFirst(4)
    U = sample_sphere(5, rng, 3)
    assert rng.calls == [(3, 5), (1, 5)]
    assert np.all(np.abs(np.linalg.norm(U, axis=1) - 1.0) <= 1e-12)
    spec = EllipticalSpec.create(np.zeros(5), AR1(5, 0.5), ChiSquared(p=5))
    rng = ZeroRowFirst(4)
    X = sample_data(spec, 3, rng)
    assert rng.calls == [(3, 5), (1, 5)]
    assert np.all(np.linalg.norm(X, axis=1) > 0.0)


def test_sphere_invalid_p():
    with pytest.raises(InvalidParameterError):
        sample_sphere(0, np.random.default_rng(0))


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.family)
def test_xi_squared_mean_is_p(law):
    rng = np.random.default_rng(10)
    draws = law.sample_squared(rng, 100_000)
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - law.p) <= 3 * se


def test_kotz_mean_within_one_percent():
    rng = np.random.default_rng(11)
    law = KotzHalf(p=50)
    draws = law.sample_squared(rng, 100_000)
    assert abs(draws.mean() - 50.0) <= 0.01 * 50.0


def test_scaled_f_mean_within_two_percent():
    rng = np.random.default_rng(12)
    law = ScaledF(p=100, d=9)
    draws = law.sample_squared(rng, 100_000)
    assert abs(draws.mean() / 100.0 - 1.0) <= 0.02


def test_exp_chi_product_fourth_moment():
    rng = np.random.default_rng(13)
    p = 20
    law = ExpChiProduct(p=p)
    draws = law.sample_squared(rng, 100_000)
    theta_mc = np.mean(draws**2) / (p * (p + 2))
    assert abs(theta_mc / 2.0 - 1.0) <= 0.05


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.family)
def test_fourth_moment_matches_true_theta(law):
    rng = np.random.default_rng(14)
    draws = law.sample_squared(rng, 300_000)
    vals = draws**2 / (law.p * (law.p + 2))
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - law.theta()) <= 4 * se


def test_sample_xi_nonnegative():
    rng = np.random.default_rng(15)
    for law in ALL_LAWS:
        assert np.all(sample_xi(law, rng, 1000) >= 0.0)


def test_true_theta_values():
    assert ChiSquared(p=123).theta() == 1.0
    assert ScaledF(p=100, d=9).theta() == pytest.approx(1.4)
    assert KotzHalf(p=100).theta() == pytest.approx(103 / 101)
    assert ExpChiProduct(p=7).theta() == 2.0


def test_bare_law_has_no_closed_forms():
    class Bare(XiLaw):
        p = 3

    with pytest.raises(InvalidParameterError, match="no kurtosis known"):
        Bare().theta()
    with pytest.raises(InvalidParameterError, match="no moment formula known"):
        Bare().moment(2)


def test_make_law():
    assert isinstance(make_law("normal", 5), ChiSquared)
    assert isinstance(make_law("kotz", 5), KotzHalf)
    assert make_law("t", 5).d == 9
    assert isinstance(make_law("laplace", 5), ExpChiProduct)
    with pytest.raises(InvalidParameterError):
        make_law("cauchy", 5)


def test_scaled_f_requires_d_above_8():
    with pytest.raises(InvalidParameterError):
        ScaledF(p=10, d=8)
    with pytest.raises(InvalidParameterError):
        ScaledF(p=10, d=7)


def test_spec_dimension_checks():
    with pytest.raises(InvalidParameterError):
        EllipticalSpec.create(np.zeros(3), np.eye(4), ChiSquared(p=4))
    with pytest.raises(InvalidParameterError):
        EllipticalSpec.create(np.zeros(4), np.eye(4), ChiSquared(p=5))


def test_spec_caches_valid_sqrt():
    sigma = toeplitz_ar1(6, 0.5)
    spec = EllipticalSpec.create(np.zeros(6), sigma, ChiSquared(p=6))
    root = spec.sigma.root
    err = np.linalg.norm(root @ root - sigma) / np.linalg.norm(sigma)
    assert err <= 1e-8


def test_sample_data_zero_radius_stub_returns_mu():
    mu = np.arange(10.0)
    spec = EllipticalSpec.create(mu, np.eye(10), ConstantZero())
    X = sample_data(spec, 5, np.random.default_rng(0))
    assert np.array_equal(X, np.tile(mu, (5, 1)))


def test_sample_data_mean_squared_norm():
    # E ||X - mu||^2 equals the trace of the covariance-scale matrix.
    p, n = 10, 1000
    spec = EllipticalSpec.create(np.ones(p), np.eye(p), ChiSquared(p=p))
    X = sample_data(spec, n, np.random.default_rng(21))
    s = np.sum((X - 1.0) ** 2, axis=1)
    assert abs(s.mean() - p) <= 0.02 * p


def test_sample_data_variance_of_squared_norm():
    # var ||X - mu||^2 = 2 theta tr S^2 + (theta - 1) tr^2 S; theta = 1 here.
    p, n = 20, 2000
    sigma = toeplitz_ar1(p, 0.5)
    spec = EllipticalSpec.create(np.zeros(p), sigma, ChiSquared(p=p))
    X = sample_data(spec, n, np.random.default_rng(22))
    s = np.sum(X**2, axis=1)
    expected = 2.0 * np.trace(sigma @ sigma)
    assert abs(np.var(s, ddof=1) - expected) <= 0.10 * expected


def test_sample_data_deterministic_given_seed():
    spec = EllipticalSpec.create(np.zeros(5), toeplitz_ar1(5, 0.5), KotzHalf(p=5))
    X1 = sample_data(spec, 50, np.random.default_rng(777))
    X2 = sample_data(spec, 50, np.random.default_rng(777))
    assert np.array_equal(X1, X2)


def test_sample_data_rejects_bad_n():
    spec = EllipticalSpec.create(np.zeros(3), np.eye(3), ChiSquared(p=3))
    with pytest.raises(InvalidParameterError):
        sample_data(spec, 0, np.random.default_rng(0))


def ar1_recursion(Z, c, rho, fused):
    """x_0 = c z_0 and x_j = (c s) z_j + rho x_{j-1}, one column at a time.

    With ``fused`` the multiply-add is rounded once, as a BLAS kernel with
    FMA computes it: the exact value as a fraction, then one rounding.
    """
    cs = c * math.sqrt(1.0 - rho * rho)
    X = np.empty_like(Z)
    X[:, 0] = c * Z[:, 0]
    for j in range(1, Z.shape[1]):
        b = cs * Z[:, j]
        if fused:
            X[:, j] = [float(Fraction(bi) + Fraction(rho) * Fraction(xi))
                       for bi, xi in zip(b.tolist(), X[:, j - 1].tolist())]
        else:
            X[:, j] = b + rho * X[:, j - 1]
    return X


def sample_by_hand(spec, n, seed):
    """Radii first, then the normals z_i, and the row scales
    c_i = xi_i / ||z_i|| with the norms from one einsum of squares."""
    rng = np.random.default_rng(seed)
    xi = np.sqrt(spec.xi.sample_squared(rng, n))
    Z = rng.standard_normal((n, spec.p))
    return xi / np.sqrt(np.einsum("ij,ij->i", Z, Z)), Z


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.95])
@pytest.mark.parametrize("p", [1, 2, 17, 1600])
def test_sample_data_ar1_bit_identical_to_recursion(p, rho):
    # mu + L (c z) with L the AR(1) recursion, bit for bit; whether the
    # BLAS kernel fuses the multiply-add depends on the CPU, so either
    # rounding passes, but the whole sample must match one of them.
    n, seed = 4, p * 100 + int(rho * 10)
    mu = np.linspace(-3.0, 5.0, p)
    spec = EllipticalSpec.create(mu, AR1(p, rho), KotzHalf(p=p))
    X = sample_data(spec, n, np.random.default_rng(seed))
    c, Z = sample_by_hand(spec, n, seed)
    wants = [mu + ar1_recursion(Z, c, rho, fused) for fused in (False, True)]
    assert any(np.array_equal(X, want) for want in wants)


def test_sample_data_dense_bit_identical():
    p, n, seed = 7, 5, 3
    mu = np.arange(p) - 2.5
    sigma = toeplitz_ar1(p, 0.3) + np.diag(np.linspace(0.0, 1.0, p))
    spec = EllipticalSpec.create(mu, sigma, ChiSquared(p=p))
    X = sample_data(spec, n, np.random.default_rng(seed))
    c, Z = sample_by_hand(spec, n, seed)
    assert np.array_equal(X, mu + (c[:, None] * Z) @ sqrt_psd(sigma))
