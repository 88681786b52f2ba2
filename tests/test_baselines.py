import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from ellipkurt import (
    ChiSquared,
    DegenerateDataError,
    EllipticalSpec,
    InvalidParameterError,
    SingularMatrixError,
    make_law,
    oracle_theta,
    sample_data,
    sample_sphere,
    toeplitz_ar1,
    wl_theta,
)
from ellipkurt.linalg import AR1, Dense


class ConstantRadius:
    """Test stub: xi identically sqrt(p)."""

    def __init__(self, p):
        self.p = p

    family = "const_stub"

    def sample_squared(self, rng, size=None):
        return np.full(size if size is not None else (), float(self.p))


def test_oracle_constant_radius_exact():
    # With xi^2 == p, every Mahalanobis norm is exactly p, so the
    # estimator equals p / (p + 2) deterministically.
    p, n = 8, 20
    spec = EllipticalSpec.create(np.zeros(p), np.eye(p), ConstantRadius(p))
    X = sample_data(spec, n, np.random.default_rng(0))
    got = oracle_theta(X, np.zeros(p), np.eye(p))
    assert got == pytest.approx(p / (p + 2), rel=1e-12)


def test_oracle_affine_invariance():
    rng = np.random.default_rng(1)
    p, n = 6, 40
    sigma = toeplitz_ar1(p, 0.5)
    mu = rng.normal(size=p)
    spec = EllipticalSpec.create(mu, sigma, ChiSquared(p=p))
    X = sample_data(spec, n, rng)
    A = rng.normal(size=(p, p)) + 3 * np.eye(p)
    sigma_t = A @ sigma @ A.T
    sigma_t = 0.5 * (sigma_t + sigma_t.T)
    a = oracle_theta(X, mu, sigma)
    b = oracle_theta(X @ A.T, A @ mu, sigma_t)
    assert b == pytest.approx(a, rel=1e-8)


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.95])
@pytest.mark.parametrize("p", [1, 2, 17, 400])
def test_oracle_ar1_matches_dense(p, rho):
    # The AR(1) object whitens with its bidiagonal inverse factor, the dense
    # matrix with a triangular solve; both are the same Mahalanobis norms.
    rng = np.random.default_rng(p)
    spec = EllipticalSpec.create(np.zeros(p), AR1(p, rho), make_law("t", p))
    mu = rng.normal(size=p)
    X = sample_data(spec, 30, rng) + mu
    a = oracle_theta(X, mu, AR1(p, rho))
    b = oracle_theta(X, mu, toeplitz_ar1(p, rho))
    assert a == pytest.approx(b, rel=1e-12, abs=0.0)


def test_oracle_dense_matches_cholesky_solve():
    # A dense matrix keeps the triangular-solve result bit for bit.
    rng = np.random.default_rng(2)
    p, n = 7, 30
    A = rng.normal(size=(p, p))
    sigma = A @ A.T + np.eye(p)
    X = rng.normal(size=(n, p))
    mu = rng.normal(size=p)
    Y = solve_triangular(np.linalg.cholesky(sigma), (X - mu).T, lower=True)
    q = np.einsum("ij,ij->j", Y, Y)
    assert oracle_theta(X, mu, sigma) == math.fsum(q * q) / (n * p * (p + 2))
    assert oracle_theta(X, mu, Dense(sigma)) == oracle_theta(X, mu, sigma)


@pytest.mark.parametrize("cov", [AR1(9, 0.7), Dense(toeplitz_ar1(9, 0.7))], ids=["ar1", "dense"])
@pytest.mark.parametrize("mu", [np.zeros(9), np.full(9, -0.0), np.linspace(-1.0, 2.0, 9)],
                         ids=["zero", "negative-zero", "nonzero"])
def test_oracle_whitens_x_itself_when_mu_is_zero(cov, mu):
    # Skipping the shift for mu = 0 is bit-identical to whitening X - mu,
    # and X is left as it is.
    X = np.random.default_rng(5).normal(size=(12, 9))
    before = X.copy()
    Y = cov.whiten(X - mu)
    q = np.einsum("ij,ij->i", Y, Y)
    assert oracle_theta(X, mu, cov) == math.fsum(q * q) / (12 * 9 * 11)
    assert np.array_equal(X, before)


def test_oracle_dimension_mismatch():
    X = np.random.default_rng(3).normal(size=(10, 3))
    with pytest.raises(InvalidParameterError):
        oracle_theta(X, np.zeros(3), AR1(4, 0.5))


def test_oracle_singular_sigma():
    X = np.random.default_rng(3).normal(size=(10, 3))
    singular = np.ones((3, 3))
    with pytest.raises(SingularMatrixError):
        oracle_theta(X, np.zeros(3), singular)


def test_oracle_near_one_for_normal():
    p, n = 50, 200
    sigma = toeplitz_ar1(p, 0.5)
    spec = EllipticalSpec.create(np.zeros(p), sigma, ChiSquared(p=p))
    X = sample_data(spec, n, np.random.default_rng(4))
    assert oracle_theta(X, np.zeros(p), sigma) == pytest.approx(1.0, abs=0.15)


def test_wl_identical_rows():
    X = np.tile(np.array([1.0, 2.0]), (8, 1))
    with pytest.raises(DegenerateDataError):
        wl_theta(X)


def test_wl_scale_invariance():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 6))
    a = wl_theta(X)
    for s in (0.01, 7.0, 1e3):
        assert wl_theta(s * X) == pytest.approx(a, rel=1e-10)


def test_wl_location_invariance():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(25, 4))
    assert wl_theta(X + np.array([5.0, -3.0, 100.0, 0.25])) == pytest.approx(
        wl_theta(X), rel=1e-8
    )


@pytest.mark.parametrize("n, p", [(40, 6), (12, 12), (10, 45)])
def test_wl_matches_covariance_reference(n, p):
    # Both sides of the Gram choice against the p x p sample covariance.
    rng = np.random.default_rng(n + p)
    X = rng.standard_t(9, size=(n, p)) + 3.0
    S = np.cov(X, rowvar=False)
    g = ((X - X.mean(axis=0)) ** 2).sum(axis=1)
    tr1, tr2 = np.trace(S), np.sum(S * S)
    want = (np.var(g, ddof=1) + tr1**2) / (tr1**2 + 2.0 * tr2)
    assert wl_theta(X) == pytest.approx(want, rel=1e-10)


def test_wl_near_one_for_normal():
    p, n = 100, 100
    sigma = toeplitz_ar1(p, 0.5)
    spec = EllipticalSpec.create(np.zeros(p), sigma, ChiSquared(p=p))
    vals = []
    for rep in range(20):
        X = sample_data(spec, n, np.random.default_rng(1000 + rep))
        vals.append(wl_theta(X))
    assert abs(np.mean(vals) - 1.0) <= 0.05
