import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipkurt import (
    DegenerateDataError,
    EllipkurtError,
    InsufficientSampleError,
    InvalidParameterError,
    UStats,
    estimate_kurtosis,
    make_law,
    sample_sphere,
    theta_hat,
    plugin_moments_case2,
    ustats_bruteforce,
    ustats_fast,
    wl_theta,
)
from ellipkurt.linalg import centered_gram


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def max_rel_diff(u, v):
    return max(rel_diff(u.t1, v.t1), rel_diff(u.t2, v.t2), rel_diff(u.t3, v.t3))


def random_instance(rng):
    n = int(rng.integers(4, 13))
    p = int(rng.integers(1, 6))
    fam = ("normal", "kotz", "t", "laplace")[int(rng.integers(0, 4))]
    law = make_law(fam, p)
    xi = np.sqrt(law.sample_squared(rng, n))
    U = sample_sphere(p, rng, n)
    return xi[:, None] * U + rng.normal(size=p) * rng.uniform(0, 5)


def test_bruteforce_scaled_basis_rows():
    # Rows i * e_i in R^4. Pairwise squared distances are a_i^2 + a_j^2
    # with orthogonal differences, so the inner-product statistic is 0 and
    # the other two reduce to sums over the three pairings of
    # {5, 10, 17, 13, 20, 25}; expanding by hand gives 43 and 45.5.
    X = np.diag([1.0, 2.0, 3.0, 4.0])
    u = ustats_bruteforce(X)
    assert u.t1 == pytest.approx(43.0, rel=1e-12)
    assert u.t2 == pytest.approx(45.5, rel=1e-12)
    assert u.t3 == pytest.approx(0.0, abs=1e-12)


def test_identical_rows_give_zero():
    X = np.tile(np.array([1.0, -2.0, 3.0]), (6, 1))
    for f in (ustats_bruteforce, ustats_fast):
        u = f(X)
        assert (u.t1, u.t2, u.t3) == (0.0, 0.0, 0.0)


def test_statistics_are_never_negative():
    # One outlier among three equal rows: t2 and t3 are exactly 0, and the
    # fast path's cancellation noise at t1's scale (-0.0417 for t2) is
    # clamped to 0.0, where the brute force gives 0.0 too.
    X = np.array([[5625.0], [0.0], [0.0], [0.0]])
    fast, brute = ustats_fast(X), ustats_bruteforce(X)
    assert (fast.t2, fast.t3) == (brute.t2, brute.t3) == (0.0, 0.0)
    assert fast.t1 == pytest.approx(brute.t1, rel=1e-12)


def test_bruteforce_shift_invariance():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(5, 3))
    u = ustats_bruteforce(X)
    v = ustats_bruteforce(X + np.array([10.0, -40.0, 7.0]))
    assert max_rel_diff(u, v) <= 1e-10


def test_fast_equals_bruteforce_random_instances():
    rng = np.random.default_rng(100)
    for _ in range(15):
        X = random_instance(rng)
        u = ustats_fast(X)
        assert max_rel_diff(u, ustats_bruteforce(X)) <= 1e-10
        # Non-degenerate data: the product statistic is positive and the
        # inner-product statistic, a sum of squares, cannot go negative.
        assert u.t2 > 0.0
        assert u.t3 >= 0.0


@pytest.mark.parametrize("n, p", [(8, 7), (8, 8), (8, 9), (6, 200), (16, 2), (16, 17), (5, 1)])
def test_fast_equals_bruteforce_both_gram_sides(n, p):
    # p < n reduces through the p x p Gram matrix and p >= n through the
    # n x n one: p straddles n, and p >> n and n >> p reach both extremes.
    rng = np.random.default_rng(1000 * n + p)
    for k, offset in enumerate((0.0, 50.0, 1e3)):
        law = make_law(("normal", "kotz", "t", "laplace")[(n + p + k) % 4], p)
        xi = np.sqrt(law.sample_squared(rng, n))
        X = xi[:, None] * sample_sphere(p, rng, n) + offset * rng.normal(size=p)
        fast = ustats_fast(X)
        assert (fast.n, fast.p) == (n, p)
        assert max_rel_diff(fast, ustats_bruteforce(X)) <= 1e-10
        # Each statistic gives the same floats on the data and on their summary.
        cg = centered_gram(X)
        assert ustats_fast(cg) == fast
        assert wl_theta(cg) == wl_theta(X)
        assert plugin_moments_case2(cg) == plugin_moments_case2(X)


def test_insufficient_sample():
    X = np.ones((3, 2))
    for f in (ustats_bruteforce, ustats_fast):
        with pytest.raises(InsufficientSampleError):
            f(X)


@pytest.mark.parametrize("f", [ustats_bruteforce, ustats_fast])
def test_non_finite_data_rejected(f):
    X = np.ones((5, 2))
    X[3, 1] = np.nan
    with pytest.raises(InvalidParameterError, match="data contains non-finite"):
        f(X)


def test_theta_hat_value():
    u = UStats(t1=43.0, t2=45.5, t3=0.0, n=4, p=4)
    est = theta_hat(u)
    assert est.theta_hat == pytest.approx((43.0 + 45.5) / 45.5, rel=1e-15)
    assert est.ustats == u


def test_theta_hat_degenerate():
    X = np.tile(np.array([1.0, 2.0]), (5, 1))
    with pytest.raises(DegenerateDataError):
        estimate_kurtosis(X)


def test_location_invariance():
    rng = np.random.default_rng(200)
    for _ in range(5):
        X = rng.normal(size=(20, 6))
        shift = rng.normal(size=6) * 100
        a = estimate_kurtosis(X).theta_hat
        b = estimate_kurtosis(X + shift).theta_hat
        assert rel_diff(a, b) <= 1e-10


def test_scale_equivariance_of_statistics():
    rng = np.random.default_rng(201)
    X = rng.normal(size=(12, 4))
    u = ustats_fast(X)
    for s in (0.5, 3.0, 17.0):
        v = ustats_fast(s * X)
        assert rel_diff(v.t1, s**4 * u.t1) <= 1e-10
        assert rel_diff(v.t2, s**4 * u.t2) <= 1e-10
        assert rel_diff(v.t3, s**4 * u.t3) <= 1e-10
        assert rel_diff(
            theta_hat(v).theta_hat, theta_hat(u).theta_hat
        ) <= 1e-10


def test_orthogonal_invariance():
    rng = np.random.default_rng(202)
    for _ in range(5):
        X = rng.normal(size=(15, 8))
        Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        a = estimate_kurtosis(X).theta_hat
        b = estimate_kurtosis(X @ Q).theta_hat
        assert rel_diff(a, b) <= 1e-9


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
@pytest.mark.parametrize(
    "entry",
    [
        lambda X: estimate_kurtosis(X).theta_hat,
        wl_theta,
        lambda X: plugin_moments_case2(X).varphi_hat,
    ],
    ids=["estimate_kurtosis", "wl_theta", "plugin_moments_case2"],
)
def test_extreme_scales_give_finite_or_typed_error(entry, scale):
    X = np.random.default_rng(204).normal(size=(30, 8)) * scale
    try:
        value = entry(X)
    except EllipkurtError:
        return
    assert np.isfinite(value)


@pytest.mark.parametrize("scale", [1e77, 1e100, 1e155, 1e300])
@pytest.mark.parametrize("f", [ustats_bruteforce, ustats_fast])
def test_overflowing_scale_is_a_typed_error(f, scale):
    # Finite data whose fourth powers pass the double range: no inf or NaN
    # statistic, no bare OverflowError from float **, and no numpy warning
    # (the warnings filter turns one into a failure).
    X = np.random.default_rng(205).normal(size=(5, 3)) * scale
    with pytest.raises(InvalidParameterError, match="not finite"):
        f(X)


def test_scale_by_power_of_two_leaves_estimates_unchanged():
    # The degeneracy floors are relative: normal data at 2^-34 (about 5.8e-11)
    # once raised DegenerateDataError through an absolute floor of 1.
    X = np.random.default_rng(205).normal(size=(50, 10))
    theta, wl, pm = estimate_kurtosis(X).theta_hat, wl_theta(X), plugin_moments_case2(X)
    for k in range(-200, 201):
        Y = X * 2.0**k
        assert estimate_kurtosis(Y).theta_hat == pytest.approx(theta, rel=1e-12, abs=0.0), k
        assert wl_theta(Y) == pytest.approx(wl, rel=1e-12, abs=0.0), k
        if abs(k) <= 100:
            b = plugin_moments_case2(Y)
            assert b.varrho_hat == pytest.approx(pm.varrho_hat, rel=1e-12, abs=0.0), k
            assert b.varphi_hat == pytest.approx(pm.varphi_hat, rel=1e-12, abs=0.0), k


@pytest.mark.parametrize(
    "entry",
    [estimate_kurtosis, wl_theta, plugin_moments_case2],
    ids=["estimate_kurtosis", "wl_theta", "plugin_moments_case2"],
)
def test_underflowing_powers_raise_typed_error(entry):
    # Fourth (eighth) powers below the smallest normal double are refused,
    # not turned into a ratio of subnormals.
    X = np.random.default_rng(206).normal(size=(50, 10))
    k = -140 if entry is plugin_moments_case2 else -270
    with pytest.raises(InvalidParameterError, match="underflow"):
        entry(X * 2.0**k)


@pytest.mark.parametrize("scale", [1e-200, 1e-20, 1.0, 1e20, 1e60])
@pytest.mark.parametrize(
    "entry",
    [estimate_kurtosis, wl_theta, plugin_moments_case2],
    ids=["estimate_kurtosis", "wl_theta", "plugin_moments_case2"],
)
def test_identical_rows_stay_degenerate_at_any_scale(entry, scale):
    # 0.1 is inexact, so the column mean of identical rows need not equal
    # the rows; the floors must not mistake that rounding for spread.
    X = np.tile(np.array([0.1, -2.0, 0.5]), (8, 1)) * scale
    with pytest.raises(DegenerateDataError):
        entry(X)


def test_row_permutation_invariance():
    rng = np.random.default_rng(203)
    X = rng.normal(size=(10, 3))
    u = ustats_fast(X)
    for _ in range(5):
        v = ustats_fast(X[rng.permutation(10)])
        assert max_rel_diff(u, v) <= 1e-10


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_fast_matches_bruteforce_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    p = int(rng.integers(1, 4))
    X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10)
    assert max_rel_diff(ustats_fast(X), ustats_bruteforce(X)) <= 1e-10


def test_t2_consistency_normal():
    # t2 estimates the squared trace of the covariance scale.
    p = 100
    law = make_law("normal", p)
    rng = np.random.default_rng(42)
    xi = np.sqrt(law.sample_squared(rng, 100))
    U = sample_sphere(p, rng, 100)
    X = xi[:, None] * U
    u = ustats_fast(X)
    assert abs(u.t2 / p**2 - 1.0) <= 0.10
