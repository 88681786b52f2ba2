import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipkurt import (
    InvalidParameterError,
    NotPSDError,
    sqrt_psd,
    toeplitz_ar1,
    trace_powers,
)
from ellipkurt.linalg import centered_gram


def test_toeplitz_single_entry():
    assert np.array_equal(toeplitz_ar1(1, 0.5), np.array([[1.0]]))


def test_toeplitz_p3():
    expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1.0]])
    assert np.array_equal(toeplitz_ar1(3, 0.5), expected)


def test_toeplitz_trace_powers_against_double_loop():
    # Independent oracle: direct double loop over the definition.
    p, rho = 100, 0.5
    M = toeplitz_ar1(p, rho)
    tp = trace_powers(M)
    tr2 = math.fsum(rho ** (2 * abs(j - k)) for j in range(p) for k in range(p))
    assert tp.t1 == pytest.approx(100.0, abs=1e-12)
    assert tp.t2 == pytest.approx(tr2, rel=1e-12)
    assert tr2 == pytest.approx(165.7777777777, rel=1e-10)


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, np.inf])
def test_toeplitz_invalid_rho(rho):
    with pytest.raises(InvalidParameterError):
        toeplitz_ar1(5, rho)


def test_toeplitz_invalid_p():
    with pytest.raises(InvalidParameterError):
        toeplitz_ar1(0, 0.5)


@given(p=st.integers(1, 12), rho=st.floats(-0.95, 0.95))
@settings(max_examples=50, deadline=None)
def test_toeplitz_entries_definition(p, rho):
    M = toeplitz_ar1(p, rho)
    for j in range(p):
        for k in range(p):
            assert M[j, k] == pytest.approx(rho ** abs(j - k), rel=1e-14, abs=0.0)
    assert np.array_equal(M, M.T)


def test_sqrt_psd_identity():
    for p in (1, 3, 7):
        assert np.array_equal(sqrt_psd(np.eye(p)), np.eye(p))


def test_sqrt_psd_diagonal():
    R = sqrt_psd(np.diag([4.0, 9.0]))
    assert np.allclose(R, np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_psd_toeplitz_roundtrip():
    M = toeplitz_ar1(5, 0.5)
    R = sqrt_psd(M)
    err = np.linalg.norm(R @ R - M) / np.linalg.norm(M)
    assert err <= 1e-10
    assert np.array_equal(R, R.T)


def test_sqrt_psd_random_psd_roundtrip():
    rng = np.random.default_rng(42)
    for _ in range(10):
        p = int(rng.integers(2, 20))
        A = rng.normal(size=(p, p))
        M = A @ A.T
        M = 0.5 * (M + M.T)
        R = sqrt_psd(M)
        err = np.linalg.norm(R @ R - M) / np.linalg.norm(M)
        assert err <= 1e-8


def test_sqrt_psd_clamps_rounding_noise():
    M = np.diag([1.0, -1e-12])
    R = sqrt_psd(M)
    assert R[1, 1] == 0.0


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPSDError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_psd_rejects_asymmetric():
    with pytest.raises(InvalidParameterError):
        sqrt_psd(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_trace_powers_identity():
    for p in range(1, 65):
        tp = trace_powers(np.eye(p))
        assert tp.as_tuple() == (p, p, p, p)


def test_trace_powers_diagonal():
    tp = trace_powers(np.diag([1.0, 2.0]))
    assert tp.as_tuple() == (3.0, 5.0, 9.0, 17.0)


def test_trace_powers_matches_naive_powers():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = int(rng.integers(1, 17))
        A = rng.normal(size=(p, p))
        M = 0.5 * (A + A.T)
        tp = trace_powers(M)
        naive = [np.trace(np.linalg.matrix_power(M, k)) for k in (1, 2, 3, 4)]
        for got, want in zip(tp.as_tuple(), naive):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_trace_powers_toeplitz_vs_naive():
    M = toeplitz_ar1(4, 0.5)
    tp = trace_powers(M)
    naive = [np.trace(np.linalg.matrix_power(M, k)) for k in (1, 2, 3, 4)]
    for got, want in zip(tp.as_tuple(), naive):
        assert got == pytest.approx(want, rel=1e-12)


def test_centered_gram_identity_rows():
    # Centered rows of I_4 are e_i - 1/4; their Gram matrix is I - J/4.
    cg = centered_gram(np.eye(4))
    assert np.allclose(cg.M, np.eye(4) - 0.25, rtol=0.0, atol=1e-15)
    assert np.allclose(cg.g, 0.75, rtol=0.0, atol=1e-15)
    assert (cg.T, cg.t, cg.W) == pytest.approx((3.0, 2.25, 3.0), rel=1e-15)


def test_centered_gram_single_row():
    cg = centered_gram(np.array([[3.0, 4.0]]))
    assert np.array_equal(cg.M, np.zeros((1, 1)))
    assert np.array_equal(cg.g, np.zeros(1))
    assert (cg.T, cg.t, cg.W) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("n, p", [(7, 3), (5, 5), (4, 9)])
def test_centered_gram_side_choice(n, p):
    # Xc' Xc (p x p) when p < n, otherwise Xc Xc' (n x n); exactly symmetric.
    rng = np.random.default_rng(n * 10 + p)
    cg = centered_gram(rng.normal(size=(n, p)))
    k = p if p < n else n
    assert cg.M.shape == (k, k)
    assert np.array_equal(cg.M, cg.M.T)


@pytest.mark.parametrize("n, p", [(9, 3), (6, 6), (5, 11)])
def test_centered_gram_against_double_loop(n, p):
    rng = np.random.default_rng(3 + n + p)
    X = rng.normal(size=(n, p)) + 5.0
    mean = [math.fsum(X[:, c]) / n for c in range(p)]
    rows = [[X[i, c] - mean[c] for c in range(p)] for i in range(n)]
    H = [[math.fsum(a * b for a, b in zip(rows[i], rows[j])) for j in range(n)] for i in range(n)]
    cg = centered_gram(X)
    for i in range(n):
        assert cg.g[i] == pytest.approx(H[i][i], rel=1e-12)
    assert cg.T == pytest.approx(math.fsum(H[i][i] for i in range(n)), rel=1e-12)
    assert cg.t == pytest.approx(math.fsum(H[i][i] ** 2 for i in range(n)), rel=1e-12)
    assert cg.W == pytest.approx(math.fsum(h * h for r in H for h in r), rel=1e-12)
    assert cg.T == pytest.approx(float(np.trace(cg.M)), rel=1e-12)


@pytest.mark.parametrize("n, p", [(12, 4), (4, 12)])
def test_centered_gram_trace_powers_match_other_side(n, p):
    # Xc' Xc and Xc Xc' share their nonzero eigenvalues.
    rng = np.random.default_rng(n * p)
    X = rng.normal(size=(n, p))
    Xc = X - X.mean(axis=0)
    other = Xc @ Xc.T if p < n else Xc.T @ Xc
    got = trace_powers(centered_gram(X).M).as_tuple()
    want = trace_powers(0.5 * (other + other.T)).as_tuple()
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-10)


def test_centered_gram_invariances():
    # g, T, t and W do not see a shift or a rotation of the rows.
    rng = np.random.default_rng(11)
    for n, p in ((6, 4), (4, 6)):
        X = rng.normal(size=(n, p))
        Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        a = centered_gram(X)
        for Y in (X @ Q, X + rng.normal(size=p) * 100):
            b = centered_gram(Y)
            assert np.allclose(b.g, a.g, rtol=1e-10, atol=0.0)
            assert (b.T, b.t, b.W) == pytest.approx((a.T, a.t, a.W), rel=1e-10)


@pytest.mark.parametrize("scale", [1e100, 1e200])
def test_centered_gram_overflow_is_typed(scale):
    X = np.random.default_rng(12).normal(size=(6, 3)) * scale
    with pytest.raises(InvalidParameterError):
        centered_gram(X)
