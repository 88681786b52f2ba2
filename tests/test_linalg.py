import contextlib
import math
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtbtrs

from ellipkurt import (
    InvalidParameterError,
    NotPSDError,
    SingularMatrixError,
    estimate_kurtosis,
    oracle_theta,
    plugin_moments_case2,
    sqrt_psd,
    toeplitz_ar1,
    trace_powers,
    ustats_bruteforce,
    wl_theta,
)
from ellipkurt import linalg
from ellipkurt.linalg import (
    AR1,
    OPENBLAS,
    Dense,
    as_covariance,
    as_data_matrix,
    centered_gram,
    exact_sum,
)


def test_toeplitz_single_entry():
    assert np.array_equal(toeplitz_ar1(1, 0.5), np.array([[1.0]]))


def test_toeplitz_p3():
    expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1.0]])
    assert np.array_equal(toeplitz_ar1(3, 0.5), expected)


def test_toeplitz_trace_powers_against_double_loop():
    # Independent oracle: direct double loop over the definition.
    p, rho = 100, 0.5
    M = toeplitz_ar1(p, rho)
    t1, t2, _, _ = trace_powers(M)
    tr2 = math.fsum(rho ** (2 * abs(j - k)) for j in range(p) for k in range(p))
    assert t1 == pytest.approx(100.0, abs=1e-12)
    assert t2 == pytest.approx(tr2, rel=1e-12)
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
        assert trace_powers(np.eye(p)) == (p, p, p, p)


def test_trace_powers_diagonal():
    assert trace_powers(np.diag([1.0, 2.0])) == (3.0, 5.0, 9.0, 17.0)


def test_trace_powers_matches_naive_powers():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = int(rng.integers(1, 17))
        A = rng.normal(size=(p, p))
        M = 0.5 * (A + A.T)
        naive = [np.trace(np.linalg.matrix_power(M, k)) for k in (1, 2, 3, 4)]
        for got, want in zip(trace_powers(M), naive):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_trace_powers_toeplitz_vs_naive():
    M = toeplitz_ar1(4, 0.5)
    naive = [np.trace(np.linalg.matrix_power(M, k)) for k in (1, 2, 3, 4)]
    for got, want in zip(trace_powers(M), naive):
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
    X = rng.normal(size=(n, p))
    cg = centered_gram(X)
    k = p if p < n else n
    assert cg.M.shape == (k, k)
    assert np.array_equal(cg.M, cg.M.T)
    assert cg.W == exact_sum(cg.M * cg.M)
    # Plain ints, so the shape reads like the data's; a summary passes through.
    assert (type(cg.n), type(cg.p), cg.n, cg.p) == (int, int, n, p)
    assert cg.x_max == np.max(np.abs(X))
    assert centered_gram(cg) is cg


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
    got = trace_powers(centered_gram(X).M)
    want = trace_powers(0.5 * (other + other.T))
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


@pytest.mark.parametrize(
    "X", [np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf, 1.0]]),
          np.array([[1.0], [-np.inf]]), np.array([[np.nan, np.inf], [-np.inf, 2.0]]),
          np.array([[np.inf, -np.inf]]), np.ones(3), np.ones((0, 3)), np.ones((3, 0)),
          np.ones((2, 2, 2)), [["1", "2"], ["3", "4"]], [[1.0, 2.0], [3.0]],
          np.array([[1.0, 2.0j], [3.0, 4.0]]), np.array([[1.0, "x"], [3.0, 4.0]], dtype=object)],
    ids=["nan", "inf", "-inf", "mixed", "+-inf", "1-d", "empty", "no-columns", "3-d",
         "strings", "ragged", "complex", "object-str"],
)
def test_centered_gram_rejects_non_finite_and_non_matrix(X):
    # Every data entry point raises the typed error and nothing else: no
    # bare ValueError, no numpy warning, no complex cast.
    p = X.shape[-1] if isinstance(X, np.ndarray) else 2
    entry_points = (as_data_matrix, centered_gram, estimate_kurtosis, ustats_bruteforce,
                    wl_theta, plugin_moments_case2,
                    lambda X: oracle_theta(X, np.zeros(p), AR1(max(p, 1), 0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in entry_points:
            with pytest.raises(InvalidParameterError):
                check(X)


@pytest.mark.parametrize(
    "kind", ["normal", "all-negative", "offset", "negative-offset", "zeros", "negative-zeros"]
)
def test_x_max_is_max_abs_bit_for_bit(kind):
    X = np.random.default_rng(14).normal(size=(6, 4))
    X = {"normal": X, "all-negative": -np.abs(X) - 1e-3, "offset": X + 1e6,
         "negative-offset": X - 3e8, "zeros": np.zeros((6, 4)),
         "negative-zeros": np.full((6, 4), -0.0)}[kind]
    want = float(np.max(np.abs(X))).hex()  # hex tells -0.0 from 0.0
    assert as_data_matrix(X)[1].hex() == want
    assert centered_gram(X).x_max.hex() == want


BIG = float(np.finfo(float).max)


@pytest.mark.parametrize("n, p", [(2, 1), (3, 7), (9, 4), (100, 100)])
def test_centered_gram_w_is_the_full_sum(n, p):
    # W is math.fsum over every squared entry of M, bit for bit, from data
    # whose fourth powers are near the underflow edge up to the overflow
    # edge, past which it raises a typed error.
    X0 = np.random.default_rng(n * p).normal(size=(n, p))
    W0 = centered_gram(X0).W
    edge = [(f / W0) ** 0.25 * BIG**0.25 for f in (0.5, 0.999999)]
    for scale in [1e-70, 1e-3, 1.0, 1e3, 1e70] + edge:
        cg = centered_gram(X0 * scale)
        assert cg.W.hex() == math.fsum((cg.M * cg.M).ravel().tolist()).hex()
    with pytest.raises(InvalidParameterError):
        centered_gram(X0 * (2.0 / W0) ** 0.25 * BIG**0.25)


@pytest.mark.parametrize("n, p", [(2, 5), (24, 30), (34, 40), (35, 40), (100, 400), (60, 20)])
def test_centered_gram_w_from_the_triangle_is_the_sum_of_m_squared(n, p):
    # W is summed over the squared diagonal and the doubled strict triangle:
    # the same bits, sign included, as exact_sum over all of M * M, on
    # either side of fsum's 600-term crossover (n <= 34 gives at most 595
    # triangle terms) and on both sides of the Gram choice (p < n at n=60).
    X0 = np.random.default_rng([n, p]).normal(size=(n, p))
    for scale in (1e-60, 1e-30, 1e-3, 1.0, 1e3, 1e30, 1e60):
        cg = centered_gram(X0 * scale)
        assert cg.W.hex() == exact_sum(cg.M * cg.M).hex()
    cg = centered_gram(np.ones((n, p)))  # M is all zeros
    assert cg.W.hex() == exact_sum(cg.M * cg.M).hex() == (0.0).hex()


@pytest.mark.parametrize("n, p", [(9, 4), (4, 9)])
def test_centered_gram_overwrite_x_centers_in_place(n, p):
    # The same summary bit for bit, and X then holds the centered rows; a
    # non-float64 X is converted, so only the copy is centered.
    X = np.random.default_rng(n).normal(size=(n, p)) + 3.0
    want = centered_gram(X)
    Xc = X - X[0]
    Xc -= Xc.mean(axis=0)
    got = centered_gram(X, overwrite_x=True)
    assert np.array_equal(X, Xc)
    for name in ("x_max", "T", "t", "W"):
        assert getattr(got, name) == getattr(want, name)
    assert np.array_equal(got.g, want.g) and np.array_equal(got.M, want.M)
    ints = np.arange(n * p).reshape(n, p)
    centered_gram(ints, overwrite_x=True)
    assert np.array_equal(ints, np.arange(n * p).reshape(n, p))


def correctly_rounded_sum(values: list[float]) -> float | None:
    """math.fsum of ``values``, None where the rounded sum overflows.

    fsum raises OverflowError also where one of its running partial sums
    overflows, which for mixed signs near the top of the range depends on
    the order (``[max, max, -max]`` raises, ``[max, -max, max]`` does not).
    There the exact rational sum, correctly rounded, is the reference.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        pass
    try:
        return float(sum(map(Fraction, values), Fraction(0)))
    except OverflowError:
        return None


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Every binary exponent equally likely, subnormals and the overflow edge included.
SCALED = st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                   st.integers(-1074, 1024))
HALF_ULP_OF_MAX = 2.0**970
EDGE = math.sqrt(BIG / 2)


@given(values=st.lists(st.one_of(FINITE, SCALED), max_size=40))
@example(values=[])
@example(values=[-0.0])
@example(values=[-0.0, -0.0, -0.0])
@example(values=[0.0, -0.0])
@example(values=[5e-324, -5e-324, 5e-324])
@example(values=[BIG, BIG, -BIG])
@example(values=[BIG / 2, BIG / 2])
@example(values=[BIG, HALF_ULP_OF_MAX])
@example(values=[BIG, HALF_ULP_OF_MAX, -5e-324])
@example(values=[EDGE * EDGE, EDGE * EDGE])
@example(values=[(EDGE * (1 + 2**-40)) ** 2] * 2)
@settings(max_examples=400, deadline=None)
def test_exact_sum_is_fsum(values):
    # Bit for bit (hex tells -0.0 from 0.0) in either order; a typed error
    # exactly where the rounded sum overflows. The list is also tiled past
    # the length up to which exact_sum calls fsum, so both paths are checked.
    tiled = values * (linalg._FSUM_TERMS // max(len(values), 1) + 1)
    for terms in (values, tiled):
        want = correctly_rounded_sum(terms)
        for order in (terms, terms[::-1]):
            if want is None:
                with pytest.raises(InvalidParameterError):
                    exact_sum(np.array(order, dtype=float))
            else:
                assert exact_sum(np.array(order, dtype=float)).hex() == want.hex()


@pytest.mark.parametrize(
    "values", [[np.inf, -np.inf], [np.nan], [1.0, np.inf], [-np.inf, 2.0, 3.0]],
    ids=["inf-inf", "nan", "inf", "-inf"],
)
def test_exact_sum_rejects_non_finite_entries(values):
    # The typed error is the only signal: no numpy warning of any kind.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            exact_sum(np.array(values))


def test_exact_sum_stays_exact_past_2_pow_26_terms():
    # The largest mantissa puts the most bits in both halves of every term,
    # so summing more than 2**26 of them in one bucket would round. The
    # input is a stride-0 view: no 512 MB array is made.
    v = math.nextafter(2.0, 0.0)
    x = np.broadcast_to(v, (2**26 + 3,))
    assert exact_sum(x) == float(Fraction(v) * x.size)


def rel_norm(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.95])
@pytest.mark.parametrize("p", [1, 2, 3, 17, 1600])
def test_ar1_root_is_dense_cholesky(p, rho):
    # Differential against the Cholesky factor of the p x p matrix.
    rng = np.random.default_rng(p)
    Z = rng.normal(size=(9, p))
    cov = AR1(p, rho)
    X = cov.apply_root(Z)
    assert X.shape == Z.shape
    assert rel_norm(X, Z @ np.linalg.cholesky(toeplitz_ar1(p, rho)).T) <= 1e-12
    assert rel_norm(cov.whiten(X), Z) <= 1e-12


@pytest.mark.parametrize("cov", [AR1(9, 0.7), Dense(toeplitz_ar1(9, 0.7))], ids=["ar1", "dense"])
def test_covariance_maps_leave_input_unmodified(cov):
    Z = np.random.default_rng(4).normal(size=(6, 9))
    before = Z.copy()
    X = cov.apply_root(Z)
    Y = cov.whiten(Z)
    assert np.array_equal(Z, before)
    assert not np.shares_memory(X, Z) and not np.shares_memory(Y, Z)
    # The maps are row-wise whatever the memory order of the input (BLAS
    # may round a product differently for another layout).
    F = np.asfortranarray(Z)
    assert rel_norm(cov.apply_root(F), X) <= 1e-14
    assert rel_norm(cov.whiten(F), Y) <= 1e-14
    assert np.array_equal(F, before)


def f2py_scaled_root(Z, rho, scale):
    """AR1.scaled_root on a copy of Z by hand: the same scaling pass, then
    the f2py ``dtbtrs`` wrapper, which holds the interpreter lock."""
    Z = np.array(Z, order="C")
    scale = np.asarray(scale, dtype=float)[..., None]
    Z[:, 1:] *= scale * math.sqrt(1.0 - rho * rho)
    Z[:, :1] *= scale
    ab = np.ones((2, Z.shape[1]))
    ab[1] = -rho
    X, info = dtbtrs(ab, Z.T, uplo="L", trans="N", diag="U", overwrite_b=1)
    assert info == 0
    return X.T


def assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def check_scaled_root_against_f2py(rho, per_row, rtol=None):
    # The same bits as the f2py dtbtrs wrapper, or, given rtol, agreement
    # within rtol relative in norm.
    for n in (1, 3, 100):
        for p in (1, 2, 3, 1600):
            rng = np.random.default_rng([n, p])
            Z = rng.standard_normal((n, p))
            scale = rng.uniform(0.5, 2.0, size=n) if per_row else 1.7
            expected = f2py_scaled_root(Z, rho, scale)
            X = AR1(p, rho).scaled_root(Z, scale)
            assert np.shares_memory(X, Z)  # written over Z
            if rtol is None:
                assert_same_bits(X, expected)
            else:
                assert X.shape == expected.shape and rel_norm(X, expected) <= rtol


@pytest.mark.parametrize("per_row", [False, True], ids=["scalar-scale", "row-scales"])
@pytest.mark.parametrize("rho", [0.0, 0.5, -0.5, 0.99, -0.99])
def test_ar1_scaled_root_is_f2py_dtbtrs_bit_for_bit(rho, per_row):
    assert linalg.OPENBLAS.reason is None  # the direct LAPACK call is what runs
    check_scaled_root_against_f2py(rho, per_row)


def test_ar1_root_without_the_lapack_symbol_runs_the_numpy_recurrence(monkeypatch):
    # numpy's library without the routine is not driven at all: the root
    # runs the numpy column recurrence and the reason names the missing
    # symbol. Where rho is a signed power of two every product is exact,
    # so the bits are dtbtrs's; elsewhere the BLAS kernel may fuse the
    # multiply-add, and the two agree up to rounding.
    monkeypatch.setattr(linalg, "_DTBTRS_SYMBOL", "no_such_dtbtrs_64_")
    monkeypatch.setattr(linalg, "OPENBLAS", linalg.OpenBlas())
    for rho in (0.5, -0.5):
        check_scaled_root_against_f2py(rho, per_row=True)
    check_scaled_root_against_f2py(-0.99, per_row=True, rtol=1e-10)
    assert linalg.OPENBLAS.library is None
    assert "no no_such_dtbtrs_64_" in linalg.OPENBLAS.reason


def test_ar1_root_of_a_strided_view_is_solved_in_a_copy():
    # No pointer is passed for a strided view: it is solved in a copy, and
    # the columns between its columns are never written. The LAPACK call
    # gives dtbtrs's bits; the numpy recurrence, which runs without the
    # library, agrees up to rounding at rho = 0.8.
    def check(X, expected):
        if linalg.OPENBLAS.reason is None:
            assert_same_bits(X, expected)
        else:
            assert X.shape == expected.shape and rel_norm(X, expected) <= 1e-10

    rng = np.random.default_rng(16)
    Z = rng.standard_normal((7, 30))
    before = Z.copy()
    view = Z[:, ::2]
    check(AR1(15, 0.8).scaled_root(view, 1.3), f2py_scaled_root(before[:, ::2], 0.8, 1.3))
    assert np.array_equal(Z[:, 1::2], before[:, 1::2])
    F = np.asfortranarray(before)
    check(AR1(30, 0.8).scaled_root(F, 1.3), f2py_scaled_root(before, 0.8, 1.3))


def test_ar1_root_of_f_ordered_and_strided_z_runs_the_direct_call(monkeypatch):
    # A layout never picks another routine: an F-ordered and a strided Z
    # are solved in a C-ordered copy by the direct call, never by the
    # numpy fallback.
    if linalg.OPENBLAS.reason is not None:
        pytest.skip(linalg.OPENBLAS.reason)
    rng = np.random.default_rng(18)
    Z = rng.standard_normal((9, 40))
    for rho in (0.5, -0.99):
        strided, fortran = Z.copy()[:, ::2], np.asfortranarray(Z)
        expected = (f2py_scaled_root(Z[:, ::2], rho, 1.3), f2py_scaled_root(Z, rho, 1.3))

        def no_fallback(*args, **kwargs):
            raise AssertionError("the numpy fallback ran")

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_forward_substitution", no_fallback)
            got = (AR1(20, rho).scaled_root(strided, 1.3), AR1(40, rho).scaled_root(fortran, 1.3))
        for X, want in zip(got, expected):
            assert X.flags.c_contiguous
            assert_same_bits(X, want)
    # No pointer is passed for a band that does not fit Z.
    with pytest.raises(ValueError, match="does not fit"):
        linalg.OPENBLAS.solve(np.ones((2, 5), order="F"), Z)


def test_ar1_root_releases_the_interpreter_lock():
    # One thread records timestamps while this one solves. A recorder
    # timestamp needs the lock, and no switch is forced within the switch
    # interval, so a timestamp inside the solve's window means the solve
    # released the lock. The routine is looked up before the window opens.
    if linalg.OPENBLAS.reason is not None:
        pytest.skip(linalg.OPENBLAS.reason)
    n, p, rho = 20, 200_000, 0.5
    Z = np.random.default_rng(17).standard_normal((n, p))
    ab = np.empty((2, p), order="F")
    ab[0] = 1.0
    ab[1] = -rho
    stamps, started, done = [], threading.Event(), threading.Event()

    def record():
        started.set()
        while not done.is_set():
            stamps.append(time.perf_counter())
            time.sleep(0.0002)  # releases the lock, so the solver can take it back

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)  # far longer than the solve
    try:
        recorder = threading.Thread(target=record)
        recorder.start()
        assert started.wait(timeout=10)
        t0 = time.perf_counter()
        X, info = linalg.OPENBLAS.solve(ab, Z)
        t1 = time.perf_counter()
        done.set()
        recorder.join(timeout=10)
        assert not recorder.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert info == 0 and X is Z
    assert any(t0 < s < t1 for s in stamps)


def one_array_sq_norms(Y, rho):
    """||L^{-1} y||^2 per row from one whole n x (p - 1) difference array."""
    D = np.multiply(Y[:, :-1], rho)
    np.subtract(Y[:, 1:], D, out=D)
    head = Y[:, 0]
    return head * head + np.einsum("ij,ij->i", D, D) / (1.0 - rho * rho)


LAYOUTS = {
    "c": lambda B: np.ascontiguousarray(B[::2, ::3]),
    "f": lambda B: np.asfortranarray(B[::2, ::3]),
    "strided": lambda B: B[::2, ::3],
    "f-strided": lambda B: np.asfortranarray(B)[::2, ::3],
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("p", [1, 2, 100, 328, 329, 1600, 5000])
def test_ar1_whitened_sq_norms_in_blocks_is_one_array_bit_for_bit(p, layout, monkeypatch):
    # Row blocks give each norm the bits of one whole difference array, for
    # n within one block and n across several, in every memory layout. A
    # one-entry block size asks for one-row blocks, which would sum a row
    # of an F-ordered Y in another order; the blocks keep two rows.
    sizes = [3, 100]
    if p > 1:  # past 1.5 blocks, so at least two
        sizes.append(3 * linalg._BLOCK_ELEMENTS // (p - 1) + 1)
    for n in sizes:
        Y = LAYOUTS[layout](np.random.default_rng([n, p]).normal(size=(2 * n, 3 * p)))
        before = Y.copy()
        for rho in (0.5, -0.3, 0.99):
            want = one_array_sq_norms(Y, rho)
            assert_same_bits(AR1(p, rho).whitened_sq_norms(Y), want)
            if n <= 100:
                with monkeypatch.context() as m:
                    m.setattr(linalg, "_BLOCK_ELEMENTS", 1)
                    assert_same_bits(AR1(p, rho).whitened_sq_norms(Y), want)
        assert np.array_equal(Y, before)


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, np.inf, np.nan])
def test_ar1_invalid_rho(rho):
    with pytest.raises(InvalidParameterError):
        AR1(5, rho)


@pytest.mark.parametrize("p", [0, -3])
def test_ar1_invalid_p(p):
    with pytest.raises(InvalidParameterError):
        AR1(p, 0.5)


def test_dense_maps_use_symmetric_root_and_cholesky():
    rng = np.random.default_rng(13)
    M = toeplitz_ar1(6, 0.3)
    Z = rng.normal(size=(4, 6))
    cov = Dense(M)
    assert np.array_equal(cov.apply_root(Z), Z @ sqrt_psd(M))
    assert rel_norm(cov.chol @ cov.whiten(Z).T, Z.T) <= 1e-12
    assert as_covariance(cov) is cov
    assert isinstance(as_covariance(M), Dense)
    with pytest.raises(NotPSDError):
        Dense(np.diag([1.0, -0.5])).apply_root(Z[:, :2])


def random_spd(p, rng):
    A = rng.standard_normal((p, p))
    return A @ A.T + p * np.eye(p)


@pytest.mark.parametrize("p", [1, 5, 50, 400])
def test_dense_whiten_is_solve_triangular_bit_for_bit(p):
    # LAPACK dtrtrs in numpy's OpenBLAS, on the Cholesky buffer read as its
    # transpose, gives the bits of scipy's solve_triangular, for a C-ordered,
    # an F-ordered and a strided Y, each left as it is.
    lib = linalg.OPENBLAS.library
    assert lib is not None and lib.dtrtrs is not None  # the direct LAPACK call is what runs
    rng = np.random.default_rng(p)
    for sigma in (random_spd(p, rng), toeplitz_ar1(p, 0.9)):
        cov = Dense(sigma)
        Y = rng.standard_normal((30, p))
        expected = solve_triangular(cov.chol, Y.T, lower=True).T
        wide = np.repeat(Y, 2, axis=1)
        for layout in (Y, np.asfortranarray(Y), wide[:, ::2]):
            before = layout.copy()
            W = cov.whiten(layout)
            assert W.flags.c_contiguous and not np.shares_memory(W, layout)
            assert_same_bits(W, expected)
            assert np.array_equal(layout, before)


def test_dense_whiten_without_the_lapack_symbol_solves_in_numpy(monkeypatch):
    # A library without dtrtrs alone is still driven, for the hold and the
    # AR(1) root: only whitening solves with np.linalg.solve on the factor,
    # equal to dtrtrs up to rounding.
    rng = np.random.default_rng(19)
    cov = Dense(random_spd(50, rng))
    Y = rng.standard_normal((30, 50))
    expected = solve_triangular(cov.chol, Y.T, lower=True).T
    reason = linalg.OPENBLAS.reason
    monkeypatch.setattr(linalg, "_DTRTRS_SYMBOL", "no_such_dtrtrs_64_")
    monkeypatch.setattr(linalg, "OPENBLAS", linalg.OpenBlas())
    W = cov.whiten(Y)
    assert W.flags.c_contiguous and rel_norm(W, expected) <= 1e-12
    lib = linalg.OPENBLAS.library
    assert linalg.OPENBLAS.reason == reason
    assert lib is None or (lib.dtrtrs is None and lib.dtbtrs is not None)


def test_dense_whiten_with_a_zero_pivot_is_typed():
    # LAPACK's nonzero info becomes a package error; a factor from
    # np.linalg.cholesky never has a zero pivot, so one is planted.
    lib = linalg.OPENBLAS.library
    if lib is None or lib.dtrtrs is None:
        pytest.skip(linalg.OPENBLAS.reason or "no dtrtrs in numpy's OpenBLAS")
    cov = Dense(np.eye(3))
    cov.__dict__["chol"] = np.diag([1.0, 0.0, 1.0])
    with pytest.raises(SingularMatrixError, match="info=2"):
        cov.whiten(np.ones((2, 3)))


@pytest.mark.parametrize("scale", [1e50, 1e100, 1e200])
def test_overflow_raises_without_numpy_warnings(scale):
    # The typed error is the only signal; numpy prints nothing to stderr.
    X = np.random.default_rng(14).normal(size=(6, 3)) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cg = centered_gram(X)
            trace_powers(cg.M)
        except InvalidParameterError:
            pass
        trace_powers(np.diag([scale, 1.0]))


def test_centered_gram_underflow_is_typed():
    X = np.random.default_rng(15).normal(size=(6, 3))
    centered_gram(X * 2.0**-200)
    with pytest.raises(InvalidParameterError, match="underflow"):
        centered_gram(X * 2.0**-300)


@pytest.mark.parametrize("one_thread", [False, True], ids=["default-blas", "one-thread-blas"])
@pytest.mark.parametrize("n, p", [(5, 3), (3, 5), (40, 40), (100, 1600), (1000, 100), (64, 63)])
def test_centered_gram_is_exactly_symmetric(n, p, one_thread):
    # centered_gram relies on numpy's X'X and XX' being exactly symmetric,
    # on both Gram sides and under either OpenBLAS thread count.
    X = np.random.default_rng(n + p).normal(size=(n, p)) + 3.0
    Xc = X - X.mean(axis=0)
    with OPENBLAS.one_thread() if one_thread else contextlib.nullcontext():
        M = centered_gram(X).M
        for G in (Xc.T @ Xc, Xc @ Xc.T):
            assert np.array_equal(G, G.T)
    assert np.array_equal(M, M.T)


def test_blas_limit_holds_one_thread_and_restores(fake_blas):
    blas, lib = fake_blas.blas, fake_blas.lib
    assert fake_blas.lookups == 0  # lazy: nothing is looked up until first use
    with blas.one_thread():
        assert lib.count == 1
    assert lib.count == 4
    with pytest.raises(RuntimeError, match="boom"):
        with blas.one_thread():
            assert lib.count == 1
            raise RuntimeError("boom")
    assert lib.count == 4
    assert lib.sets == [1, 4, 1, 4]
    assert fake_blas.lookups == 1 and blas.reason is None and blas.library is lib


def test_blas_limit_overlapping_holders_in_two_threads(fake_blas):
    # The first holder in saves the count and the last one out restores
    # it, exactly once, whichever thread that is.
    blas, lib = fake_blas.blas, fake_blas.lib
    entered, release = threading.Event(), threading.Event()

    def hold():
        with blas.one_thread():
            entered.set()
            assert release.wait(timeout=10)

    other = threading.Thread(target=hold)
    other.start()
    assert entered.wait(timeout=10)
    with blas.one_thread():
        release.set()
        other.join(timeout=10)
        assert not other.is_alive()
        assert lib.count == 1
    assert lib.count == 4
    assert lib.sets == [1, 4]


def test_blas_limit_without_library_is_a_noop_with_reason(monkeypatch):
    real = linalg.OPENBLAS.library
    before = real and real.get()
    monkeypatch.setattr(linalg.glob, "glob", lambda pattern: [])
    blas = linalg.OpenBlas()
    with blas.one_thread():
        assert (real and real.get()) == before
    assert blas.library is None and "no OpenBLAS library" in blas.reason

