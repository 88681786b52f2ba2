import contextlib
import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellipkurt import (
    InvalidParameterError,
    NotPSDError,
    sqrt_psd,
    toeplitz_ar1,
    trace_powers,
)
from ellipkurt import linalg
from ellipkurt.linalg import (
    AR1,
    BLAS_LIMIT,
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


@pytest.mark.parametrize(
    "X", [np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf, 1.0]]),
          np.array([[1.0], [-np.inf]]), np.array([[np.nan, np.inf], [-np.inf, 2.0]]),
          np.array([[np.inf, -np.inf]]), np.ones(3), np.ones((0, 3)), np.ones((3, 0)),
          np.ones((2, 2, 2))],
    ids=["nan", "inf", "-inf", "mixed", "+-inf", "1-d", "empty", "no-columns", "3-d"],
)
def test_centered_gram_rejects_non_finite_and_non_matrix(X):
    # The typed error is the only signal: no numpy warning of any kind.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (as_data_matrix, centered_gram):
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
    # exactly where the rounded sum overflows.
    want = correctly_rounded_sum(values)
    for order in (values, values[::-1]):
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
    with BLAS_LIMIT.one_thread() if one_thread else contextlib.nullcontext():
        M = centered_gram(X).M
        for G in (Xc.T @ Xc, Xc @ Xc.T):
            assert np.array_equal(G, G.T)
    assert np.array_equal(M, M.T)


def test_blas_limit_holds_one_thread_and_restores(fake_blas):
    limit = fake_blas.limit
    assert fake_blas.lookups == 0  # lazy: nothing is looked up until first use
    with limit.one_thread():
        assert [lib.count for lib in fake_blas.libs] == [1, 1]
    assert [lib.count for lib in fake_blas.libs] == [4, 4]
    with pytest.raises(RuntimeError, match="boom"):
        with limit.one_thread():
            assert [lib.count for lib in fake_blas.libs] == [1, 1]
            raise RuntimeError("boom")
    assert [lib.count for lib in fake_blas.libs] == [4, 4]
    assert [lib.sets for lib in fake_blas.libs] == [[1, 4, 1, 4]] * 2
    assert fake_blas.lookups == 1 and limit.reason is None


def test_blas_limit_overlapping_holders_in_two_threads(fake_blas):
    # The first holder in saves the counts and the last one out restores
    # them, exactly once, whichever thread that is.
    limit = fake_blas.limit
    entered, release = threading.Event(), threading.Event()

    def hold():
        with limit.one_thread():
            entered.set()
            assert release.wait(timeout=10)

    other = threading.Thread(target=hold)
    other.start()
    assert entered.wait(timeout=10)
    with limit.one_thread():
        release.set()
        other.join(timeout=10)
        assert not other.is_alive()
        assert [lib.count for lib in fake_blas.libs] == [1, 1]
    assert [lib.count for lib in fake_blas.libs] == [4, 4]
    assert [lib.sets for lib in fake_blas.libs] == [[1, 4]] * 2


def test_blas_limit_without_library_is_a_noop_with_reason(monkeypatch):
    real = linalg.find_openblas()[0]
    before = [lib.get() for lib in real]
    monkeypatch.setattr(linalg.glob, "glob", lambda pattern: [])
    libs, reason = linalg.find_openblas()
    assert libs == [] and "no OpenBLAS library" in reason
    limit = linalg.BlasThreadLimit()
    with limit.one_thread():
        assert [lib.get() for lib in real] == before
    assert limit.reason == reason

