"""The contract of every data entry point: a finite result or an
``EllipkurtError``, never NaN, inf, a warning or a bare Python exception,
whatever the input; and where both succeed, the fast U-statistics agree
with the brute force. Parameters of the wrong type or value raise an
``EllipkurtError`` too."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  (imported here, so that no import warns inside a call)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ellipkurt import (
    AR1,
    EllipkurtError,
    ExperimentConfig,
    centered_gram,
    dof_hat,
    estimate_kurtosis,
    oracle_theta,
    plugin_moments_case2,
    replication_rng,
    run_experiments,
    toeplitz_ar1,
    ustats_bruteforce,
    ustats_fast,
    wl_theta,
)
from ellipkurt.validation import MAX_REL_ERR


@st.composite
def scaled_matrices(draw):
    """Real matrices of 0 to 8 rows and 1 to 4 columns: small integers plus
    an offset, times 10**e for e in -308..308 (so some overflow to inf) or,
    as often, in -20..20, and in one matrix of four up to two entries set
    to NaN or an infinity."""
    n, p = draw(st.integers(0, 8)), draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, p), elements=st.integers(-9, 9).map(float)))
    e = draw(st.one_of(st.integers(-20, 20), st.integers(-308, 308)))
    with np.errstate(over="ignore"):
        X = (X + draw(st.integers(-100, 100))) * 10.0**e
    if n and draw(st.integers(0, 3)) == 0:
        for _ in range(draw(st.integers(1, 2))):
            X[draw(st.integers(0, n - 1)), draw(st.integers(0, p - 1))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
    return X


@st.composite
def huge_int_matrices(draw):
    """Object arrays of Python integers, some beyond the double range."""
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-10**400, 10**400), min_size=p, max_size=p),
                         min_size=n, max_size=n))
    X = np.empty((n, p), dtype=object)
    X[:] = rows
    return X


ODD_INPUTS = [
    [[1.0, 2.0], [3.0]],  # ragged
    [[1.0, 2.0, 3.0], [4.0, 5.0], [6.0]],
    "1,2\n3,4",
    b"\x00\x01\x02",
    np.array([["1", "2"], ["3", "4"], ["5", "6"], ["7", "9"]]),
    np.array([[b"1", b"2"], [b"3", b"4"], [b"5", b"6"], [b"7", b"9"]]),
    np.array([[1.0, "a"], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]], dtype=object),
    np.array([[1.0, None], [2.0, 3.0], [4.0, 5.0], [6.0, 8.0]], dtype=object),
    None,
    3.5,
    np.arange(6.0),  # 1-d
    np.ones((2, 3, 4)),  # 3-d
    np.empty((0, 3)),
    np.empty((5, 0)),
]

# Numbers written as text, in text arrays and in object arrays: the dtype
# gate rejects them whatever container they arrive in.
TEXT = st.one_of(
    scaled_matrices().map(lambda X: X.astype(str)),
    scaled_matrices().map(lambda X: X.astype(bytes)),
    scaled_matrices().map(lambda X: X.astype(str).astype(object)),
    scaled_matrices().map(lambda X: X.astype(bytes).astype(object)),
    st.sampled_from([
        np.array([["1.5", "2"], ["3", "4"], ["5", "6"], ["7", "9"]], dtype=object),
        np.array([[b"1.5", b"2"], [b"3", b"4"], [b"5", b"6"], [b"7", b"9"]], dtype=object),
        np.array([[1.5, 2.0], [3.0, "4"], [5.0, 6.0], [7.0, 9.0]], dtype=object),
    ]),
)

# Real matrices, and matrices no float conversion takes as they are.
NUMERIC = st.one_of(
    scaled_matrices(),
    arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(1, 4)),
           elements=st.floats(width=64)),  # any double, subnormals included
)
ODD = st.one_of(
    scaled_matrices().map(lambda X: X.tolist()),
    scaled_matrices().map(lambda X: X.astype(object)),
    scaled_matrices().map(lambda X: X + 1j),
    scaled_matrices().map(lambda X: X.astype(complex)),  # zero imaginary parts
    TEXT,
    huge_int_matrices(),
    st.sampled_from(ODD_INPUTS),
)


def _columns(X) -> int:
    return X.shape[1] if isinstance(X, np.ndarray) and X.ndim == 2 and X.shape[1] else 2


# Each entry point, called on the data, and the floats of its result.
ENTRY_POINTS = {
    "estimate_kurtosis": lambda X: (lambda e: [e.theta_hat, e.ustats.t1, e.ustats.t2,
                                               e.ustats.t3])(estimate_kurtosis(X)),
    "ustats_fast": lambda X: (lambda u: [u.t1, u.t2, u.t3])(ustats_fast(X)),
    "ustats_bruteforce": lambda X: (lambda u: [u.t1, u.t2, u.t3])(ustats_bruteforce(X)),
    "wl_theta": lambda X: [wl_theta(X)],
    "plugin_moments_case2": lambda X: (lambda m: [m.varrho_hat, m.varphi_hat])(
        plugin_moments_case2(X)),
    "centered_gram": lambda X: (lambda cg: [cg.x_max, cg.T, cg.t, cg.W, *cg.g.tolist(),
                                            *cg.M.ravel().tolist()])(centered_gram(X)),
    "oracle_theta (AR1)": lambda X: [oracle_theta(X, np.zeros(_columns(X)),
                                                  AR1(_columns(X), 0.5))],
    "oracle_theta (dense)": lambda X: [oracle_theta(X, np.zeros(_columns(X)),
                                                    np.eye(_columns(X)))],
}


def _call(name, X):
    """The finite floats of ``name``'s result on X, or None when it raised
    an EllipkurtError; anything else fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = ENTRY_POINTS[name](X)
        except EllipkurtError:
            return None
    for v in values:
        assert type(v) is float and math.isfinite(v), (name, v)
    return values


def check_contract(X):
    """Every entry point on X gives finite floats or raises its own error,
    and where both succeed, ustats_fast matches ustats_bruteforce."""
    results = {name: _call(name, X) for name in ENTRY_POINTS}
    fast, brute = results["ustats_fast"], results["ustats_bruteforce"]
    if fast is not None and brute is not None:
        # Relative to the largest statistic: the fast path forms all three
        # from the same sums, so a statistic that is exactly zero (t2 and t3
        # of n = 4 rows of which three coincide) comes out as rounding noise
        # of the others' size, never as a relative match.
        scale = max(map(abs, fast + brute))
        for a, b in zip(fast, brute):
            assert abs(a - b) <= MAX_REL_ERR * scale, (fast, brute)


@settings(max_examples=400, deadline=None)
@given(NUMERIC)
def test_entry_points_on_real_matrices_return_finite_floats_or_raise_their_own_error(X):
    check_contract(X)


@settings(max_examples=300, deadline=None)
@given(ODD)
def test_entry_points_on_odd_input_return_finite_floats_or_raise_their_own_error(X):
    check_contract(X)


@settings(max_examples=100, deadline=None)
@given(TEXT)
def test_entry_points_reject_numbers_written_as_text(X):
    for name in ENTRY_POINTS:
        assert _call(name, X) is None, name


def _config(**kw):
    return ExperimentConfig(**{"family": "normal", "p_list": (5,), "n": 8, "reps": 2, **kw})


BAD_PARAMETERS = {
    "AR1 float p": lambda: AR1(5.5, 0.5),
    "AR1 text rho": lambda: AR1(5, "x"),
    "toeplitz_ar1 text p": lambda: toeplitz_ar1("5", 0.5),
    "config rho None": lambda: _config(rho=None),
    "config p_list int": lambda: _config(p_list=5),
    "config methods None": lambda: _config(methods=None),
    "config ci_methods None": lambda: _config(ci_methods=None),
    "config family array": lambda: _config(family=np.array(["normal", "t"])),
    "workers float": lambda: run_experiments([_config()], workers=1.5),
    "workers text": lambda: run_experiments([_config()], workers="2"),
    "dof_hat nan": lambda: dof_hat(math.nan),
    "replication_rng negative seed": lambda: replication_rng(-1, 0, 5, 0),
}


@pytest.mark.parametrize("case", BAD_PARAMETERS)
def test_bad_parameters_raise_their_own_error(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EllipkurtError):
            BAD_PARAMETERS[case]()


def test_no_configs_run_no_replications():
    assert run_experiments([]) == ([], [])
