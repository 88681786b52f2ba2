"""Fourth-order U-statistics over pairwise differences, and the kurtosis
estimator built from them.

For rows X_1, ..., X_n the three statistics average, over all ordered
quadruples (i, j, k, l) of distinct indices and with normalization
1 / (4 n (n-1) (n-2) (n-3)),

    t1 kernel: (||X_i - X_j||^2 - ||X_k - X_l||^2)^2
    t2 kernel: ||X_i - X_j||^2 * ||X_k - X_l||^2
    t3 kernel: ((X_i - X_j)^T (X_k - X_l))^2

and the kurtosis estimate is (t1 + t2 - 2 t3) / (t2 + 2 t3).

Two implementations are shipped. :func:`ustats_bruteforce` enumerates the
quadruples directly and is the reference oracle; it costs O(n^4 p) and is
only usable for small n. :func:`ustats_fast` evaluates the same sums in
O(n p min(n, p)) through inclusion-exclusion on index coincidences; the
differential test between the two is the correctness argument for the
reduction, so the brute force is part of the public API rather than
test-only code (see :func:`ellipkurt.validation.ustat_differential`).

Derivation of the fast path
---------------------------
Work with rows centered by the column mean (a no-op for all three kernels,
which only see differences, but it shrinks cancellation error). Let H be
the n x n Gram matrix of the centered rows, g = diag(H), and
D_ij = g_i + g_j - 2 H_ij the squared distances. Write

    T = sum_i g_i      t = sum_i g_i^2      W = sum_{i,j} H_ij^2
    S1 = sum_{i != j} D_ij        S2 = sum_{i != j} D_ij^2
    Q  = sum_i (row sum of D)^2   N  = n (n-1) (n-2) (n-3).

Every kernel vanishes when i == j or k == l, so extending a sum over
distinct quadruples to a free sum only adds tuples where the pairs {i, j}
and {k, l} overlap in one index (four patterns) or two (two patterns).
Subtracting those overlap sums gives

    sum_distinct D_ij D_kl = S1^2 - 4 Q + 2 S2
    sum_distinct (D_ij - D_kl)^2 = 2 (n-2)(n-3) S2 - 2 (S1^2 - 4 Q + 2 S2)

and, for the inner-product kernel e = H_ik - H_il - H_jk + H_jl (free sum
4 n^2 W; one-index overlaps 4 (n^2 t + 3 n W - S2); two-index overlaps
2 S2),

    sum_distinct e^2 = 4 n^2 (W - t) - 12 n W + 2 S2.

Because the rows are centered, every row sum of H vanishes, so the sums
over D close in T, t and W (D_ii = 0, so free sums equal sums over i != j):

    S1 = 2 n T
    row sum i of D = n g_i + T
    S2 = 2 n t + 2 T^2 + 4 W
    Q  = n^2 t + 3 n T^2.

D is never formed. W = ||H||_F^2 equals ||Xc' Xc||_F^2, so the helper
:func:`ellipkurt.linalg.centered_gram` takes whichever Gram matrix is
smaller. Dividing by 4N yields t1, t2, t3. T, t and W are
:func:`ellipkurt.linalg.exact_sum` reductions, correctly rounded and
independent of accumulation order.

The same summary (T, t, W, g and the Gram matrix) is what the plug-in
baselines and the case-2 moment ratios read, so a caller holding a sample
builds it once with ``centered_gram(X)`` and passes that object to
:func:`ustats_fast` and to them; given raw data, each builds it itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientSampleError
from .linalg import as_data_matrix, centered_gram, exact_sum, require_finite

# Denominators below DEGENERACY_RTOL * max(|t1|, t2) are treated as exact
# degeneracy (all rows coincident) rather than a small estimate. The floor
# is relative, so it is blind to the data's scale.
DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class UStats:
    """The three fourth-order statistics plus sample metadata."""

    t1: float
    t2: float
    t3: float
    n: int
    p: int


@dataclass(frozen=True)
class KurtosisEstimate:
    """Kurtosis point estimate together with the statistics it came from."""

    theta_hat: float
    ustats: UStats


def _require_fourth_order(n: int) -> None:
    if n < 4:
        raise InsufficientSampleError(
            f"need at least 4 observations for fourth-order statistics, got {n}"
        )


def ustats_bruteforce(X) -> UStats:
    """Reference evaluation by direct enumeration of distinct quadruples.

    O(n^4 p): every kernel value is recomputed from the raw rows, sharing
    no intermediate quantities with the fast path. Use for differential
    testing and small-sample verification only. Raises
    :class:`InvalidParameterError` when the data's scale overflows, as the
    fast path does.
    """
    X, _ = as_data_matrix(X)
    n, p = X.shape
    _require_fourth_order(n)
    acc1, acc2, acc3 = [], [], []
    # An overflow shows as inf (or as NaN, from inf - inf) and raises
    # through exact_sum.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j, k, l in itertools.permutations(range(n), 4):
            d1 = X[i] - X[j]
            d2 = X[k] - X[l]
            a = float(d1 @ d1)
            b = float(d2 @ d2)
            c = float(d1 @ d2)
            try:
                acc1.append((a - b) ** 2)
            except OverflowError:  # float ** raises where a product gives inf
                acc1.append(math.inf)
            acc2.append(a * b)
            acc3.append(c * c)
    norm = 4.0 * n * (n - 1) * (n - 2) * (n - 3)
    return UStats(
        t1=exact_sum(acc1) / norm,
        t2=exact_sum(acc2) / norm,
        t3=exact_sum(acc3) / norm,
        n=n,
        p=p,
    )


def ustats_fast(X) -> UStats:
    """O(n p min(n, p)) evaluation via the centered-Gram reduction.

    ``X`` is the data matrix or its :class:`ellipkurt.linalg.CenteredGram`
    summary; both give the same floats. Agrees with
    :func:`ustats_bruteforce` to floating-point accuracy; the module
    docstring derives the identities. Raises
    :class:`InvalidParameterError` when the data's scale overflows.
    """
    cg = centered_gram(X)
    n = cg.n
    _require_fourth_order(n)
    T, t, W = cg.T, cg.t, cg.W
    S1 = 2.0 * n * T
    S2 = 2.0 * n * t + 2.0 * T * T + 4.0 * W
    Q = n * n * t + 3.0 * n * T * T
    N = float(n * (n - 1) * (n - 2) * (n - 3))
    pair_products = S1 * S1 - 4.0 * Q + 2.0 * S2
    t2 = pair_products / (4.0 * N)
    t1 = ((n - 2) * (n - 3) * S2 - pair_products) / (2.0 * N)
    t3 = (2.0 * n * n * (W - t) - 6.0 * n * W + S2) / (2.0 * N)
    require_finite(t1, t2, t3)
    return UStats(t1=t1, t2=t2, t3=t3, n=n, p=cg.p)


def theta_hat(u: UStats) -> KurtosisEstimate:
    """Kurtosis estimate (t1 + t2 - 2 t3) / (t2 + 2 t3).

    Raises :class:`DegenerateDataError` when the denominator is at most
    DEGENERACY_RTOL * max(|t1|, t2), which happens exactly when all
    observations (nearly) coincide.
    """
    den = u.t2 + 2.0 * u.t3
    if den <= DEGENERACY_RTOL * max(abs(u.t1), u.t2):
        raise DegenerateDataError(
            "denominator t2 + 2 t3 is numerically zero; data are degenerate"
        )
    return KurtosisEstimate(theta_hat=(u.t1 + u.t2 - 2.0 * u.t3) / den, ustats=u)


def estimate_kurtosis(X) -> KurtosisEstimate:
    """Convenience wrapper: fast-path statistics plus point estimate in one
    call. ``X`` is the data matrix or its centered Gram summary."""
    return theta_hat(ustats_fast(X))
