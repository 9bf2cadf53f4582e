"""Multi-index enumeration and combinatorics.

A multi-index is a tuple of nonnegative integers alpha with total degree
|alpha| = sum(alpha).  Counts and multinomial weights are exact integer
arithmetic (Python ints promote automatically), so there is no overflow
mode to configure.

The multi-indices of degree k in n variables are listed by stars and bars:
the cut points 0 <= c_1 <= ... <= c_{n-1} <= k give the parts
alpha = (c_1, c_2 - c_1, ..., k - c_{n-1}), and cut points in ascending
lexicographic order give parts in ascending lexicographic order.  They are
turned into parts in numpy blocks of at most BLOCK_ENTRIES cut points each.
"""

import math
from itertools import chain, combinations_with_replacement, islice

import numpy as np

from .errors import CapacityError, ParameterError

ENUMERATION_CAP = 10**8
# Cut points per block; bounds the arrays held besides the listing itself.
BLOCK_ENTRIES = 1 << 12


def validate(alpha):
    if len(alpha) < 1:
        raise ParameterError("multi-index must have at least one part")
    if any((not isinstance(a, int)) or a < 0 for a in alpha):
        raise ParameterError(f"multi-index parts must be nonnegative integers: {alpha}")


def count(n, k):
    """Number of multi-indices of degree k in n variables, C(n+k-1, k)."""
    if n < 1 or k < 0:
        raise ParameterError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    return math.comb(n + k - 1, k)


def _blocks(n, k):
    """The multi-indices of degree k in n variables as int64 arrays of
    shape (rows, n), lexicographically ascending within and across blocks.

    Raises CapacityError, before any block is built, when the count
    exceeds ENUMERATION_CAP.
    """
    total = count(n, k)
    if total > ENUMERATION_CAP:
        raise CapacityError(f"enumerate({n}, {k}) has {total} indices, cap is {ENUMERATION_CAP}")
    cuts = chain.from_iterable(combinations_with_replacement(range(k + 1), n - 1))
    step = max(1, BLOCK_ENTRIES // max(1, n - 1))
    for start in range(0, total, step):
        rows = min(step, total - start)
        # each row 0, c_1, ..., c_{n-1}, k; the parts are its differences
        block = np.empty((rows, n + 1), np.int64)
        block[:, 0], block[:, n] = 0, k
        flat = np.fromiter(islice(cuts, rows * (n - 1)), np.int64, rows * (n - 1))
        block[:, 1:n] = flat.reshape(rows, n - 1)
        yield block[:, 1:] - block[:, :-1]


def enumerate_degree(n, k):
    """All multi-indices with |alpha| = k in n variables, as a list of
    tuples of Python ints.

    Order is lexicographically descending on the parts, e.g.
    (2,0), (1,1), (0,2) for n = k = 2.  Listed by stars and bars in
    blocks (see the module docstring), then reversed once.  Raises
    CapacityError, before listing anything, when the count exceeds
    ENUMERATION_CAP.
    """
    rows = []
    for parts in _blocks(n, k):
        rows.extend(zip(*parts.T.tolist()))
    rows.reverse()
    return rows


def multinomial_weight(alpha):
    """The multinomial coefficient k!/alpha! for k = |alpha|, exact."""
    validate(alpha)
    k = sum(alpha)
    w = math.factorial(k)
    for a in alpha:
        w //= math.factorial(a)
    return w


# Slack applied to the floating-point right-hand sides so that an inequality
# that holds exactly is never reported false through downward rounding.
_UPWARD = 1.0 + 1e-12


def count_and_bound(n, k):
    """Exact count C(n+k-1, k) plus the two-step upper-bound chain check.

    Returns (count, bound_ok) where bound_ok is True iff
    C(n+k-1,k) <= e^k (1+n/k)^k <= (2e)^k max{1, (n/k)^k}
    holds in floating point with upward-rounded right-hand sides.
    """
    if k < 1:
        raise ParameterError(f"count_and_bound needs k >= 1, got k={k}")
    c = count(n, k)
    # log-space keeps the middle/right terms finite for large n, k
    log_mid = k * (1.0 + math.log1p(n / k))
    log_right = k * (math.log(2.0) + 1.0) + max(0.0, k * math.log(n / k))
    ok = (math.log(c) <= log_mid + math.log(_UPWARD)) and (
        log_mid <= log_right + math.log(_UPWARD)
    )
    return c, ok


def _factorials(k):
    """Arrays (mant, expo) with a! = mant[a] * 2**expo[a], 1 <= mant[a] < 2,
    for a = 0..k.

    A float table of a! would overflow from a = 171 on.  The mantissas come
    from a running product, so they are exact while a! has at most 53
    significant bits (a <= 22) and within a * 2**-53 relative beyond.
    """
    mant = np.ones(k + 1)
    expo = np.zeros(k + 1, dtype=np.int64)
    for a in range(2, k + 1):
        m, e = math.frexp(mant[a - 1] * a)
        mant[a], expo[a] = 2.0 * m, expo[a - 1] + e - 1
    return mant, expo


def multinomial_identity_residual(x, k):
    """Relative residual of sum_{|alpha|=k} (k!/alpha!) x^alpha = (sum x_i)^k.

    The left side is summed over the enumeration blocks as arrays, with
    each weight k!/alpha! from a factorial table and each term formed in
    the order float(weight) * x_1^alpha_1 * ... * x_n^alpha_n.  Raises
    ParameterError for an entry of x that is negative or not finite, or
    when a weight or (sum x_i)^k exceeds the float range.
    """
    if k < 1:
        raise ParameterError(f"need k >= 1, got k={k}")
    x = [float(xi) for xi in x]
    if not all(math.isfinite(xi) and xi >= 0 for xi in x):
        raise ParameterError("entries of x must be finite and nonnegative")
    try:
        rhs = sum(x) ** k
    except OverflowError:
        raise ParameterError(f"(sum x_i)^{k} exceeds the float range") from None
    mant, expo = _factorials(k)
    powers = np.power.outer(x, np.arange(k + 1))  # powers[i, a] = x_i ** a
    lhs = 0.0
    for parts in _blocks(len(x), k):
        m, e = np.frexp(mant[k] / mant[parts].prod(axis=1))
        e += expo[k] - expo[parts].sum(axis=1)
        if e.max() > 1024:
            raise ParameterError(f"a multinomial weight of degree {k} exceeds the float range")
        terms = np.ldexp(m, e)
        for i, column in enumerate(parts.T):
            terms *= powers[i, column]
        lhs += float(terms.sum())
    return abs(lhs - rhs) / max(1.0, rhs)
