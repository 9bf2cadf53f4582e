"""Multi-index enumeration and combinatorics.

A multi-index is a tuple of nonnegative integers alpha with total degree
|alpha| = sum(alpha).  Everything here is exact integer arithmetic (Python
ints promote automatically), so there is no overflow mode to configure.
"""

import math

from .errors import CapacityError, ParameterError

ENUMERATION_CAP = 10**8


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


def enumerate_degree(n, k):
    """All multi-indices with |alpha| = k in n variables.

    Order is lexicographically descending on the parts, e.g.
    (2,0), (1,1), (0,2) for n = k = 2.  Raises CapacityError when the
    count exceeds ENUMERATION_CAP.
    """
    total = count(n, k)
    if total > ENUMERATION_CAP:
        raise CapacityError(f"enumerate({n}, {k}) has {total} indices, cap is {ENUMERATION_CAP}")

    def gen(m, rem):
        if m == 1:
            yield (rem,)
            return
        for first in range(rem, -1, -1):
            for rest in gen(m - 1, rem - first):
                yield (first,) + rest

    return list(gen(n, k))


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


def multinomial_identity_residual(x, k):
    """Relative residual of sum_{|alpha|=k} (k!/alpha!) x^alpha = (sum x_i)^k."""
    if k < 1:
        raise ParameterError(f"need k >= 1, got k={k}")
    if any(xi < 0 for xi in x):
        raise ParameterError("entries of x must be nonnegative")
    n = len(x)
    lhs = 0.0
    for alpha in enumerate_degree(n, k):
        term = float(multinomial_weight(alpha))
        for xi, ai in zip(x, alpha):
            term *= xi**ai
        lhs += term
    rhs = sum(x) ** k
    return abs(lhs - rhs) / max(1.0, rhs)
