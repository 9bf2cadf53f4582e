"""Multi-index enumeration and combinatorics.

A multi-index is a tuple of nonnegative integers alpha with total degree
|alpha| = sum(alpha).  Counts and multinomial weights are exact integer
arithmetic (Python ints promote automatically), so there is no overflow
mode to configure.

The multi-indices of degree k in n variables are listed as numpy arrays
that hold part i of each multi-index in row i, lexicographically
descending.  They come from one table: the multi-indices of degree <= k in
m parts, by degree and lexicographically descending within each degree,
ends[j] of them of degree <= j.  Splitting the last part d of a
multi-index h over one more part and the m parts of the table gives
[h[:-1], d - |t|, t] for t among the first ends[d] entries of the table,
lexicographically descending.  So the table in m + 1 parts is split from
the degrees 0..k, and the listing in n parts from the listing in n - m
parts, which for n - m <= m is the end of the table itself.  A split is a
fixed handful of numpy calls at any k: a running sum, an arange-minus-
repeat gather index and one gather.  m is at most n/2, past which a larger
table only costs more to build, and the table has no more entries than a
listing chunk of CHUNK_BYTES.  Parts are int8 for k < 2**7, int16 for
k < 2**15 and wider above; enumerate_degree turns the multi-indices into
tuples of Python ints through struct.
"""

import math
import operator
import struct

import numpy as np

from .errors import CapacityError, ParameterError

ENUMERATION_CAP = 10**8
# Bytes of one listing chunk, side arrays included.  The table is smaller
# than a chunk of as many entries, so this bounds the arrays held besides
# the listing itself.
CHUNK_BYTES = 1 << 20


def validate(alpha):
    if len(alpha) < 1:
        raise ParameterError("multi-index must have at least one part")
    # exactly int: a bool would pass isinstance, and to_json cannot write a numpy int
    if any(type(a) is not int or a < 0 for a in alpha):
        raise ParameterError(f"multi-index parts must be nonnegative integers: {alpha}")


def checked_int(name, value, least):
    """value as an int; ParameterError unless it is an integer, not a bool,
    and at least `least`."""
    if type(value) is not int:  # bools take this path too
        try:
            if isinstance(value, bool):
                raise TypeError  # operator.index takes bools as ints
            value = operator.index(value)
        except TypeError:
            raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ParameterError(f"need {name} >= {least}, got {value}")
    return value


def _checked(n, k):
    """(n, k) as ints; ParameterError unless both are integers, not bools,
    with n >= 1 and k >= 0."""
    return checked_int("n", n, 1), checked_int("k", k, 0)


def count(n, k):
    """Number of multi-indices of degree k in n variables, C(n+k-1, k)."""
    n, k = _checked(n, k)
    return math.comb(n + k - 1, k)


def _split(heads, sizes, table, deg):
    """Split the last part d of each column h of heads over one more part
    and the parts of table: the columns [h[:-1], d - |t|, t] for t in the
    first sizes[i] columns of table, h in order, then t in table order.
    deg holds |t|.  Returns the columns, the degree d of each, and the count
    of columns up to and including each head's.
    """
    ends = np.add.accumulate(sizes)
    col = np.arange(ends[-1], dtype=np.int32)
    col -= (ends - sizes).repeat(sizes)
    degree = heads[-1].repeat(sizes)
    h = len(heads)
    out = np.empty((h + len(table), len(col)), table.dtype)
    if h > 1:
        out[: h - 1] = heads[:-1].repeat(sizes, axis=1)
    np.subtract(degree, deg.take(col), out=out[h - 1])
    table.take(col, axis=1, out=out[h:], mode="clip")
    return out, degree, ends


def _listing(n, k):
    """The multi-indices of degree k in n variables as arrays of shape
    (n, count), part i of each in row i, lexicographically descending
    within and across chunks.

    Raises CapacityError, before anything is built, when the count exceeds
    ENUMERATION_CAP.
    """
    n, k = _checked(n, k)
    total = math.comb(n + k - 1, k)
    if total > ENUMERATION_CAP:
        raise CapacityError(f"enumerate({n}, {k}) has {total} indices, cap is {ENUMERATION_CAP}")
    dtype = np.min_scalar_type(-k - 1)  # the narrowest signed type for 0..k
    if n == 1:
        return iter([np.full((1, 1), k, dtype)])
    # bytes per chunk column: the column and its row-major copy, the
    # repeated heads, two degree temporaries and two int32 gather indices
    limit = CHUNK_BYTES // ((3 * n + 1) * dtype.itemsize + 8)
    # from m >= n/2 parts on, the listing is one split of the table's own
    # columns; a larger table would only cost more to build
    m = 1
    while 2 * m < n and math.comb(m + 1 + k, k) <= limit:
        m += 1
    degrees = table = np.arange(k + 1, dtype=dtype)[None, :]  # in one part
    deg, ends = table[0], np.arange(1, k + 2, dtype=np.int32)
    for _ in range(m - 1):
        table, deg, ends = _split(degrees, ends, table, deg)
    limit = max(limit, len(deg))
    # the listing in p <= m parts: the multi-indices of degree k with m - p
    # leading zeros end the table
    p = (n - 1) % m + 1
    chunks = iter([table[m - p :, len(deg) - math.comb(p + k - 1, k) :]])
    for _ in range((n - p) // m):
        chunks = _split_chunks(chunks, table, deg, ends, limit)
    return chunks


def _split_chunks(chunks, table, deg, ends, limit):
    """Split each chunk of heads over the table (see _split), in chunks of
    at most limit columns, or one head's if that is more."""
    for heads in chunks:
        sizes = ends[heads[-1]]
        cum = sizes.cumsum()
        start = 0
        while start < len(sizes):
            stop = cum.searchsorted(cum[start] - sizes[start] + limit, "right")
            yield _split(heads[:, start:stop], sizes[start:stop], table, deg)[0]
            start = stop


def enumerate_degree(n, k):
    """All multi-indices with |alpha| = k in n variables, as a list of
    tuples of Python ints.

    Order is lexicographically descending on the parts, e.g.
    (2,0), (1,1), (0,2) for n = k = 2.  Listed as arrays (see the module
    docstring) and unpacked row by row.  Raises ParameterError for a bool
    or non-integer n or k, and CapacityError, before listing anything, when
    the count exceeds ENUMERATION_CAP.
    """
    n, k = _checked(n, k)
    if n == 1:
        return [(k,)]  # the one index, whose part may exceed every numpy integer type
    rows = []
    for chunk in _listing(n, k):
        unpack = struct.Struct(f"{len(chunk)}{chunk.dtype.char}").iter_unpack
        rows.extend(unpack(np.ascontiguousarray(chunk.T)))
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
    n, k = _checked(n, k)
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
    mant, expo = [1.0], [0]
    for a in range(1, k + 1):
        m, e = math.frexp(mant[-1] * a)
        mant.append(2.0 * m)
        expo.append(expo[-1] + e - 1)
    return np.array(mant), np.array(expo)


def multinomial_identity_residual(x, k):
    """Relative residual of sum_{|alpha|=k} (k!/alpha!) x^alpha = (sum x_i)^k.

    The left side is summed over the listing's chunks as arrays, with
    each weight k!/alpha! from a factorial table and each term formed in
    the order float(weight) * x_1^alpha_1 * ... * x_n^alpha_n.  Raises
    ParameterError for an entry of x that is negative or not finite, or
    when a weight or (sum x_i)^k exceeds the float range, and
    CapacityError, before any table is built, when the count or the
    n (k + 1) entries of the power table exceed ENUMERATION_CAP.
    """
    n, k = _checked(len(x), k)
    if k < 1:
        raise ParameterError(f"need k >= 1, got k={k}")
    x = [float(xi) for xi in x]
    if not all(math.isfinite(xi) and xi >= 0 for xi in x):
        raise ParameterError("entries of x must be finite and nonnegative")
    try:
        rhs = sum(x) ** k
    except OverflowError:
        raise ParameterError(f"(sum x_i)^{k} exceeds the float range") from None
    if n * (k + 1) > ENUMERATION_CAP:
        raise CapacityError(f"the {n} x {k + 1} power table exceeds the cap {ENUMERATION_CAP}")
    chunks = _listing(n, k)  # refuses a count over the cap
    mant, expo = _factorials(k)
    powers = np.power.outer(x, np.arange(k + 1))  # powers[i, a] = x_i ** a
    offsets = np.arange(0, powers.size, k + 1)[:, None]  # flat index of powers[i, 0]
    lhs = 0.0
    for parts in chunks:
        m, e = np.frexp(mant[k] / mant.take(parts).prod(axis=0))
        e += expo[k] - expo.take(parts).sum(axis=0)
        if e.max() > 1024:
            raise ParameterError(f"a multinomial weight of degree {k} exceeds the float range")
        # row 0 the weights, row 1 + i the powers x_i^alpha_i; the product
        # over axis 0 multiplies them in that order
        factors = np.empty((n + 1, parts.shape[1]))
        np.ldexp(m, e, out=factors[0])
        powers.take(parts + offsets, out=factors[1:], mode="clip")
        lhs += float(factors.prod(axis=0).sum())
    return abs(lhs - rhs) / max(1.0, rhs)
