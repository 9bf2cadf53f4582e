"""Independent checks of the library's outputs.

Every function here recomputes the expected answer from the problem
statement alone (closed forms, polynomial roots, a grid-plus-SLSQP
maximizer, high-precision series) and never calls into bohrlab, so a
check cannot inherit the fault it is meant to catch.  Each returns True
when the output is correct.  scipy and mpmath are imported lazily so that
the benchmark's peak-memory figure is taken before they are loaded.
"""

import math
import operator
from itertools import islice

import numpy as np

# The solvers stop when their bisection bracket is narrower than 1e-10
# (radius) or 1e-12 (certificates); a correct midpoint is within half that.
RADIUS_TOL = 1e-10
# Relative agreement of the ball oracle's majorant with 1 at the returned
# radius; a radius moved by 1e-6 shifts the majorant by more than 5e-7.
BALL_TOL = 1e-8
# Relative (and, for values near 0, absolute) tolerance for closed forms
# evaluated in floating point.
CLOSED_TOL = 1e-12
CLOSED_ABS = 1e-12
# Acceptance tolerance for the exact-h2 fitted exponent.
FIT_TOL = 1e-3
TOP_RADIUS = 1.0 - 1e-9
CERT_SLACK = 1e-12


def _mp():
    import mpmath

    mpmath.mp.dps = 40
    return mpmath


def close(got, want, rel=CLOSED_TOL, abs_=0.0):
    return (
        isinstance(got, (int, float))
        and math.isfinite(got)
        and abs(got - want) <= abs_ + rel * abs(want)
    )


# ----------------------------------------------------------------- polydisk


def moebius_radius(a):
    """1/(1+a-a^2): the p = 1 radius of the disk automorphism (a-z)/(1-az)."""
    return 1.0 / (1.0 + a - a * a)


def h2_radius(n, p):
    """(1 - 2^(-1/n))^(1/p - 1/2) in 40-digit arithmetic."""
    mp = _mp()
    return float((1 - mp.power(2, -mp.mpf(1) / n)) ** (mp.mpf(1) / p - mp.mpf(1) / 2))


def degree_sums(entries, p):
    """{k: sum over |alpha| = k >= 1 of value^p} from an entry dict."""
    sums = {}
    for alpha, value in entries.items():
        k = sum(alpha)
        if k >= 1 and value > 0.0:
            sums[k] = sums.get(k, 0.0) + value**p
    return sums


def polynomial_radius(sums, p):
    """Radius where P(r^p) = 1 for P(x) = sum_k sums[k] x^k, or 1.0 when
    P(TOP_RADIUS^p) <= 1 (the solver's saturation rule)."""
    degree = max(sums)
    coeffs = np.zeros(degree + 1)
    for k, s in sums.items():
        coeffs[k] = s

    def poly(x):
        return sum(s * x**k for k, s in sums.items())

    if poly(TOP_RADIUS**p) <= 1.0:
        return 1.0
    coeffs[0] -= 1.0
    roots = np.polynomial.Polynomial(coeffs).roots()
    real = [z.real for z in roots if abs(z.imag) <= 1e-9 * max(1.0, abs(z)) and z.real > 0]
    x = min(real)
    for _ in range(5):  # Newton polish on the increasing polynomial
        slope = sum(k * s * x ** (k - 1) for k, s in sums.items())
        x -= (poly(x) - 1.0) / slope
    return float(x) ** (1.0 / p)


def check_radius(got, want, tol=RADIUS_TOL):
    return close(got, want, rel=0.0, abs_=tol)


# --------------------------------------------------------------------- ball


def ball_sup(terms, p, t, r, grid=400, zoom_levels=60):
    """sup of sum c^p |z^alpha|^p over the l_t ball of radius r, n <= 3.

    Works in u_i = |z_i|^t on the simplex sum u = r^t: a dense grid, then a
    shrinking local grid around the best grid points (the maximizer can sit
    within one grid cell of a face, where the gradient is unbounded and
    SLSQP stalls), then SLSQP from the best point.  Every value is taken at
    a feasible point, so the result is a lower bound that is tight to
    roughly 1e-12 relative.
    """
    from scipy.optimize import minimize

    alphas = np.array([a for a, _ in terms], dtype=float)
    n = alphas.shape[1]
    if n > 3:
        raise ValueError("ball_sup covers n <= 3")
    exps = alphas * (p / t)
    coeffs = np.array([c for _, c in terms], dtype=float) ** p
    budget = r**t

    def lift(free):
        """Free coordinates (..., n-1) -> feasible simplex points (..., n)."""
        free = np.clip(free, 0.0, budget)
        total = free.sum(axis=-1, keepdims=True)
        free = free * np.minimum(1.0, budget / np.maximum(total, 1e-300))
        last = np.maximum(budget - free.sum(axis=-1, keepdims=True), 0.0)
        return np.concatenate([free, last], axis=-1)

    def value(points):
        logs = np.log(np.maximum(points, 1e-300))
        return np.exp(logs @ exps.T) @ coeffs

    if n == 1:
        return float(value(np.array([[budget]]))[0])
    axis = np.linspace(0.0, budget, grid)
    mesh = np.stack(np.meshgrid(*([axis] * (n - 1)), indexing="ij"), axis=-1)
    free = mesh.reshape(-1, n - 1)
    free = free[free.sum(axis=1) <= budget * (1.0 + 1e-12)]
    vals = value(lift(free))
    best = float(vals.max())
    starts = free[np.argsort(-vals)[:4]]

    offsets = np.linspace(-1.0, 1.0, 9)
    local = np.stack(np.meshgrid(*([offsets] * (n - 1)), indexing="ij"), axis=-1)
    local = local.reshape(-1, n - 1)
    best_free = starts[0]
    for centre in starts:
        half = 2.0 * budget / (grid - 1)
        for _ in range(zoom_levels):
            cand = centre + half * local
            cand_vals = value(lift(cand))
            i = int(np.argmax(cand_vals))
            if cand_vals[i] >= value(lift(centre[None, :]))[0]:
                centre = np.clip(cand[i], 0.0, budget)
            half *= 0.5
        v = float(value(lift(centre[None, :]))[0])
        if v > best:
            best, best_free = v, centre

    u0 = lift(best_free[None, :])[0]
    res = minimize(
        lambda u: -float(value(u[None, :])[0]),
        u0,
        method="SLSQP",
        bounds=[(0.0, budget)] * n,
        constraints=[{"type": "eq", "fun": lambda u: u.sum() - budget}],
        options={"ftol": 1e-15, "maxiter": 500},
    )
    if res.success and abs(res.x.sum() - budget) <= 1e-12 * budget and res.x.min() >= 0.0:
        best = max(best, -float(res.fun))
    return best


def check_ball_radius(terms, p, t, got, method):
    """The oracle's majorant equals 1 at the returned radius; a saturated
    answer needs the majorant to stay <= 1 up to TOP_RADIUS."""
    if not (isinstance(got, float) and 0.0 < got <= 1.0):
        return False
    if method == "saturated_at_one":
        return got == 1.0 and ball_sup(terms, p, t, TOP_RADIUS) <= 1.0
    return abs(ball_sup(terms, p, t, got) - 1.0) <= BALL_TOL


def linear_form_radius(n, q, t, p):
    """Radius of sum e_k z_k / M on B(l_t^n): M n^(1/t - 1/p) when p < t,
    else the family saturates (its majorant is (r/M)^p with M >= 1)."""
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    m = max(1.0, n ** (inv_q - 1.0 / t))
    if p >= t:
        return 1.0
    return min(1.0, m * n ** (1.0 / t - 1.0 / p))


# ------------------------------------------------------------ certificates


def cert_series(n, p, q, c, r):
    """sum_{k>=1} (c r)^(pk) C(n+k-1,k)^(1-p/q) in 40-digit arithmetic,
    stopped once it exceeds 4 (the crossing is then decided)."""
    mp = _mp()
    frac = mp.mpf(1) if math.isinf(q) else 1 - mp.mpf(p) / q
    x = (mp.mpf(c) * mp.mpf(r)) ** p
    total = mp.mpf(0)
    count = mp.mpf(1)
    prev = mp.inf
    k = 0
    while True:
        k += 1
        count = count * (n + k - 1) / k
        term = x**k * count**frac
        total += term
        if total > 4:
            return total
        if term < mp.mpf(10) ** -30 * total and term <= prev:
            return total
        prev = term


def cert_closed(n, p, q, c):
    """1 / (2^(1/p) (2e)^(1/p-1/q) C n^(1/p-1/q)), capped at 1."""
    mp = _mp()
    gap = mp.mpf(1) / p - (0 if math.isinf(q) else mp.mpf(1) / q)
    value = 1 / (mp.power(2, mp.mpf(1) / p) * (2 * mp.e) ** gap * c * mp.power(n, gap))
    return float(min(value, 1))


def check_cert_numeric(n, p, q, c, got):
    """The series crosses 1 inside [got - eps, got + eps]."""
    if not (isinstance(got, float) and 0.0 < got < 1.0):
        return False
    eps = max(1e-9 * got, 4e-12)
    return cert_series(n, p, q, c, got - eps) <= 1 <= cert_series(n, p, q, c, got + eps)


def check_h2_sandwich(n, p, numeric):
    """closed-form certificate <= numeric certificate <= exact H^2 radius."""
    return (
        cert_closed(n, p, 2.0, 1.0) <= numeric + CERT_SLACK
        and numeric <= h2_radius(n, p) + CERT_SLACK
    )


def witness_radius(n, p, q, t):
    """min(1, M n^(1/t - 1/p)) with M = max(1, n^(1/q - 1/t))."""
    mp = _mp()
    inv_q = 0 if math.isinf(q) else mp.mpf(1) / q
    inv_t = 0 if math.isinf(t) else mp.mpf(1) / t
    m = max(mp.mpf(1), mp.power(n, inv_q - inv_t))
    return float(min(1, m * mp.power(n, inv_t - mp.mpf(1) / p)))


def h2_residual(n, p, r):
    """((1 - r^(2p/(2-p)))^(-n) - 1)^(1-p/2) - 1 in 40-digit arithmetic."""
    mp = _mp()
    p = mp.mpf(p)
    x = mp.mpf(r) ** (2 * p / (2 - p))
    return float(((1 - x) ** (-n) - 1) ** (1 - p / 2) - 1)


def limit_check(p, n):
    """(n^beta r(n), (ln 2)^beta, relative error) with beta = 1/p - 1/2."""
    mp = _mp()
    beta = mp.mpf(1) / p - mp.mpf(1) / 2
    lhs = mp.power(n, beta) * (1 - mp.power(2, -mp.mpf(1) / n)) ** beta
    rhs = mp.log(2) ** beta
    return float(lhs), float(rhs), float(abs(lhs - rhs) / rhs)


def least_squares(xs, ys):
    """(slope, intercept) of the ordinary least-squares line, in 40 digits."""
    mp = _mp()
    xs = [mp.mpf(x) for x in xs]
    ys = [mp.mpf(y) for y in ys]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sxy / sxx
    return float(slope), float(my - slope * mx)


# ------------------------------------------------------------ combinatorics


def enumeration_summary(rows, n, k):
    """Digest of an enumeration, kept small so rows can be freed at once:
    (row count, every row has n nonnegative parts summing to k, rows are
    strictly lexicographically descending, hence distinct)."""
    shape_ok = all(len(row) == n for row in rows) and all(s == k for s in map(sum, rows))
    nonneg = not rows or min(map(min, rows)) >= 0
    descending = all(map(operator.gt, rows, islice(rows, 1, None)))
    return len(rows), shape_ok and nonneg and descending


def check_enumeration(summary, n, k):
    count, ok = summary
    return ok and count == math.comb(n + k - 1, k)


def count_bound_holds(n, k):
    """C(n+k-1,k) <= e^k (1+n/k)^k <= (2e)^k max(1, (n/k)^k), in 40 digits."""
    mp = _mp()
    c = mp.mpf(math.comb(n + k - 1, k))
    mid = mp.e**k * (1 + mp.mpf(n) / k) ** k
    right = (2 * mp.e) ** k * max(mp.mpf(1), (mp.mpf(n) / k) ** k)
    return c <= mid <= right


def monomial_bound_ratio(alpha, t):
    """Coefficient of z^alpha normalized on B(l_t^n), over e^(k/t)(k!/alpha!)^(1/t)."""
    mp = _mp()
    k = sum(alpha)
    log_sup = sum(a * (mp.log(a) - mp.log(k)) for a in alpha if a > 0) / t
    log_weight = mp.log(math.factorial(k)) - sum(mp.log(math.factorial(a)) for a in alpha)
    return float(mp.exp(-log_sup - (k + log_weight) / t))
