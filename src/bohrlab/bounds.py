"""Certified lower bounds on class radii, witness upper bounds, the
ball coefficient bound check, and two-sided sandwich consistency."""

import math
from dataclasses import dataclass

from . import multiindex
from .errors import NotCertifiedError, ParameterError
from .family import linear_form_scale
from .radius import RadiusResult, bisect_unit_crossing, saturated_at_one

SANDWICH_SLACK = 1e-12
COEFFICIENT_SLACK = 1e-12
_LOG2_UP = math.nextafter(math.log(2.0), math.inf)  # an upper bound on log 2, for _log_up
# the numeric certificate's series sums at most this many terms
CERTIFICATE_MAX_TERMS = 1_000_000


@dataclass(frozen=True)
class CertificateInput:
    """Hypothesis: (sum_{|alpha|=k} ||x_alpha||^q)^(1/q) <= C^k for all k >= 1."""

    n: int
    p: float
    q: float
    C: float

    def __post_init__(self):
        multiindex.checked_int("n", self.n, 1)
        if not (0.0 < self.p < math.inf and self.q >= 1.0 and 0.0 <= self.C < math.inf):
            raise ParameterError(f"out of range: p={self.p}, q={self.q}, C={self.C}")
        if self.p > self.q:
            raise ParameterError(f"the chain needs p <= q, got p={self.p}, q={self.q}")


def ball_certificate(n, p, q, t):
    """Certificate preset for bounded families on B(l_t^n).

    The per-degree base comes from the coefficient bound e^(k/t) (k!/alpha!)^(1/t)
    collapsed through the multinomial identity, with exponent min(q, t).
    """
    if not (t >= 1.0):
        raise ParameterError(f"need t >= 1, got {t}")
    gamma = min(q, t)
    c_base = 1.0 if math.isinf(t) else math.exp(1.0 / t)
    return CertificateInput(n=n, p=p, q=gamma, C=c_base)


def _up(x):
    return math.nextafter(x, math.inf)


def _down(x):
    return math.nextafter(x, -math.inf)


def _log_up(m):
    """An upper bound on log m, for an integer m >= 1 of any size."""
    shift = max(m.bit_length() - 53, 0)
    top = -(-m >> shift)  # ceil(m / 2^shift) <= 2^53, exact as a float
    return _up(_up(math.log(top)) + _up(shift * _LOG2_UP))


def certified_lower_bound(cert, mode="closed_form"):
    """A radius valid for every family satisfying the certificate hypothesis.

    closed_form: 1 / (2^(1/p) (2e)^(1/p-1/q) C n^(1/p-1/q)), the explicit
    inequality chain; n-independent 1/(2^(1/p) C) when p = q.
    numeric: the lower end of bisect_unit_crossing's bracket on the crossing
    of sum_k (C r)^(pk) count(n,k)^(1-p/q) through 1, solved on an upper
    bound of the series (exact counts, each float operation rounded outward,
    a bound on the dropped terms; math.exp and math.log are taken to be
    within one ulp), so the series is <= 1 there.  It misses the crossing by
    about 1e-12 of it at most, and the closed form never exceeds the crossing.
    The residual |U(lo) - 1| is read from the solve's evaluation at lo, and
    `evaluations` counts the radii where U was evaluated.
    """
    n, p, q, c = cert.n, cert.p, cert.q, cert.C
    if mode not in ("closed_form", "numeric"):
        raise ParameterError(f"unknown mode: {mode}")
    if c == 0.0:
        return saturated_at_one()
    gap = 1.0 / p - (0.0 if math.isinf(q) else 1.0 / q)
    if mode == "closed_form":
        value = 1.0 / (2.0 ** (1.0 / p) * (2.0 * math.e) ** gap * c * n**gap)
        value = min(value, 1.0)
        return RadiusResult(
            value=value, method="certified_lower", residual=0.0, bracket=(value, value)
        )

    frac = 1.0 if math.isinf(q) else _up(1.0 - _down(p / q))  # exponent on the count

    def series(r):  # (U(r), p sum_k k term_k), or (inf, nan) if no U <= 4 is found
        cr = _up(c * r)
        if cr >= 1.0:
            return math.inf, math.nan
        log_x = _up(p * _up(math.log(cr)))  # log (C r)^p
        total = slope = 0.0
        count = 1  # C(n+k-1, k), exact, by C(n+k-1, k) = C(n+k-2, k-1) (n+k-1)/k
        for k in range(1, CERTIFICATE_MAX_TERMS + 1):
            count = count * (n + k - 1) // k
            term = _up(math.exp(_up(_up(k * log_x) + _up(frac * _log_up(count)))))
            total = _up(total + term)
            slope += k * term
            if total > 4.0:
                break
            # the term ratio x ((n+k)/(k+1))^frac falls with k: it bounds the rest
            log_step = _up(frac * _up(math.log(_up((n + k) / (k + 1)))))
            ratio = _up(math.exp(_up(log_x + log_step)))
            if ratio < 1.0:
                rest = _up(term * _up(ratio / _down(1.0 - ratio)))
                if rest <= 1e-17 * total:
                    return _up(total + rest), p * slope
        return math.inf, math.nan

    values = {}  # U at each radius evaluated, so that U(lo) is read, not recomputed

    def evaluate(r):
        values[r] = series(r)
        return values[r]

    res = bisect_unit_crossing(evaluate)
    if res.method == "saturated_at_one":
        return res
    lo = res.bracket[0]
    u_lo = values[lo] if lo in values else evaluate(lo)  # lo = 0.0 is never a step
    return RadiusResult(lo, "certified_lower", abs(u_lo[0] - 1.0), res.bracket, len(values))


def witness_upper_linear_form(n, p, q, t):
    """Upper bound on the class radius from the normalized degree-1 witness.

    Value M n^(1/t - 1/p) with M = max(1, n^(1/q - 1/t)); at t = inf this is
    n^(1/q - 1/p).  Equals the exact per-family radius of the built linear
    form whenever p <= t.
    """
    multiindex.checked_int("n", n, 1)
    if not (0.0 < p < math.inf and q >= 1.0 and t >= 1.0):
        raise ParameterError(f"parameters out of range: p={p}, q={q}, t={t}")
    inv_t = 0.0 if math.isinf(t) else 1.0 / t
    value = min(1.0, linear_form_scale(n, q, t) * n ** (inv_t - 1.0 / p))
    return RadiusResult(
        value=value, method="witness_upper", residual=0.0, bracket=(value, value)
    )


def coefficient_bound_check(f, t):
    """Check every entry against the ball bound e^(k/t) (k!/alpha!)^(1/t).

    Only families constructed with a sup-norm <= 1 certificate are accepted.
    Returns (ok, worst_ratio).
    """
    if not f.sup_norm_certified:
        raise NotCertifiedError(
            "coefficient bound check needs a family with a sup-norm certificate"
        )
    if not (t >= 1.0):
        raise ParameterError(f"need t >= 1, got {t}")
    inv_t = 0.0 if math.isinf(t) else 1.0 / t
    worst = 0.0
    for alpha, value in f.entries.items():
        k = sum(alpha)
        if k == 0 or value == 0.0:
            continue
        log_bound = inv_t * (k + math.log(multiindex.multinomial_weight(alpha)))
        ratio = value / math.exp(log_bound)
        worst = max(worst, ratio)
    return worst <= 1.0 + COEFFICIENT_SLACK, worst


def sandwich_check(lower, upper):
    """True iff lower.value <= upper.value + slack."""
    return lower.value <= upper.value + SANDWICH_SLACK
