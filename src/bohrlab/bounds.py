"""Certified lower bounds on class radii, witness upper bounds, the
ball coefficient bound check, and two-sided sandwich consistency."""

import math
import sys
from dataclasses import dataclass

from . import multiindex
from .errors import NotCertifiedError, ParameterError
from .family import linear_form_scale
from .radius import RadiusResult, TOP_RADIUS, saturated_at_one

SANDWICH_SLACK = 1e-12
COEFFICIENT_SLACK = 1e-12
# the numeric certificate bisects to this width, summing at most this many terms
CERTIFICATE_TOL = 1e-12
CERTIFICATE_MAX_TERMS = 1_000_000


@dataclass(frozen=True)
class CertificateInput:
    """Hypothesis: (sum_{|alpha|=k} ||x_alpha||^q)^(1/q) <= C^k for all k >= 1."""

    n: int
    p: float
    q: float
    C: float

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"need n >= 1, got {self.n}")
        if self.p <= 0:
            raise ParameterError(f"need p > 0, got {self.p}")
        if self.p > self.q:
            raise ParameterError(f"the chain needs p <= q, got p={self.p}, q={self.q}")
        if self.C < 0:
            raise ParameterError(f"need C >= 0, got {self.C}")


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


def _log_count(n, k):
    return math.lgamma(n + k) - math.lgamma(k + 1) - math.lgamma(n)


def certified_lower_bound(cert, mode="closed_form"):
    """A radius valid for every family satisfying the certificate hypothesis.

    closed_form: 1 / (2^(1/p) (2e)^(1/p-1/q) C n^(1/p-1/q)), the explicit
    inequality chain; n-independent 1/(2^(1/p) C) when p = q.
    numeric: the lower end of a bisection bracket, of width CERTIFICATE_TOL,
    on the crossing of sum_k (C r)^(pk) count(n,k)^(1-p/q) through 1, using
    exact counts; the series was evaluated <= 1 there.  The closed form
    never exceeds the crossing, so this is at least the closed form less
    CERTIFICATE_TOL.
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

    frac = 1.0 - (0.0 if math.isinf(q) else p / q)  # exponent on the count

    def series(r):
        if c * r >= 1.0:
            return math.inf
        log_cr_p = p * math.log(c * r) if r > 0 else -math.inf
        total = 0.0
        prev = math.inf
        for k in range(1, CERTIFICATE_MAX_TERMS + 1):
            term = math.exp(k * log_cr_p + frac * _log_count(n, k))
            total += term
            if total > 4.0:
                return total
            if term < 1e-18 and term <= prev:
                break
            prev = term
        return total

    evals = 0

    def evaluate(r):
        nonlocal evals
        evals += 1
        return series(r)

    lo, hi = 0.0, min(TOP_RADIUS, (1.0 - 1e-12) / c)
    if evaluate(hi) <= 1.0:  # only for C <= 1: above it the series passes 4 at hi
        return saturated_at_one(evals)
    while hi - lo > CERTIFICATE_TOL:
        mid = 0.5 * (lo + hi)
        if evaluate(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    return RadiusResult(
        value=lo,
        method="certified_lower",
        residual=abs(evaluate(lo) - 1.0),
        bracket=(lo, hi),
        evaluations=evals,
    )


def witness_upper_linear_form(n, p, q, t):
    """Upper bound on the class radius from the normalized degree-1 witness.

    Value M n^(1/t - 1/p) with M = max(1, n^(1/q - 1/t)); at t = inf this is
    n^(1/q - 1/p).  Equals the exact per-family radius of the built linear
    form whenever p <= t.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if p <= 0 or not (q >= 1.0) or not (t >= 1.0):
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
    """True iff lower.value <= upper.value + slack; prints a diagnostic to
    stderr if not."""
    ok = lower.value <= upper.value + SANDWICH_SLACK
    if not ok:
        print(
            "sandwich violation:"
            f" lower={lower.to_dict()} upper={upper.to_dict()}",
            file=sys.stderr,
        )
    return ok
