"""Radius solvers: a safeguarded Newton root finder on the powered majorant,
the exact H^2 closed form, its defining-equation residual, and the
pluriharmonic radius via the per-index weight |a|^p + |b|^p.

The root finder works on g(y) = log S(e^y).  S is a positive sum of powers
of r (on the ball, a supremum of such sums), so g is convex and increasing,
and Newton steps taken from the right end of the bracket fall monotonically
onto the crossing.  That right end is a start where S >= 1 is known: on the
ball, the smallest radius where one term's AM-GM maximum reaches 1, and
TOP_RADIUS elsewhere.  The bracket S(lo) <= 1 < S(hi) is kept throughout,
with both ends evaluated, and closed by one probe on the far side of the
converged Newton point; the loop stops at a width relative to the radius.
"""

import math
from dataclasses import dataclass

from . import family as fam
from . import majorant as maj
from . import multiindex
from .errors import ParameterError, TailDivergenceError

DEFAULT_TOL = 1e-10
TOP_RADIUS = 1.0 - 1e-9
# the bracket is also closed to this width relative to its right end, so
# that small radii keep their digits whatever the absolute tol
REL_WIDTH = 1e-12


@dataclass(frozen=True)
class RadiusResult:
    value: float
    method: str  # closed_form | bisection | saturated_at_one | certified_lower | witness_upper
    residual: float
    bracket: tuple
    evaluations: int = 0


def saturated_at_one(evaluations=0):
    """The radius 1, for an S with S(TOP_RADIUS) <= 1: TOP_RADIUS is the
    only point checked, so the bracket is (TOP_RADIUS, 1)."""
    return RadiusResult(1.0, "saturated_at_one", 0.0, (TOP_RADIUS, 1.0), evaluations)


def bisect_unit_crossing(evaluate, tol=DEFAULT_TOL, start=TOP_RADIUS):
    """Largest r in [0,1] with S(r) <= 1, for a nondecreasing S with
    evaluate(r) = (S(r), dS/d(log r)).

    S(0) is taken to be 0, as for every powered majorant (degree 0 is
    excluded), so r = 0 is never evaluated.  evaluate(r) may raise
    TailDivergenceError or return a non-finite S; both count as a value
    above 1.

    The iteration starts at `start`, a radius in (0, TOP_RADIUS] that the
    caller knows to have S >= 1 (a lower bound on S reaches 1 there), or
    TOP_RADIUS, and takes Newton steps on log S = 0 in log r, from the
    point evaluated last: r <- r exp(-log S / (slope / S)).  On a
    majorant, log S is convex in log r, so from the right end every Newton
    point stays right of the crossing and hi falls monotonically onto it.
    The bracket keeps S(lo) <= 1 < S(hi), and both of its ends are
    evaluated points (lo = 0 aside).  A step is the midpoint of the bracket
    instead when S or the slope at the last point is not finite, or when
    the Newton point is not strictly inside (lo, hi).

    Where S(start) <= 1 after all (the bound is attained there, and
    rounding put S on or below 1), start is lo, and TOP_RADIUS stays hi
    unevaluated until the steps close the bracket on it.  Only S(TOP_RADIUS)
    <= 1, evaluated, gives `saturated_at_one`.

    Once the Newton point is within half the target width of the last
    point, one probe a quarter width beyond it, on the far side of the
    crossing, closes the bracket: below it when the last point had S > 1,
    above it when the last point landed with S <= 1.  The loop stops when
    hi - lo <= min(tol, REL_WIDTH * hi), or when lo and hi are adjacent
    floats.  The result is the Newton point of the last evaluation, clipped
    to the bracket (its midpoint where there is no Newton point);
    `evaluations` counts every call, the start's and the residual's
    included.

    The step count rests on the slope being the derivative of S: a slope
    overstated k-fold makes the Newton steps k times too short, and the
    iteration then needs about k times as many of them.
    """
    evals = 0

    def safe(r):
        nonlocal evals
        evals += 1
        try:
            s, slope = evaluate(r)
        except TailDivergenceError:
            return math.inf, math.nan
        return (s, slope) if math.isfinite(s) else (math.inf, math.nan)

    x = start  # the point evaluated last
    s, slope = safe(x)
    if s <= 1.0 and x == TOP_RADIUS:
        return saturated_at_one(evals)
    lo, hi = (x, TOP_RADIUS) if s <= 1.0 else (0.0, x)
    hi_seen = s > 1.0
    while True:
        width = min(tol, REL_WIDTH * hi)
        mid = 0.5 * (lo + hi)
        if hi - lo <= width or not lo < mid < hi:
            if hi_seen:
                break  # closed, or lo and hi are adjacent floats
            # closed on TOP_RADIUS, which is still to be evaluated
            x = TOP_RADIUS
            s, slope = safe(x)
            if s <= 1.0:
                return saturated_at_one(evals)
            hi_seen = True
            continue
        step = _newton_point(x, s, slope)
        if abs(step - x) <= 0.5 * width:
            # converged: probe just across the Newton point from x
            if s > 1.0:
                step = min(step - 0.25 * width, math.nextafter(x, 0.0))
            else:
                step = max(step + 0.25 * width, math.nextafter(x, 1.0))
        x = step if lo < step < hi else mid
        s, slope = safe(x)
        if s <= 1.0:
            lo = x
        else:
            hi, hi_seen = x, True
    value = _newton_point(x, s, slope)
    value = 0.5 * (lo + hi) if math.isnan(value) else min(max(value, lo), hi)
    return RadiusResult(
        value=value,
        method="bisection",
        residual=abs(safe(value)[0] - 1.0),
        bracket=(lo, hi),
        evaluations=evals,
    )


def _newton_point(r, value, slope):
    """Newton point for log S = 0 in log r from (r, S, dS/d(log r)); nan
    where S or the slope does not give one."""
    if not (0.0 < value < math.inf and 0.0 < slope < math.inf):
        return math.nan
    # capped so that exp cannot overflow: r e^709 lies above any bracket
    return r * math.exp(min(-math.log(value) * value / slope, 709.0))


def solve_bohr_radius(f, p, domain, tol=DEFAULT_TOL, seed=0):
    """Per-family radius: the crossing of S_p(f, r, domain) through 1.

    The root finder starts at the evaluator's `start` where it lies below
    TOP_RADIUS (on the ball, the smallest radius where one term's AM-GM
    maximum reaches 1), and at TOP_RADIUS otherwise.  A family with no positive coefficient of
    degree >= 1 has S = 0 and no start, so its first evaluation, at
    TOP_RADIUS, returns `saturated_at_one`.
    """
    majorant = maj.evaluator(f, p, domain, seed)

    def evaluate(r):
        mv = majorant(r)
        return mv.value, mv.slope

    return bisect_unit_crossing(evaluate, tol=tol, start=min(TOP_RADIUS, majorant.start))


def exact_h2_radius(n, p):
    """(1 - 2^(-1/n))^(1/p - 1/2): the exact norm-1 H^2 class radius, p < 2.

    For p >= 2 the class radius is of order 1 with no exact value; refused.
    """
    if not 0.0 < p < 2.0:
        raise ParameterError(f"exact H^2 radius is defined only for p in (0,2), got {p}")
    return fam.stable_half_root_gap(n) ** (1.0 / p - 0.5)


def h2_defining_residual(n, p, r):
    """((1 - r^(2p/(2-p)))^(-n) - 1)^(1-p/2) - 1; zero exactly at the radius.

    Beyond the float range the residual is math.inf.
    """
    if not 0.0 < p < 2.0:
        raise ParameterError(f"need p in (0,2), got {p}")
    n = multiindex.checked_int("n", n, 1)
    if not 0.0 <= r < 1.0:
        raise ParameterError(f"need r in [0,1), got {r}")
    x = r ** (2.0 * p / (2.0 - p))
    if x >= 1.0:
        raise ParameterError(f"r^(2p/(2-p)) = {x} is outside [0,1)")
    try:
        inner = fam.geometric_block_total(n, x)
    except OverflowError:
        return math.inf
    return inner ** (1.0 - p / 2.0) - 1.0


@dataclass(frozen=True)
class PluriharmonicFamily:
    """f = h + conj(g), with the norms |a_alpha| of h's coefficients in holo and
    |b_alpha| of g's in anti: a family whose weight is |a_alpha|^p + |b_alpha|^p."""

    holo: fam.CoefficientFamily
    anti: fam.CoefficientFamily

    def __post_init__(self):
        if self.holo.dimension != self.anti.dimension:
            raise ParameterError("holomorphic and anti parts must share the dimension")
        zero = (0,) * self.anti.dimension
        if self.anti.entries.get(zero, 0.0) != 0.0:
            raise ParameterError("anti part must have zero constant term (g(0) = 0)")

    dimension = property(lambda self: self.holo.dimension)

    def powered_terms(self, p):
        """[(alpha, |a_alpha|^p + |b_alpha|^p)] over the indices where either
        part has a term: holo's in its order, then those only anti has."""
        weights = dict(self.holo.powered_terms(p))
        for alpha, term in self.anti.powered_terms(p):
            weights[alpha] = weights.get(alpha, 0.0) + term
            if weights[alpha] == math.inf:
                raise ParameterError(f"a summed weight's {p}-th power exceeds the float range")
        return list(weights.items())

    degree_power_sums = fam.CoefficientFamily.degree_power_sums

    def tail_lead(self, p):
        """One first-block row per part's tail."""
        return self.holo.tail_lead(p) + self.anti.tail_lead(p)

    def powered_tail(self, p, r):
        """The two parts' tail sums and slopes, added."""
        holo, anti = self.holo.powered_tail(p, r), self.anti.powered_tail(p, r)
        return holo[0] + anti[0], holo[1] + anti[1]


def pluriharmonic_radius(pf, p, t, tol=DEFAULT_TOL, seed=0):
    """Largest r with sup sum (|a|^p + |b|^p)|z^alpha|^p <= 1 over r B(l_t^n)."""
    return solve_bohr_radius(pf, p, maj.DomainSpec(t), tol=tol, seed=seed)
