"""Radius solvers: a bracketing root finder on the powered majorant, the
exact H^2 closed form, its defining-equation residual, and the
pluriharmonic radius via the per-index weight (|a|^p + |b|^p)^(1/p).

The root finder takes ITP steps (interpolate, truncate, project): a
bisection variant that keeps the bracket S(lo) <= 1 < S(hi) and needs at
most one evaluation more than plain bisection, while converging
superlinearly where S is smooth."""

import math
from dataclasses import dataclass

from . import family as fam
from . import majorant as maj
from .errors import ParameterError, TailDivergenceError

DEFAULT_TOL = 1e-10
TOP_RADIUS = 1.0 - 1e-9


@dataclass(frozen=True)
class RadiusResult:
    value: float
    method: str  # closed_form | bisection | saturated_at_one | certified_lower | witness_upper
    residual: float
    bracket: tuple
    evaluations: int = 0

    def to_dict(self):
        return {
            "value": self.value,
            "method": self.method,
            "residual": self.residual,
            "bracket": list(self.bracket),
            "evaluations": self.evaluations,
        }


def bisect_unit_crossing(evaluate, tol=DEFAULT_TOL):
    """Largest r in [0,1] with evaluate(r) <= 1, for nondecreasing evaluate.

    evaluate(0) is taken to be 0, as for every powered majorant (degree 0 is
    excluded), so r = 0 is never evaluated.  evaluate(r) may raise
    TailDivergenceError or return a non-finite value; both count as a value
    above 1.

    Each step is an ITP step (interpolate, truncate, project; Oliveira &
    Takahashi, ACM TOMS 47(1), 2020) on evaluate(r) - 1.  ITP is a bisection
    variant: the bracket keeps evaluate(lo) <= 1 < evaluate(hi), and the
    projection keeps each step inside bisection's schedule with one spare
    step, so the worst case is one evaluation more than plain bisection.  On
    smooth stretches the truncated regula falsi point converges
    superlinearly.  Where interpolation is unusable (an infinite end value)
    the step is the midpoint.

    Two guards keep the step count from depending on where the crossing
    falls.  When the same end moves twice running, the value kept at the
    other end is scaled down (Anderson-Bjorck), so that regula falsi does
    not creep in from one side of a convex S.  And the truncation moves the
    interpolated point at least half the tolerance, so that an iterate
    landing on the crossing is followed by one across it, rather than by
    bisection of the far side of the bracket.
    """
    evals = 0

    def safe(r):
        nonlocal evals
        evals += 1
        try:
            value = evaluate(r)
        except TailDivergenceError:
            return math.inf
        return value if math.isfinite(value) else math.inf

    top = safe(TOP_RADIUS)
    if top <= 1.0:
        return RadiusResult(
            value=1.0,
            method="saturated_at_one",
            residual=0.0,
            bracket=(TOP_RADIUS, 1.0),
            evaluations=evals,
        )
    lo, hi = 0.0, TOP_RADIUS
    g_lo, g_hi = -1.0, top - 1.0  # evaluate - 1 at the bracket ends
    kappa1 = 0.2 / (hi - lo)  # kappa2 = 2, n0 = 1
    # slack is the bracket width allowed after the coming step: it halves
    # each step and reaches the target after bisection's step count plus
    # one.  The target sits a few ulps inside tol, so that rounding in the
    # endpoints cannot leave the last bracket just wider than tol.
    target = max(tol - 16 * math.ulp(1.0), 0.5 * tol)
    slack = target * 2.0 ** math.ceil(math.log2((hi - lo) / tol))
    moved = 0  # -1 or 1 when lo or hi moved last
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats: no narrower bracket exists
        width = hi - lo
        x = mid
        if math.isfinite(g_hi):
            falsi = (g_hi * lo - g_lo * hi) / (g_hi - g_lo)
            sigma = 1.0 if mid >= falsi else -1.0
            delta = max(kappa1 * width * width, 0.5 * target)
            x = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
            reach = max(slack - 0.5 * width, 0.0)
            if abs(x - mid) > reach:
                x = mid - sigma * reach
            if not lo < x < hi:
                x = mid
        slack *= 0.5
        g_x = safe(x) - 1.0
        if g_x <= 0.0:
            if moved < 0:
                g_hi *= _anderson_bjorck(g_x, g_lo)
            lo, g_lo, moved = x, g_x, -1
        else:
            if moved > 0:
                g_lo *= _anderson_bjorck(g_x, g_hi)
            hi, g_hi, moved = x, g_x, 1
    value = 0.5 * (lo + hi)
    residual = abs(safe(value) - 1.0)
    return RadiusResult(
        value=value,
        method="bisection",
        residual=residual,
        bracket=(lo, hi),
        evaluations=evals,
    )


def _anderson_bjorck(g_new, g_old):
    """Scale for the kept end's value after an end moved from g_old to g_new."""
    m = 1.0 - g_new / g_old if g_old != 0.0 else 0.0
    return m if m > 0.0 else 0.5


def solve_bohr_radius(f, p, domain, tol=DEFAULT_TOL, seed=0):
    """Per-family radius: the crossing of S_p(f, r, domain) through 1."""
    if not f.has_degree_mass():
        return RadiusResult(1.0, "saturated_at_one", 0.0, (TOP_RADIUS, 1.0), 0)
    return bisect_unit_crossing(
        lambda r: maj.powered_majorant(f, p, domain, r, seed=seed).value, tol=tol
    )


def exact_h2_radius(n, p):
    """(1 - 2^(-1/n))^(1/p - 1/2): the exact norm-1 H^2 class radius, p < 2.

    For p >= 2 the class radius is of order 1 with no exact value; refused.
    """
    if not 0.0 < p < 2.0:
        raise ParameterError(f"exact H^2 radius is defined only for p in (0,2), got {p}")
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    return fam.stable_half_root_gap(n) ** (1.0 / p - 0.5)


def h2_defining_residual(n, p, r):
    """((1 - r^(2p/(2-p)))^(-n) - 1)^(1-p/2) - 1; zero exactly at the radius.

    Beyond the float range the residual is math.inf.
    """
    if not 0.0 < p < 2.0:
        raise ParameterError(f"need p in (0,2), got {p}")
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
    holo: fam.CoefficientFamily
    anti: fam.CoefficientFamily

    def __post_init__(self):
        if self.holo.dimension != self.anti.dimension:
            raise ParameterError("holomorphic and anti parts must share the dimension")
        zero = (0,) * self.anti.dimension
        if self.anti.entries.get(zero, 0.0) != 0.0:
            raise ParameterError("anti part must have zero constant term (g(0) = 0)")


def merged_weight_family(pf, p):
    """Entries (|a_alpha|^p + |b_alpha|^p)^(1/p) over the union of indices.

    Requires both parts tail-free; tails are handled by the caller through
    the one-sided polydisk closed forms.
    """
    if pf.holo.tail is not None or pf.anti.tail is not None:
        raise ParameterError("merged family needs tail-free parts")
    keys = set(pf.holo.entries) | set(pf.anti.entries)
    entries = {}
    for alpha in keys:
        a = pf.holo.entries.get(alpha, 0.0)
        b = pf.anti.entries.get(alpha, 0.0)
        entries[alpha] = (a**p + b**p) ** (1.0 / p)
    return fam.explicit(pf.holo.dimension, entries, label="pluriharmonic merge")


def pluriharmonic_radius(pf, p, t, tol=DEFAULT_TOL, seed=0):
    """Largest r with sup sum (|a|^p + |b|^p)|z^alpha|^p <= 1 over r B(l_t^n)."""
    anti_empty = pf.anti.tail is None and not any(
        v > 0.0 for v in pf.anti.entries.values()
    )
    domain = maj.DomainSpec.from_t(t)
    if anti_empty:
        return solve_bohr_radius(pf.holo, p, domain, tol=tol, seed=seed)
    if domain.kind == "polydisk":
        # separable sup: the combined sum splits exactly into the two parts
        def evaluate(r):
            return (
                maj.powered_majorant_polydisk(pf.holo, p, r).value
                + maj.powered_majorant_polydisk(pf.anti, p, r).value
            )

    else:
        merged = merged_weight_family(pf, p)

        def evaluate(r):
            return maj.powered_majorant_ball(merged, p, t, r, seed=seed).value

    if not (pf.holo.has_degree_mass() or pf.anti.has_degree_mass()):
        return RadiusResult(1.0, "saturated_at_one", 0.0, (TOP_RADIUS, 1.0), 0)
    return bisect_unit_crossing(evaluate, tol=tol)
