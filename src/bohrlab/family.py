"""Coefficient families: the scalar-norm view of f(z) = sum x_alpha z^alpha.

A family stores the norms ||x_alpha|| for |alpha| <= truncation_degree and
optionally an analytic tail covering every higher degree.  The tail puts
the value v^k on every multi-index of degree k, which is exactly the
structure of the uniform extremal family, so that family needs no explicit
entries at all.
"""

import json
import math
from dataclasses import dataclass

from . import multiindex
from .errors import ParameterError, TailDivergenceError

MOEBIUS_TRUNCATION = 256
# the one tail model; JSON names it, and from_json refuses any other name
TAIL_KIND = "geometric_uniform"


def stable_half_root_gap(n):
    """1 - 2**(-1/n) without cancellation, via expm1."""
    n = multiindex.checked_int("n", n, 1)
    return -math.expm1(-math.log(2.0) / n)


def geometric_block_total(n, s):
    """sum_{k>=1} C(n+k-1,k) s^k = (1-s)^{-n} - 1, for 0 <= s < 1."""
    if not 0.0 <= s < 1.0:
        raise TailDivergenceError(f"geometric block sum needs 0 <= s < 1, got s={s}")
    return math.expm1(-n * math.log1p(-s))


@dataclass(frozen=True)
class AnalyticTail:
    """Per-degree model v^k on every index of degree k, for all k > K."""

    parameter: float

    def __post_init__(self):
        if not 0.0 <= self.parameter < 1.0:
            raise ParameterError(f"tail parameter must be in [0,1), got {self.parameter}")


@dataclass(frozen=True)
class CoefficientFamily:
    dimension: int
    entries: dict  # multi-index tuple -> nonnegative norm
    truncation_degree: int
    tail: AnalyticTail | None = None
    label: str = ""
    sup_norm_certified: bool = False

    def __post_init__(self):
        # the checked int is stored, so that a numpy integer size writes to JSON
        for name, least in (("dimension", 1), ("truncation_degree", 0)):
            object.__setattr__(self, name, multiindex.checked_int(name, getattr(self, name), least))
        if not isinstance(self.sup_norm_certified, bool):
            raise ParameterError(
                f"sup_norm_certified must be a bool, got {self.sup_norm_certified!r}"
            )
        for alpha, value in self.entries.items():
            multiindex.validate(alpha)
            if len(alpha) != self.dimension:
                raise ParameterError(f"index {alpha} does not match dimension {self.dimension}")
            if sum(alpha) > self.truncation_degree:
                raise ParameterError(
                    f"index {alpha} exceeds truncation degree {self.truncation_degree}"
                )
            if not 0 <= value < math.inf:
                raise ParameterError(f"entry at {alpha} is not in [0, inf): {value}")

    def powered_terms(self, p):
        """[(alpha, ||x_alpha||^p)] over the explicit entries of degree >= 1
        whose p-th power is positive (it underflows to 0 for a tiny norm), in
        entry order."""
        try:
            # the value test comes first: it skips summing a zero term's index
            items = self.entries.items()
            return [(a, w) for a, v in items if (w := v**p) > 0.0 and sum(a) >= 1]
        except OverflowError:
            raise ParameterError(f"an entry's {p}-th power exceeds the float range") from None

    def degree_power_sums(self, p):
        """Map k -> sum of ||x_alpha||^p over explicit entries of degree k >= 1."""
        sums = {}
        for alpha, term in self.powered_terms(p):
            k = sum(alpha)
            sums[k] = sums.get(k, 0.0) + term
        return sums

    def tail_block(self, s):
        """(sum_{k > truncation_degree} C(n+k-1,k) s^k, s times its derivative in s),
        for 0 <= s < 1: the tail's degree blocks, each index of degree k weighted
        s^k, and the same blocks weighted k s^k.

        The weighted full sum n s (1-s)^(-n-1) is formed as n s/(1-s) times
        (1-s)^(-n), by multiplication, so that it overflows to inf, not raises.
        """
        n = self.dimension
        total = geometric_block_total(n, s)
        slope = s * n / (1.0 - s) * (total + 1.0)
        count = 1  # C(n+k-1, k), exact, by C(n+k-1, k) = C(n+k-2, k-1) (n+k-1)/k
        for k in range(1, self.truncation_degree + 1):
            count = count * (n + k - 1) // k
            term = count * s**k
            total -= term
            slope -= k * term
        return max(total, 0.0), max(slope, 0.0)

    def tail_lead(self, p):
        """[(log of C(n+K, K+1) v^(p(K+1)), K+1)], K = truncation_degree: the
        tail's first degree block is that coefficient times r^(p(K+1)), a
        term of `powered_tail(p, r)`; [] without a tail or with v = 0."""
        if self.tail is None or self.tail.parameter == 0.0:
            return []
        k = self.truncation_degree + 1
        count = math.comb(self.dimension + k - 1, k)
        return [(math.log(count) + p * k * math.log(self.tail.parameter), k)]

    def powered_tail(self, p, r):
        """(the tail's sum of ||x_alpha||^p r^(p|alpha|), its slope in log r):
        the polydisk closed form; TailDivergenceError where it diverges."""
        if self.tail is None:
            return 0.0, 0.0
        v = self.tail.parameter
        s = (v * r) ** p
        if s >= 1.0:
            raise TailDivergenceError(f"tail diverges at p={p}, r={r} (parameter {v})")
        block, s_slope = self.tail_block(s)
        return block, p * s_slope  # ds/d(log r) = p s


def explicit(dimension, entries, tail=None, label="explicit", certified=False):
    degree = max([sum(a) for a in entries], default=0)
    return CoefficientFamily(
        dimension=dimension,
        entries=dict(entries),
        truncation_degree=degree,
        tail=tail,
        label=label,
        sup_norm_certified=certified,
    )


def moebius(a):
    """Coefficient norms of the disk automorphism (a - z)/(1 - a z).

    c_0 = a and c_k = (1 - a^2) a^(k-1) for k >= 1, sup-norm 1 on the disk.
    The geometric tail model a^k overstates the true coefficients by the
    constant (1 - a^2)/a, so the entries run to MOEBIUS_TRUNCATION, deep
    enough that the surplus is far below solver tolerance unless a is near 1.
    """
    if not 0.0 < a < 1.0:
        raise ParameterError(f"moebius needs a in (0,1), got {a}")
    entries = {(0,): a}
    for k in range(1, MOEBIUS_TRUNCATION + 1):
        entries[(k,)] = (1.0 - a * a) * a ** (k - 1)
    return CoefficientFamily(
        dimension=1,
        entries=entries,
        truncation_degree=MOEBIUS_TRUNCATION,
        tail=AnalyticTail(parameter=a),
        label=f"moebius(a={a})",
        sup_norm_certified=True,
    )


def extremal_g(n, p):
    """The uniform family with value v^k on every index of degree k >= 1:
    a tail alone, with no entries, so it builds in O(1) at any n.

    v = sqrt(1 - 2^(-1/n)); its H^2 norm is exactly 1 and its powered
    majorant crosses 1 exactly at the closed-form radius for exponent p.
    """
    if not 0.0 < p < 2.0:
        raise ParameterError(f"extremal_g needs p in (0,2), got {p}")
    v = math.sqrt(stable_half_root_gap(n))  # refuses an n that is not an integer >= 1
    return CoefficientFamily(
        dimension=n,
        entries={},
        truncation_degree=0,
        tail=AnalyticTail(parameter=v),
        label=f"extremal_g(n={n}, p={p})",
    )


def linear_form_scale(n, q, t):
    """sup of ||z||_q over the unit l_t ball: max(1, n^(1/q - 1/t))."""
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    inv_t = 0.0 if math.isinf(t) else 1.0 / t
    return max(1.0, n ** (inv_q - inv_t))


def linear_form(n, q, t):
    """Degree-1 family for F(z) = sum e_k z_k / M, sup-norm 1 on B(l_t^n).

    Values live in l_q^n; M = linear_form_scale(n, q, t) normalizes.
    """
    multiindex.checked_int("n", n, 1)
    if not (q >= 1.0) or not (t >= 1.0):
        raise ParameterError(f"need q, t >= 1, got q={q}, t={t}")
    m = linear_form_scale(n, q, t)
    entries = {}
    for i in range(n):
        entries[tuple(1 if j == i else 0 for j in range(n))] = 1.0 / m
    return CoefficientFamily(
        dimension=n,
        entries=entries,
        truncation_degree=1,
        label=f"linear_form(n={n}, q={q}, t={t})",
        sup_norm_certified=True,
    )


def normalized_monomial(alpha, t):
    """z^alpha divided by its sup over B(l_t^n); single entry, sup-norm 1."""
    multiindex.validate(alpha)
    k = sum(alpha)
    if k < 1:
        raise ParameterError("normalized monomial needs degree >= 1")
    if not (t >= 1.0):
        raise ParameterError(f"need t >= 1, got t={t}")
    if math.isinf(t):
        value = 1.0  # sup over the polydisk is 1
    else:
        # sup over the ball of |z^alpha| is prod (alpha_i / k)^(alpha_i / t)
        log_sup = sum(a * (math.log(a) - math.log(k)) for a in alpha if a > 0) / t
        value = math.exp(-log_sup)
    return CoefficientFamily(
        dimension=len(alpha),
        entries={tuple(alpha): value},
        truncation_degree=k,
        label=f"monomial(alpha={tuple(alpha)}, t={t})",
        sup_norm_certified=True,
    )


def rescale(f, sigma):
    """The family with entry sigma^alpha * ||x_alpha|| at each alpha.

    A tail survives only a constant sigma (parameter scales by that constant);
    non-constant sigma with a tail present is refused.
    """
    if len(sigma) != f.dimension:
        raise ParameterError(
            f"sigma has length {len(sigma)}, family dimension is {f.dimension}"
        )
    if any(s <= 0 for s in sigma):
        raise ParameterError("sigma entries must be positive")
    constant = all(s == sigma[0] for s in sigma)
    tail = f.tail
    if tail is not None:
        if not constant:
            raise ParameterError("cannot rescale a tailed family by non-constant sigma")
        scaled = sigma[0] * tail.parameter
        if scaled >= 1.0:
            raise ParameterError(f"rescaled tail parameter {scaled} leaves [0,1)")
        tail = AnalyticTail(parameter=scaled)
    entries = {}
    for alpha, value in f.entries.items():
        factor = 1.0
        try:
            for s, a in zip(sigma, alpha):
                factor *= s**a
        except OverflowError:
            raise ParameterError(f"rescaled entry at {alpha} exceeds the float range") from None
        entries[alpha] = factor * value
    return CoefficientFamily(
        dimension=f.dimension,
        entries=entries,
        truncation_degree=f.truncation_degree,
        tail=tail,
        label=f.label + " (rescaled)",
    )


def h2_norm(f):
    """(sum_alpha ||x_alpha||^2)^(1/2) including degree 0 and the tail."""
    total = sum(v * v for v in f.entries.values())
    if f.tail is not None:
        total += f.tail_block(f.tail.parameter**2)[0]
    return math.sqrt(total)


def to_json(f):
    doc = {
        "dimension": f.dimension,
        "truncation_degree": f.truncation_degree,
        "entries": [[list(alpha), value] for alpha, value in sorted(f.entries.items())],
        "tail": None if f.tail is None else {"kind": TAIL_KIND, "parameter": f.tail.parameter},
        "label": f.label,
        "sup_norm_certified": f.sup_norm_certified,
    }
    return json.dumps(doc)


def _tail_from_json(tail):
    parameter = tail["parameter"]
    if tail["kind"] != TAIL_KIND:
        raise ParameterError(f"unknown tail kind: {tail['kind']}")
    return AnalyticTail(parameter=parameter)


def from_json(text):
    doc = json.loads(text)
    tail = doc.get("tail")
    entries = {tuple(parts): value for parts, value in doc["entries"]}
    if len(entries) != len(doc["entries"]):
        raise ParameterError("an index is given twice in the entries")
    return CoefficientFamily(
        dimension=doc["dimension"],
        entries=entries,
        truncation_degree=doc["truncation_degree"],
        tail=None if tail is None else _tail_from_json(tail),
        label=doc.get("label", ""),
        sup_norm_certified=doc.get("sup_norm_certified", False),
    )
