"""Powered majorant S_p(f, r, domain) = sup_{z in rR} sum ||x_alpha||^p |z^alpha|^p.

On the polydisk the sup separates (|z_i| = r termwise) and the value is
exact, including the closed-form tail.  On an l_t ball the sup becomes a
posynomial maximization over the simplex u_i = |z_i|^t, sum u_i = r^t,
solved in closed form where one exists and by deterministic multistart
multiplicative updates otherwise.  The starts advance together as the rows
of one array, and each row stops at the update where its own run would.

Every value comes with its slope dS/d(log r).  A term of degree k scales
as r^(pk), so its slope is p k times the term; on the ball the envelope
theorem gives the slope of the sup as that sum at the maximizer.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import multiindex
from .errors import ConvergenceError, ParameterError, TailDivergenceError

# The multistart ball optimizer: number of starts, update cap, and the
# relative change below which `PATIENCE` updates in a row count as converged.
N_STARTS = 16
MAX_ITER = 100_000
REL_TOL = 1e-12
PATIENCE = 50


@dataclass(frozen=True)
class DomainSpec:
    kind: str  # "polydisk" | "lt_ball"
    t: float = math.inf

    def __post_init__(self):
        if self.kind == "polydisk":
            if not math.isinf(self.t):
                raise ParameterError("polydisk has t = inf")
        elif self.kind == "lt_ball":
            if not (1.0 <= self.t < math.inf):
                raise ParameterError(f"lt_ball needs t in [1, inf), got {self.t}")
        else:
            raise ParameterError(f"unknown domain kind: {self.kind}")

    @staticmethod
    def polydisk():
        return DomainSpec(kind="polydisk")

    @staticmethod
    def lt_ball(t):
        return DomainSpec(kind="lt_ball", t=float(t))

    @staticmethod
    def from_t(t):
        return DomainSpec.polydisk() if math.isinf(t) else DomainSpec.lt_ball(t)


@dataclass(frozen=True)
class MajorantValue:
    value: float
    slope: float  # dS/d(log r)
    exactness: str  # "exact" | "lower_bound" | "optimizer"
    maximizer: tuple | None = None


def _tail_block(f, p, r):
    """(closed-form tail sum over degrees k > truncation, its slope in log r),
    polydisk semantics."""
    if f.tail is None:
        return 0.0, 0.0
    s = (f.tail.parameter * r) ** p
    if s >= 1.0:
        raise TailDivergenceError(
            f"tail diverges at p={p}, r={r} (parameter {f.tail.parameter})"
        )
    block, s_slope = f.tail_block(s)
    return block, p * s_slope  # ds/d(log r) = p s


def powered_majorant_polydisk(f, p, r):
    """Exact value of the majorant on the polydisk of radius r."""
    if p <= 0:
        raise ParameterError(f"need p > 0, got {p}")
    if not 0.0 <= r < 1.0:
        raise ParameterError(f"need r in [0,1), got {r}")
    value = slope = 0.0
    for k, dsum in f.degree_power_sums(p).items():
        term = dsum * r ** (p * k)
        value += term
        slope += k * term
    tail, tail_slope = _tail_block(f, p, r)
    return MajorantValue(
        value=value + tail,
        slope=p * slope + tail_slope,
        exactness="exact",
        maximizer=(r,) * f.dimension,
    )


def _terms(f, p):
    """(alpha matrix, ||x||^p coefficients) over positive entries of degree >= 1."""
    alphas = []
    coeffs = []
    for alpha, value in sorted(f.entries.items()):
        if sum(alpha) >= 1 and value > 0.0:
            alphas.append(alpha)
            coeffs.append(value**p)
    if not alphas:
        return np.zeros((0, f.dimension)), np.zeros(0)
    return np.array(alphas, dtype=float), np.array(coeffs)


def _single_monomial_max(alpha, coeff, p, t, r):
    """Weighted AM-GM: maximizer u_i proportional to alpha_i."""
    k = sum(alpha)
    log_val = math.log(coeff) + p * k * math.log(r) if r > 0 else -math.inf
    if r > 0:
        log_val += (p / t) * sum(a * (math.log(a) - math.log(k)) for a in alpha if a > 0)
        value = math.exp(log_val)
    else:
        value = 0.0
    budget = r**t
    u = [budget * a / k for a in alpha]
    z = tuple(ui ** (1.0 / t) for ui in u)
    return MajorantValue(value=value, slope=p * k * value, exactness="exact", maximizer=z)


def _degree_one_max(coeffs, p, t, r):
    """Closed forms for sum c_i u_i^(p/t) over the simplex sum u_i = r^t."""
    s = p / t
    budget = r**t
    if s < 1.0:
        # interior optimum: u_i proportional to c_i^(1/(1-s))
        w = coeffs ** (1.0 / (1.0 - s))
        total_w = float(np.sum(w))
        value = budget**s * total_w ** (1.0 - s)
        u = budget * w / total_w
    else:
        # convex in u: optimum sits at the best vertex
        i = int(np.argmax(coeffs))
        value = float(coeffs[i]) * budget**s
        u = np.zeros_like(coeffs)
        u[i] = budget
    z = tuple(float(ui) ** (1.0 / t) for ui in u)
    # value is homogeneous of degree p in r
    return MajorantValue(value=value, slope=p * value, exactness="exact", maximizer=z)


def _multistart_points(n, budget, alphas, coeffs, seed, n_starts):
    points = [np.full(n, budget / n)]
    for i in range(n):
        u = np.full(n, 0.1 * budget / max(n - 1, 1))
        u[i] = 0.9 * budget
        points.append(u)
    # term-proportional starts for the largest-coefficient terms
    order = np.argsort(-coeffs)
    for j in order[:4]:
        a = alphas[j]
        if a.sum() > 0:
            u = budget * (a + 0.05) / (a + 0.05).sum()
            points.append(u)
    rng = np.random.default_rng(seed)
    while len(points) < n_starts:
        w = rng.random(n) + 1e-6
        points.append(budget * w / w.sum())
    return points[:n_starts]


def powered_majorant_ball(f, p, t, r, seed=0):
    """Majorant over the l_t ball of radius r via simplex maximization.

    A present tail is bounded by its polydisk closed form and added on top.
    Closed forms cover single monomials and pure degree-1 families; the rest
    runs deterministic multistart multiplicative updates on the simplex, all
    starts in one batch.
    """
    if p <= 0:
        raise ParameterError(f"need p > 0, got {p}")
    if not (1.0 <= t < math.inf):
        raise ParameterError(f"need t in [1, inf), got {t}")
    if not 0.0 <= r < 1.0:
        raise ParameterError(f"need r in [0,1), got {r}")
    tail_bound, tail_slope = _tail_block(f, p, r)
    alphas, coeffs = _terms(f, p)
    n = f.dimension

    if len(coeffs) == 0 or r == 0.0:
        return MajorantValue(
            value=tail_bound,
            slope=tail_slope,
            exactness="exact" if f.tail is None else "optimizer",
            maximizer=(r * n ** (-1.0 / t),) * n,
        )

    result = None
    if len(coeffs) == 1:
        alpha = tuple(int(a) for a in alphas[0])
        result = _single_monomial_max(alpha, float(coeffs[0]), p, t, r)
    elif np.all(alphas.sum(axis=1) == 1):
        # reorder coefficients by coordinate so vertex/interior formulas apply
        by_coord = np.zeros(n)
        for row, c in zip(alphas, coeffs):
            by_coord[int(np.argmax(row))] += c
        result = _degree_one_max(by_coord, p, t, r)
    if result is not None:
        if tail_bound > 0.0:
            result = MajorantValue(
                value=result.value + tail_bound,
                slope=result.slope + tail_slope,
                exactness="optimizer",
                maximizer=result.maximizer,
            )
        return result

    exponents = alphas * (p / t)  # shape (terms, n)
    budget = r**t

    exponents_t = exponents.T

    def evaluate(u):
        """(objectives, per-term monomials) of every row of u, from one exp/log pass."""
        powers = np.exp(np.log(np.maximum(u, 1e-300)) @ exponents_t)
        return powers @ coeffs, coeffs * powers

    # All starts advance together as the rows of one array.  `rows` maps the
    # rows still running to their starts; a row leaves at the update where
    # its own run would stop, and its last iterate and value are kept.
    u = np.array(_multistart_points(n, budget, alphas, coeffs, seed, N_STARTS))
    final_u = np.empty_like(u)
    final_value = np.empty(len(u))
    converged = np.zeros(len(u), dtype=bool)
    rows = np.arange(len(u))
    cur, mono = evaluate(u)
    calm = np.zeros(len(u), dtype=int)
    for _ in range(MAX_ITER):
        if rows.size == 0:
            break
        w = mono @ exponents  # w_i = u_i * dF/du_i, per row
        total_w = w.sum(axis=1)
        stalled = total_w <= 0.0
        if stalled.any():
            final_u[rows[stalled]] = u[stalled]
            final_value[rows[stalled]] = cur[stalled]
            keep = ~stalled
            rows, w, total_w, cur, calm = (a[keep] for a in (rows, w, total_w, cur, calm))
        u = budget * w / total_w[:, None]
        prev = cur
        cur, mono = evaluate(u)
        # objectives are nonnegative, so |cur| needs no abs
        calm = (calm + 1) * (np.abs(cur - prev) <= REL_TOL * np.maximum(cur, 1.0))
        done = calm >= PATIENCE
        if done.any():
            converged[rows[done]] = True
            final_u[rows[done]] = u[done]
            final_value[rows[done]] = cur[done]
            keep = ~done
            rows, u, mono, cur, calm = (a[keep] for a in (rows, u, mono, cur, calm))
    final_u[rows] = u
    final_value[rows] = cur

    # pick in start order: a larger value wins, a tie goes to the
    # lexicographically larger point
    best_value = -1.0
    best_u = None
    for value, row in zip(final_value.tolist(), final_u):
        if value > best_value or (
            value == best_value and best_u is not None and tuple(row) > tuple(best_u)
        ):
            best_value = value
            best_u = row
    if not converged.any():
        raise ConvergenceError(
            "ball maximizer did not converge on any start",
            best_value=best_value + tail_bound,
            best_point=None if best_u is None else tuple(best_u ** (1.0 / t)),
        )
    # envelope theorem: at the maximizer, dS/d(log r) = sum p |alpha| term_alpha
    _, terms = evaluate(best_u[None, :])
    slope = p * float(terms[0] @ alphas.sum(axis=1))
    z = tuple(float(ui) ** (1.0 / t) for ui in best_u)
    return MajorantValue(
        value=best_value + tail_bound,
        slope=slope + tail_slope,
        exactness="optimizer",
        maximizer=z,
    )


def powered_majorant(f, p, domain, r, seed=0):
    if domain.kind == "polydisk":
        return powered_majorant_polydisk(f, p, r)
    return powered_majorant_ball(f, p, domain.t, r, seed=seed)


def torus_sup_lower_bound(coefficients, dimension, samples, seed=0, domain=None):
    """Certified lower bound on sup |sum c_alpha z^alpha| by boundary sampling.

    `coefficients` maps multi-index tuples to complex coefficients.  Samples
    are drawn on the unit polytorus (polydisk) or on the l_t sphere with
    random phases (ball); deterministic in the seed.
    """
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    if domain is None:
        domain = DomainSpec.polydisk()
    items = sorted(coefficients.items())
    if not items:
        return 0.0
    alphas = np.array([a for a, _ in items], dtype=float)
    coeffs = np.array([c for _, c in items], dtype=complex)
    rng = np.random.default_rng(seed)
    best = 0.0
    batch = 4096
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(m, dimension))
        if domain.kind == "polydisk":
            log_mod = np.zeros((m, dimension))
        else:
            # normalized generalized-Gaussian draws land on the l_t sphere
            g = rng.gamma(1.0 / domain.t, 1.0, size=(m, dimension)) ** (1.0 / domain.t)
            g = np.maximum(g, 1e-300)
            scale = (np.sum(g**domain.t, axis=1, keepdims=True)) ** (1.0 / domain.t)
            log_mod = np.log(g / scale)
        phase = theta @ alphas.T
        radial = log_mod @ alphas.T
        values = np.abs(np.exp(radial + 1j * phase) @ coeffs)
        best = max(best, float(values.max()))
        done += m
    return best


def per_degree_l2(f, k):
    """(sum_{|alpha|=k} ||x_alpha||^2)^(1/2), from entries or the tail model."""
    if k < 0:
        raise ParameterError(f"need k >= 0, got {k}")
    if k == 0:
        zero = (0,) * f.dimension
        return abs(f.entries.get(zero, 0.0))
    if k <= f.truncation_degree:
        total = sum(v * v for a, v in f.entries.items() if sum(a) == k)
        return math.sqrt(total)
    if f.tail is None:
        return 0.0
    return math.sqrt(multiindex.count(f.dimension, k)) * f.tail.parameter**k
