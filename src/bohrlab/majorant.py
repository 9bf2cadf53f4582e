"""Powered majorant S_p(f, r, domain) = sup_{z in rR} sum ||x_alpha||^p |z^alpha|^p.

`evaluator(f, p, domain, seed)` checks p and compiles the domain's path
once: on the polydisk, where the sup separates (|z_i| = r termwise), the
sums of ||x_alpha||^p per degree; on an l_t ball, where it is a posynomial
maximization over the simplex u_i = |z_i|^t, sum u_i = r^t, a closed form
or deterministic multistart updates.  Its evaluate(r) checks r, adds the
family's `powered_tail` and labels the value for both domains; the
`powered_majorant*` functions are one evaluation each.  A value depends on
(f, p, domain, seed, r) alone.

A family is read only through `dimension`, `powered_terms(p)`,
`degree_power_sums(p)` and `powered_tail(p, r)`, which a `CoefficientFamily`
and a pluriharmonic pair (terms |a_alpha|^p + |b_alpha|^p) both provide.

The optimizer's plain update is the fixed-point map u <- T(u) = b w / sum(w)
with w_i = u_i dF/du_i and b = r^t.  Where the terms use at most
`NEWTON_MAX_DIM` coordinates, each update also solves (I - DT) d = T(u) - u
on those coordinates for the Newton point u + d of u = T(u), and takes
it, renormalized to the simplex, when it is strictly positive where u is
and its value is at least that of T(u); unused coordinates, and those
at 0, stay at 0.  Near an optimum on a face of the simplex the Newton
point leaves the simplex.  There the step is retaken on the face (an
active-set step): each coordinate that the point drives to <= 0 and
whose gradient is below the multiplier sum(w) / b is held at 0, and the
face point is taken under the same test when the optimality condition
dF/du_i <= sum(w) / b holds for the held coordinates at that point.  The
starts advance together as the rows of one array.  A row stops after
`PATIENCE` updates in a row within `REL_TOL`, and, where Newton points
are tried, also after `STILL` updates in a row that each move its value
by at most `STILL_ULPS` ulps; rows at face optima stop by this rule as
well.  A row that stops has its iterate and value recorded at that update
and stays in the array, so every product has `N_STARTS` rows.

On the ball the evaluator also gives the solver its start: the smallest
radius where one term's AM-GM maximum reaches 1 (`_amgm_crossing`).
S >= 1 there, so S crosses 1 at or below it.

Every value comes with its slope dS/d(log r).  A term of degree k scales
as r^(pk), so its slope is p k times the term; on the ball the envelope
theorem gives the slope of the sup as that sum at the maximizer.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError

# The multistart ball optimizer: number of starts, update cap, and the
# relative change below which `PATIENCE` updates in a row count as converged.
# Newton points are tried only where at most `NEWTON_MAX_DIM` coordinates
# appear in the terms: the step costs about that many plain updates, and
# its outer products take that many squared floats per term.  There a row
# also stops after `STILL` updates in a row that each move its value by at
# most `STILL_ULPS` units in the last place.
N_STARTS = 16
MAX_ITER = 100_000
REL_TOL = 1e-12
PATIENCE = 50
STILL = 3
STILL_ULPS = 4
NEWTON_MAX_DIM = 16


@dataclass(frozen=True)
class DomainSpec:
    t: float  # inf: the polydisk; [1, inf): the l_t ball

    def __post_init__(self):
        if not self.t >= 1.0:
            raise ParameterError(f"need t in [1, inf], got {self.t}")

    @staticmethod
    def polydisk():
        return DomainSpec(math.inf)

    @staticmethod
    def lt_ball(t):
        t = float(t)
        if math.isinf(t):
            raise ParameterError(f"lt_ball needs t in [1, inf), got {t}")
        return DomainSpec(t)


@dataclass(frozen=True)
class MajorantValue:
    value: float
    slope: float  # dS/d(log r)
    exactness: str  # "exact" | "optimizer"
    maximizer: tuple | None = None  # on the ball; None on the polydisk


def _polydisk_path(f, p):
    """path(r) -> (value, slope, None) of the explicit terms on the polydisk
    of radius r, from the per-degree sums of ||x_alpha||^p.  The sup sits at
    |z_i| = r, so no maximizer is built."""
    sums = list(f.degree_power_sums(p).items())

    def path(r):
        value = slope = 0.0
        for k, dsum in sums:
            term = dsum * r ** (p * k)
            value += term
            slope += k * term
        return value, p * slope, None

    return path


def _terms(f, p):
    """(alpha matrix, ||x||^p coefficients) of `f.powered_terms(p)`, sorted by alpha."""
    terms = sorted(f.powered_terms(p))
    if not terms:
        return np.zeros((0, f.dimension)), np.zeros(0)
    alphas, coeffs = zip(*terms)
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
    return value, p * k * value, tuple(ui ** (1.0 / t) for ui in u)


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
    # value is homogeneous of degree p in r
    return value, p * value, tuple(float(ui) ** (1.0 / t) for ui in u)


def _start_directions(n, alphas, coeffs, seed, n_starts):
    """Multistart points on the unit simplex; scaled by b they are the starts
    on sum u_i = b.  The centre, one point near each vertex, term-proportional
    points for the four largest coefficients, then seeded random points."""
    points = [np.full(n, 1.0 / n)]
    for i in range(min(n, n_starts - 1)):
        u = np.full(n, 0.1 / max(n - 1, 1))
        u[i] = 0.9
        points.append(u)
    for j in np.argsort(-coeffs)[:4]:
        a = alphas[j] + 0.05
        points.append(a / a.sum())
    rng = np.random.default_rng(seed)
    while len(points) < n_starts:
        w = rng.random(n) + 1e-6
        points.append(w / w.sum())
    return np.array(points[:n_starts])


def _amgm_crossing(alphas, coeffs, p, t):
    """The smallest r at which one term's AM-GM maximum over the l_t ball
    of radius r, c r^(pk) prod_i (alpha_i / k)^(p alpha_i / t) with
    k = |alpha|, reaches 1; no term exceeds the sup, so S >= 1 there.  inf
    where no such r lies in (0, 1) as a float: without terms, and where
    every term's crossing is at or beyond 1 or the smallest one underflows."""
    if len(coeffs) == 0:
        return math.inf
    degrees = alphas.sum(axis=1)
    # alpha_i log(alpha_i / k), 0 at alpha_i = 0
    entropy = (alphas * np.log(np.maximum(alphas, 1.0) / degrees[:, None])).sum(axis=1)
    log_r = float((-(np.log(coeffs) + (p / t) * entropy) / (p * degrees)).min())
    r = math.exp(min(log_r, 0.0))
    return r if 0.0 < r < 1.0 else math.inf


def _ball_path(f, p, t, seed):
    """(path, optimizes, start): path(r) -> (value, slope, maximizer) of
    the explicit terms over the l_t ball of radius r, whether path(r) runs
    the optimizer at r > 0, and the terms' `_amgm_crossing`.  Closed forms
    cover single monomials and pure degree-1 families; the rest runs the
    multistart optimizer, all starts in one batch.  Where no start
    converges, the slope is None and the maximizer the best point found,
    or None."""
    alphas, coeffs = _terms(f, p)
    n = f.dimension
    degrees = alphas.sum(axis=1)
    closed = maximize = None
    if len(coeffs) == 1:
        alpha = tuple(int(a) for a in alphas[0])
        closed = functools.partial(_single_monomial_max, alpha, float(coeffs[0]), p, t)
    elif len(coeffs) > 1 and np.all(degrees == 1):
        # reorder coefficients by coordinate so vertex/interior formulas apply
        by_coord = np.zeros(n)
        for row, c in zip(alphas, coeffs):
            by_coord[int(np.argmax(row))] += c
        closed = functools.partial(_degree_one_max, by_coord, p, t)
    elif len(coeffs) > 1:
        maximize = _simplex_maximizer(alphas, coeffs, p / t, seed)

    def path(r):
        if len(coeffs) == 0 or r == 0.0:
            return 0.0, 0.0, (r * n ** (-1.0 / t),) * n
        if closed is not None:
            return closed(r)
        value, u, terms, converged = maximize(r**t)
        if not converged:
            return value, None, None if u is None else tuple(u ** (1.0 / t))
        # envelope theorem: at the maximizer, dS/d(log r) = sum p |alpha| term_alpha
        return value, p * float(terms @ degrees), tuple(float(ui) ** (1.0 / t) for ui in u)

    return path, maximize is not None, _amgm_crossing(alphas, coeffs, p, t)


def _simplex_maximizer(alphas, coeffs, s, seed):
    """maximize(budget) -> (value, u, per-term values at u, converged) for
    F(u) = sum_k c_k prod_i u_i^(s alpha_ki) on the simplex sum u_i = budget;
    the per-term values are None when no start converged.

    Every start takes updates u <- T(u) = budget w / sum(w), where
    w_i = u_i dF/du_i, or a safeguarded Newton point of u = T(u) when it
    is better.  A coordinate that no term uses has w_i = 0, so both put 0
    there, and the Newton system is solved on the used coordinates alone.
    Where the Newton point leaves the simplex, as it does near an optimum
    on a face, the step is retaken on that face (see `newton_points`).
    Where more than `NEWTON_MAX_DIM` coordinates are used, every update is
    plain and only the `PATIENCE` rule stops a row.  The starts advance
    together as the rows of one array.  A row finishes at the update where
    its own run would stop, and its iterate and value there are recorded;
    it stays in every later product, retired by a mask, so that each
    product has `N_STARTS` rows and a value is a pure function of budget.
    """
    n = alphas.shape[1]
    exponents = alphas * s  # E, shape (terms, n)
    exponents_t = exponents.T
    used = np.flatnonzero(alphas.any(axis=0))
    m = len(used)
    if m == n:
        used = slice(None)  # u[:, used] is then a view, not a copy
    newton = m <= NEWTON_MAX_DIM
    if newton:
        # E_k E_k^T of each term on the used coordinates, flattened, so
        # that H below is one product
        e_used = exponents[:, used]
        outer = (e_used[:, :, None] * e_used[:, None, :]).reshape(len(coeffs), m * m)
        identity = np.eye(m)
        # for the face step: which terms hold each coordinate, which hold it
        # to the power 1 (so dF/du_i keeps them at u_i = 0), and which
        # coordinates may be dropped: a power in (0, 1) makes dF/du_i
        # infinite at u_i = 0, so the optimum never has u_i = 0
        holds = (e_used > 0.0).astype(float)
        linear = (e_used == 1.0).astype(float)
        droppable = ~((e_used > 0.0) & (e_used < 1.0)).any(axis=0)
        term_weights = e_used.sum(axis=1)  # sum(w) = mono @ term_weights
    directions = _start_directions(n, alphas, coeffs, seed, N_STARTS)

    def objective(u):
        """(objectives, per-term monomials) of every row of u, from one exp/log pass."""
        powers = np.exp(np.log(np.maximum(u, 1e-300)) @ exponents_t)
        return powers @ coeffs, coeffs * powers

    def face_points(x, system, rhs, dropped, budget):
        """(ok, points): the Newton step retaken with u_i held at 0 where
        `dropped`, by unit rows of `system` and right-hand side -u_i there,
        and whether each point is positive on the other used coordinates
        and satisfies dF/du_i <= lambda = sum(w) / budget at every dropped
        i; all False when the linear solve fails.

        At u_i = 0 only the terms that hold u_i to the power 1 and no other
        dropped coordinate add to dF/du_i, each by c_k times its product
        over the kept coordinates; sum(w) takes the terms that hold no
        dropped coordinate.  So the test is one exp/log pass.
        """
        try:
            face = x + np.linalg.solve(
                np.where(dropped[:, :, None], identity, system),
                np.where(dropped, -x, rhs)[:, :, None],
            )[:, :, 0]
        except np.linalg.LinAlgError:
            return np.zeros(len(x), dtype=bool), x
        face[dropped] = 0.0
        points = face * (budget / face.sum(axis=1))[:, None]
        kept = coeffs * np.exp(np.log(np.where(dropped, 1.0, points)) @ e_used.T)
        hits = dropped @ holds.T  # dropped coordinates in each term
        lam = (kept * (hits == 0.0)) @ term_weights / budget
        grad = (kept * (hits == 1.0)) @ linear
        ok = ((face > 0.0) | dropped).all(axis=1)
        return ok & ((grad <= lam[:, None]) | ~dropped).all(axis=1), face

    def newton_points(u, mono, w, total_w, plain, budget):
        """(usable, points): u + d renormalised to the simplex, where
        (I - DT) d = T(u) - u, with 0 where u is 0 as T keeps it there, and
        whether it is strictly positive on the other used coordinates; None
        when the linear solve fails.

        With H_ij = dw_i/du_j = (E^T diag(mono) E)_ij / u_j, the Jacobian of
        T is DT = budget (H / S - w colsum(H)^T / S^2) = (budget H - T(u)
        colsum(H)^T) / S, where S = sum(w).  Its rows and columns at unused
        coordinates are 0, so there d = T(u) - u = -u and u + d = 0.  u_j
        is floored as in `objective`, so that a column at u_j = 0 is finite.

        A row whose point is not positive retakes the step on a face: it
        drops each droppable coordinate where u + d <= 0 and the gradient
        w_i / u_i is below the multiplier lambda = sum(w) / budget, and
        those where u is 0, solves the system again with unit rows and
        right-hand side -u_i there (`face_points`), and takes the point, 0
        at the dropped coordinates, when it is positive on the others and
        satisfies the optimality condition there.
        """
        x = u[:, used]
        h = (mono @ outer).reshape(-1, m, m) / np.maximum(x, 1e-300)[:, None, :]
        total = total_w[:, None, None]
        system = identity - (budget * h - plain[:, used, None] * h.sum(axis=1)[:, None, :]) / total
        rhs = plain[:, used] - x
        try:
            v = x + np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return None
        # T keeps u_i = 0, so the point does too
        positive = x > 0.0
        v *= positive
        usable = ((v > 0.0) == positive).all(axis=1)
        if not usable.all():
            lam = total_w / budget
            drop = (v <= 0.0) & (w[:, used] < lam[:, None] * x) & droppable
            rows = np.flatnonzero(drop.any(axis=1))
            if rows.size:
                dropped = drop[rows] | ~positive[rows]
                ok, face = face_points(x[rows], system[rows], rhs[rows], dropped, budget)
                v[rows[ok]] = face[ok]
                usable[rows[ok]] = True
        # a non-finite v makes its point nan, whose value loses to any other
        v *= (budget / v.sum(axis=1))[:, None]
        if m == n:
            return usable, v
        points = np.zeros_like(u)
        points[:, used] = v
        return usable, points

    def maximize(budget):
        u = budget * directions
        final_u = np.empty_like(u)
        final_value = np.empty(len(u))
        converged = np.zeros(len(u), dtype=bool)
        going = np.ones(len(u), dtype=bool)  # rows not yet finished
        calm = np.zeros(len(u), dtype=int)
        still = np.zeros(len(u), dtype=int)

        def finish(rows):
            final_u[rows] = u[rows]
            final_value[rows] = cur[rows]
            going[rows] = False

        # a Newton or face point that leaves the simplex has nan logs and
        # values, and is refused; a row whose values overflow stops
        # unconverged, so the warnings say nothing
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cur, mono = objective(u)
            for update in range(MAX_ITER + 1):
                # w_i = u_i * dF/du_i.  Finished rows stay in every product,
                # whose row count is then fixed, and their later iterates
                # are not read
                w = mono @ exponents
                total_w = w.sum(axis=1)
                if not total_w.min() > 0.0 or update == MAX_ITER:
                    # a row stops unconverged when its weights vanish or
                    # turn nan (after an overflow), or once MAX_ITER updates
                    # are spent
                    stop = going & ~(total_w > 0.0) if update < MAX_ITER else going
                    finish(stop)
                    if not going.any():
                        break
                plain = budget * w / total_w[:, None]
                prev = cur
                step = newton_points(u, mono, w, total_w, plain, budget) if newton else None
                if step is None:
                    u = plain
                    cur, mono = objective(u)
                else:
                    # both candidates of every row in one pass: row i is
                    # its plain point, row k + i its Newton point
                    usable, points = step
                    values, monos = objective(np.concatenate((plain, points)))
                    k = len(plain)
                    take = usable & (values[k:] >= values[:k])
                    u = np.where(take[:, None], points, plain)
                    cur = np.where(take, values[k:], values[:k])
                    mono = np.where(take[:, None], monos[k:], monos[:k])
                # objectives are nonnegative, so |cur| needs no abs
                moved = np.abs(cur - prev)
                calm_now = moved <= REL_TOL * np.maximum(cur, 1.0)
                calm = (calm + 1) * calm_now
                if not calm_now.any():
                    # a move within STILL_ULPS ulps is also within REL_TOL,
                    # so no row is still, nor done, either
                    still = calm
                    continue
                done = calm >= PATIENCE
                if newton:
                    still = (still + 1) * (moved <= STILL_ULPS * np.spacing(cur))
                    done |= still >= STILL
                done &= going
                if done.any():
                    converged |= done
                    finish(done)
                    if not going.any():
                        break

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
            return best_value, best_u, None, False
        # a converged row has a finite value, so best_u is set
        _, terms = objective(best_u[None, :])
        return best_value, best_u, terms[0], True

    return maximize


def evaluator(f, p, domain, seed=0):
    """evaluate(r) -> the majorant over the domain of radius r; no
    evaluation starts from an earlier one.  `evaluate.start` is a radius
    in (0, 1) where S >= 1 is known without evaluating: on the ball the
    largest single-term AM-GM crossing (`_amgm_crossing`); inf where none
    is known, on the polydisk and without explicit terms.

    The family's `powered_tail(p, r)` is its tail's polydisk closed form:
    exact on the polydisk, an upper bound on the ball.  So a value is
    labelled exact on the polydisk, and on the ball when it comes from a
    closed form or the empty sum (r = 0 included) and the tail adds nothing
    at r; otherwise it is labelled optimizer.
    """
    if not 0.0 < p < math.inf:
        raise ParameterError(f"need p > 0 and finite, got {p}")
    polydisk = math.isinf(domain.t)
    if polydisk:
        path, optimizes, start = _polydisk_path(f, p), False, math.inf
    else:
        path, optimizes, start = _ball_path(f, p, domain.t, seed)

    def evaluate(r):
        if not 0.0 <= r < 1.0:
            raise ParameterError(f"need r in [0,1), got {r}")
        tail, tail_slope = f.powered_tail(p, r)
        value, slope, z = path(r)
        if slope is None:
            raise ConvergenceError(
                "ball maximizer did not converge on any start",
                best_value=value + tail,
                best_point=z,
            )
        exact = (not optimizes or r == 0.0) and (polydisk or tail == 0.0)
        return MajorantValue(value + tail, slope + tail_slope, "exact" if exact else "optimizer", z)

    evaluate.start = start
    return evaluate


def powered_majorant(f, p, domain, r, seed=0):
    """The majorant over the domain of radius r: one evaluation of `evaluator`."""
    return evaluator(f, p, domain, seed)(r)


def powered_majorant_polydisk(f, p, r):
    """Exact value of the majorant on the polydisk of radius r.  The sup sits
    at |z_i| = r, so the maximizer is None."""
    return powered_majorant(f, p, DomainSpec.polydisk(), r)


def powered_majorant_ball(f, p, t, r, seed=0):
    """Majorant over the l_t ball of radius r."""
    return powered_majorant(f, p, DomainSpec.lt_ball(t), r, seed)
