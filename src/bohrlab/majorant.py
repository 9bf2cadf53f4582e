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
`degree_power_sums(p)`, `powered_tail(p, r)` and, on the ball,
`tail_lead(p)`, which a `CoefficientFamily` and a pluriharmonic pair (terms
|a_alpha|^p + |b_alpha|^p, one tail row per part) both provide.

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
well.  There a point with one coordinate above the 1e-300 floor of the
logs is pinned to that vertex of the simplex, b there exactly, so that a
row at a vertex optimum does not move by an ulp at every update.  A row
that stops has its iterate and value recorded at that update and stays
in the array, so every product has `N_STARTS` rows.

On the ball the path is compiled around one AM-GM table, built once per
evaluator: a row per explicit term, L = log c + (p/t) sum_i alpha_i
log(alpha_i/|alpha|), the log of the term's maximum on the unit ball, with
its degree |alpha|, and a row per tail for its first degree block, C(n+K,
K+1) (v r)^(p(K+1)) with K the truncation degree.  Each row is a term of S
that equals e^L r^(p|alpha|), so the smallest radius where one term's AM-GM
maximum reaches 1 (a tail's first block included) has S >= 1; this AM-GM
start bounds the crossing from above.  A single term and a pure degree-1
family compile to one homogeneous closed form, S = A r^(pk) with maximizer
r z0, from the same table; a degree-1 form's own crossing A^(-1/p) lies
below every row's, and is its start.

The solver's start on the optimizer path is the crossing of one joint
pass.  With u = r^t x, x on the unit simplex, S(r) is the sup over x of
G(r, x) = sum c_alpha r^(p|alpha|) x^(s alpha) plus the tail, s = p/t, so
the radius is the least crossing with 1 over x.  The pass runs the
optimizer's update on all starts from the AM-GM start (from r = 1 where
there is none) and, after each update, moves r to the Newton point in log
r of the best row's G + tail, rescaling the rows to the new budget r^t.
Once that point stops moving left, the start is the witness r0: the first
float where the best row's G + tail is strictly above 1.  That row's point
is feasible there, so S(r0) >= G + tail > 1, and the solver takes r0 as
the right end of its bracket without evaluating S there: `start()` hands
on that value and its slope.  A pass that fails, or whose row does not
pass 1 by the AM-GM start (or within `STILL_ULPS` floats past it), leaves
the AM-GM start, with no value known there.

Every value comes with its slope dS/d(log r).  A term of degree k scales
as r^(pk), so its slope is p k times the term; on the ball the envelope
theorem gives the slope of the sup as that sum at the maximizer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError, TailDivergenceError

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


def _ball_path(f, p, t, seed):
    """(path, optimizes, start): path(r) -> (value, slope, maximizer) of
    the explicit terms over the l_t ball of radius r, whether path(r) runs
    the optimizer at r > 0, and start() -> (a radius in (0, 1) where S >= 1
    is known, or inf; the (value, slope) of a feasible point there, or
    None).  A single term and a pure degree-1 family compile to
    one closed form (scale, k, z0): S = scale r^(pk), with maximizer r z0;
    the rest runs the multistart optimizer, all starts in one batch.  Where
    no start converges, the slope is None and the maximizer the best point
    found, or None.

    The AM-GM start is the smallest crossing exp(-L / (p k)) in the AM-GM
    table (see the module docstring), or a degree-1 closed form's own
    crossing scale^(-1/p); inf where none lies in (0, 1) as a float.  On
    the optimizer path, start() runs the joint pass of `_simplex_maximizer`
    from there (from r = 1 where there is none), and returns its witness
    with the value and slope there; it keeps the AM-GM start, with None,
    where the pass finds no witness or meets TailDivergenceError."""
    alphas, coeffs = _terms(f, p)
    n = f.dimension
    degrees = alphas.sum(axis=1)
    # alpha_i log(alpha_i / k), 0 at alpha_i = 0
    entropy = (alphas * np.log(np.maximum(alphas, 1.0) / degrees[:, None])).sum(axis=1)
    log_max = np.log(coeffs) + (p / t) * entropy
    log_starts = [*(-log_max / (p * degrees)), *(-log_c / (p * k) for log_c, k in f.tail_lead(p))]
    form = maximize = crossing = None
    if len(coeffs) == 1:
        # weighted AM-GM: u_i = r^t alpha_i / k
        k = float(degrees[0])
        form = math.exp(log_max[0]), k, (alphas[0] / k) ** (1.0 / t)
    elif len(coeffs) > 1 and np.all(degrees == 1):
        # sum_i c_i u_i^s over the simplex sum u_i = r^t, s = p/t; each row
        # of alphas is a unit vector, so c by coordinate is coeffs @ alphas
        c = coeffs @ alphas
        s = p / t
        if s < 1.0:
            # concave: the interior optimum, u_i proportional to c_i^(1/(1-s)),
            # with c scaled by its largest entry so that the powers stay finite
            top = c.max()
            w = (c / top) ** (1.0 / (1.0 - s))
            total = w.sum()
            form = float(top * total ** (1.0 - s)), 1.0, (w / total) ** (1.0 / t)
        else:
            # convex: the best vertex, the first one of a tie
            i = np.argmax(c)
            form = float(c[i]), 1.0, np.eye(1, n, i)[0]
        # S = scale r^p crosses 1 below every single term's AM-GM crossing
        log_starts.append(-math.log(form[0]) / p)
    elif len(coeffs) > 1:
        maximize, crossing = _simplex_maximizer(alphas, coeffs, p / t, seed)
    amgm = math.exp(min([0.0, *log_starts]))

    def start():
        witness = None
        if crossing is not None:
            try:
                witness = crossing(amgm, t, lambda x: f.powered_tail(p, x))
            except TailDivergenceError:
                pass  # the AM-GM start stands
        r, known = witness or (amgm, None)
        return (r, known) if 0.0 < r < 1.0 else (math.inf, None)

    def path(r):
        if len(coeffs) == 0 or r == 0.0:
            return 0.0, 0.0, (r * n ** (-1.0 / t),) * n
        if form is not None:
            scale, k, z0 = form
            value = scale * r ** (p * k)
            return value, p * k * value, tuple((r * z0).tolist())
        value, u, terms, converged = maximize(r**t)
        if not converged:
            return value, None, None if u is None else tuple(u ** (1.0 / t))
        # envelope theorem: at the maximizer, dS/d(log r) = sum p |alpha| term_alpha
        return value, p * float(terms @ degrees), tuple(float(ui) ** (1.0 / t) for ui in u)

    return path, maximize is not None, start


def _simplex_maximizer(alphas, coeffs, s, seed):
    """(maximize, crossing): maximize(budget) -> (value, u, per-term values
    at u, converged) for F(u) = sum_k c_k prod_i u_i^(s alpha_ki) on the
    simplex sum u_i = budget, the per-term values None when no start
    converged; crossing(top, t, tail) -> the joint pass's start (see
    `crossing`).  Both advance the rows by the same `update`.

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
    degree_weights = exponents.sum(axis=1)  # s |alpha|: sum(w) = mono @ degree_weights

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

    def pin(points, budget):
        """points, with each row that has one coordinate above the 1e-300
        floor of `objective` set to the vertex there: budget exactly, and 0
        elsewhere.  Rounding puts b(1 +- 1 ulp) on that coordinate, and a
        row at a vertex optimum would then move its value by a few ulps at
        every update and miss the `STILL` stop."""
        above = points > 1e-300
        if np.count_nonzero(above) < above.size:
            single = np.count_nonzero(above, axis=1) == 1
            points[single] = budget * above[single]
        return points

    def update(u, mono, budget):
        """One update of every row on the simplex sum u_i = budget: (total_w,
        u, values, monomials), with total_w = sum(w) of the rows it starts
        from.  Each row takes its Newton or face point where that is usable
        and at least as good as its plain point T(u), and T(u) otherwise;
        where Newton points are tried, both are pinned to a vertex they sit
        on (`pin`)."""
        # w_i = u_i * dF/du_i
        w = mono @ exponents
        total_w = w.sum(axis=1)
        plain = budget * w / total_w[:, None]
        step = newton_points(u, mono, w, total_w, plain, budget) if newton else None
        if step is None:
            points = pin(plain, budget) if newton else plain
            return (total_w, points, *objective(points))
        # both candidates of every row in one pass: row i is its plain
        # point, row k + i its Newton point
        usable, points = step
        k = len(plain)
        both = pin(np.concatenate((plain, points)), budget)
        plain, points = both[:k], both[k:]
        values, monos = objective(both)
        take = usable & (values[k:] >= values[:k])
        return (
            total_w,
            np.where(take[:, None], points, plain),
            np.where(take, values[k:], values[:k]),
            np.where(take[:, None], monos[k:], monos[:k]),
        )

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
            for count in range(MAX_ITER + 1):
                # finished rows stay in every product, whose row count is
                # then fixed, and their later iterates are not read
                total_w, next_u, next_cur, next_mono = update(u, mono, budget)
                if not total_w.min() > 0.0 or count == MAX_ITER:
                    # a row stops unconverged when its weights vanish or
                    # turn nan (after an overflow), or once MAX_ITER updates
                    # are spent
                    stop = going & ~(total_w > 0.0) if count < MAX_ITER else going
                    finish(stop)
                    if not going.any():
                        break
                prev = cur
                u, cur, mono = next_u, next_cur, next_mono
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

    def crossing(top, t, tail):
        """The joint pass from radius `top`, above which the crossing is
        not sought: (r0, (value, slope)), the witness r0 with the best
        row's G + tail and its slope in log r there.  r0 is the first float
        radius where G(r) + tail(r)[0] is strictly above 1.  Where G rounds
        to 1 or just below it at top (a row at the maximizer of the term
        whose AM-GM maximum reaches 1 there), r0 may lie up to STILL_ULPS
        floats past top.  None where the pass does not converge within
        MAX_ITER updates, turns non-finite, or finds no such r0.  tail(r)
        -> (value, slope in log r) may raise TailDivergenceError.

        G(r) is F at the row's point on sum u_i = r^t, so the rows take
        `update` at the common budget r^t, as in `maximize`.  After each
        update the Newton point, in log r, of the best row's G(r) + tail(r)
        gives the next r, capped at top, and the rows are rescaled to its
        budget.  From the right of the crossing the Newton points fall
        monotonically onto it as the rows improve, so the pass stops once
        the point moves left by at most STILL_ULPS ulps.  F is s |alpha|
        homogeneous in the budget, so the slope of G in log r is t sum(w)
        at the row.  The row's point scaled to r0 is feasible, so S(r0) >=
        value > 1: r0 is a right end of the bracket without an evaluation.
        """
        r, newton = top, math.inf
        budget = r**t
        u = budget * directions
        _, mono = objective(u)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(MAX_ITER):
                _, u, cur, mono = update(u, mono, budget)
                best = int(np.argmax(np.where(cur >= 0.0, cur, -1.0)))  # nan rows lose
                tail_value, tail_slope = tail(r)
                value = float(cur[best]) + tail_value
                slope = t * float(mono[best] @ degree_weights) + tail_slope
                if not (0.0 < value < math.inf and 0.0 < slope < math.inf):
                    return None
                last, newton = newton, r * math.exp(min(-math.log(value) * value / slope, 709.0))
                if newton >= last - STILL_ULPS * math.ulp(r):
                    break
                r = min(newton, top)
                scaled = r**t
                u *= scaled / budget
                budget = scaled
                _, mono = objective(u)
            else:
                return None
            # G of the best row's direction, a feasible point at every r,
            # so S >= G + tail there
            x = u[best] / u[best].sum()

            def lower(r):
                """(G + tail, its slope in log r) at r x^(1/t)."""
                values, terms = objective((r**t * x)[None, :])
                tail_value, tail_slope = tail(r)
                slope = t * float(terms[0] @ degree_weights) + tail_slope
                return float(values[0]) + tail_value, slope

            r = min(newton, top)
            value, slope = lower(r)
            past = 0  # floats stepped past top
            while value <= 1.0 and past < STILL_ULPS:
                past += r >= top
                r = math.nextafter(r, 1.0)
                value, slope = lower(r)
            if not value > 1.0:
                return None
            while (below := lower(math.nextafter(r, 0.0)))[0] > 1.0:
                r = math.nextafter(r, 0.0)
                value, slope = below
        return r, (value, slope)

    return maximize, crossing


def evaluator(f, p, domain, seed=0):
    """evaluate(r) -> the majorant over the domain of radius r; no
    evaluation starts from an earlier one.  `evaluate.start()` is (r0,
    known): r0 a radius in (0, 1) where S >= 1 is known, or inf where none
    is known (on the polydisk, and without terms or tail).  On the ball r0
    is the joint pass's witness on the optimizer path (see the module
    docstring), and known is then (value, slope) of its feasible point,
    with value > 1; elsewhere r0 is the AM-GM start, a degree-1 form's
    crossing included, and known is None, as it is where the pass finds no
    witness.  It depends on (f, p, domain, seed) alone, and is computed
    only when called, so a single evaluation runs no pass.

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
        path, optimizes, start = _polydisk_path(f, p), False, lambda: (math.inf, None)
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
