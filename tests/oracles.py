"""Independent oracles for the test suite.

The grid oracle evaluates the ball majorant by dense simplex sampling plus
SLSQP refinement and never touches the multiplicative-update path.  The
serial ball optimizer runs the same updates one start at a time, plain or
with the Newton step, as a reference for the batched loop in
`powered_majorant_ball`.
The recursive enumeration and the per-row identity residual are the loop
versions of the array listing behind `enumerate_degree` and
`multinomial_identity_residual`.
"""

import numpy as np
from scipy.optimize import minimize

from bohrlab import explicit, majorant
from bohrlab.errors import ConvergenceError
from bohrlab.majorant import _start_directions, _terms
from bohrlab.multiindex import enumerate_degree, multinomial_weight


def recursive_enumeration(n, k):
    """All multi-indices with |alpha| = k in n variables, lexicographically
    descending, built by recursion on the first part."""

    def gen(m, rem):
        if m == 1:
            yield (rem,)
            return
        for first in range(rem, -1, -1):
            for rest in gen(m - 1, rem - first):
                yield (first,) + rest

    return list(gen(n, k))


def loop_identity_residual(x, k):
    """Relative residual of sum_{|alpha|=k} (k!/alpha!) x^alpha = (sum x_i)^k,
    one multi-index at a time with exact integer weights."""
    lhs = 0.0
    for alpha in recursive_enumeration(len(x), k):
        term = float(multinomial_weight(alpha))
        for xi, ai in zip(x, alpha):
            term *= xi**ai
        lhs += term
    rhs = sum(x) ** k
    return abs(lhs - rhs) / max(1.0, rhs)


def random_sparse_family(rng, n, max_degree, n_terms, lo=0.1, hi=1.5):
    pool = [a for k in range(1, max_degree + 1) for a in enumerate_degree(n, k)]
    idx = rng.choice(len(pool), size=min(n_terms, len(pool)), replace=False)
    return explicit(n, {pool[i]: float(rng.uniform(lo, hi)) for i in idx})


def grid_oracle_ball(f, p, t, r, grid=400):
    """Max of sum ||x_alpha||^p |z^alpha|^p over the l_t ball of radius r.

    Works in u_i = |z_i|^t simplex coordinates for dimensions up to 3.
    """
    n = f.dimension
    if n > 3:
        raise ValueError("grid oracle covers n <= 3 only")
    terms = sorted((a, v) for a, v in f.entries.items() if sum(a) >= 1 and v > 0)
    if not terms:
        return 0.0
    exponents = np.array([a for a, _ in terms], dtype=float) * (p / t)
    coeffs = np.array([v for _, v in terms]) ** p
    budget = r**t

    if n == 1:
        grid_points = np.array([[budget]])
    elif n == 2:
        u1 = np.linspace(0.0, budget, grid)
        grid_points = np.stack([u1, budget - u1], axis=1)
    else:
        u1, u2 = np.meshgrid(np.linspace(0.0, budget, grid), np.linspace(0.0, budget, grid))
        mask = u1 + u2 <= budget
        grid_points = np.stack([u1[mask], u2[mask], budget - u1[mask] - u2[mask]], axis=1)

    def value(points):
        logs = np.log(np.maximum(points, 1e-300))
        return np.exp(logs @ exponents.T) @ coeffs

    grid_values = value(grid_points)
    best_point = grid_points[int(np.argmax(grid_values))]
    best = float(grid_values.max())

    res = minimize(
        lambda u: -float(value(u[None, :])[0]),
        best_point,
        method="SLSQP",
        bounds=[(0.0, budget)] * n,
        constraints=[{"type": "eq", "fun": lambda u: u.sum() - budget}],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    if res.success:
        best = max(best, -float(res.fun))
    return best


def serial_ball_optimizer(
    f,
    p,
    t,
    r,
    seed=0,
    n_starts=16,
    max_iter=100_000,
    rel_tol=1e-12,
    patience=50,
    accelerated=False,
):
    """(value, maximizer z) of the multistart updates, one start after another.

    By default every update is the plain multiplicative one, u <- T(u) =
    budget w / sum(w) with w_i = u_i dF/du_i, and a start stops after
    `patience` updates in a row that change its value by at most `rel_tol`
    relative.  With `accelerated`, and as long as the terms use at most
    `majorant.NEWTON_MAX_DIM` coordinates, an update takes the Newton point
    of u = T(u) instead when it is finite, strictly positive on those
    coordinates where u is (0 where u is 0) and no worse than T(u), and a
    start also stops after 3 updates in a row that each move its value by
    at most 4 units in the last place.  There a plain or Newton point with
    one coordinate above the 1e-300 floor is set to that vertex: the budget
    there exactly, 0 elsewhere.  Where the Newton point is not positive,
    the step is retaken on the face that drops each coordinate it drives
    to <= 0 whose gradient is below the multiplier, and that face point is
    taken under the same test when the optimality condition for the
    dropped coordinates holds there.

    Covers families without a tail that reach the optimizer path of
    `powered_majorant_ball`; raises `ConvergenceError` as it does.
    """
    alphas, coeffs = _terms(f, p)
    n = f.dimension
    exponents = alphas * (p / t)
    budget = r**t
    used = [i for i in range(n) if alphas[:, i].any()]
    accelerated = accelerated and len(used) <= majorant.NEWTON_MAX_DIM
    # a power in (0, 1) makes dF/du_i infinite at u_i = 0
    droppable = [not ((exponents[:, i] > 0.0) & (exponents[:, i] < 1.0)).any() for i in range(n)]

    def evaluate(u):
        powers = np.exp(exponents @ np.log(np.maximum(u, 1e-300)))
        return float(coeffs @ powers), coeffs * powers

    def newton_point(u, mono, w, total_w, plain):
        """Renormalised u + d with (I - DT) d = T(u) - u, its face point
        where u + d is not positive, or None.

        DT vanishes in the rows and columns of unused coordinates, where
        u + d is therefore 0; the system is solved on the used ones, with
        u_j floored at 1e-300 as in `evaluate`.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # H_ij = dw_i/du_j
            h = np.array(
                [[sum(m * e[i] * e[j] for m, e in zip(mono, exponents)) / max(u[j], 1e-300)
                  for j in used] for i in used]
            )
            system = np.eye(len(used)) - budget * (
                h / total_w - np.outer(w[used], h.sum(axis=0)) / total_w**2
            )
            rhs = (plain - u)[used]
            try:
                d = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                return None
            v = np.zeros(n)
            v[used] = u[used] + d
            v[u == 0.0] = 0.0  # T keeps u_i = 0
            if np.all(np.isfinite(v)) and all(v[i] > 0.0 for i in used if u[i] > 0.0):
                return budget * v / v.sum()
            return face_point(u, w, total_w, v, system, rhs)

    def face_point(u, w, total_w, v, system, rhs):
        """The Newton step retaken with u_i fixed at 0 for every droppable i
        where u + d <= 0 and dF/du_i = w_i / u_i is below lambda = sum(w) /
        budget, and where u_i = 0; None unless it is positive elsewhere and
        dF/du_i <= lambda holds at every dropped i at the face point itself."""
        lam = total_w / budget
        dropped = [
            k for k, i in enumerate(used)
            if droppable[i] and v[i] <= 0.0 and w[i] / u[i] < lam
        ]
        if not dropped:
            return None
        # coordinates already at 0 stay there
        dropped += [k for k, i in enumerate(used) if u[i] == 0.0 and k not in dropped]
        for k in dropped:
            system[k] = np.eye(len(used))[k]
            rhs[k] = -u[used[k]]
        try:
            d = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return None
        v = np.zeros(n)
        v[used] = u[used] + d
        v[[used[k] for k in dropped]] = 0.0
        kept = [i for k, i in enumerate(used) if k not in dropped]
        if not (np.all(np.isfinite(v)) and np.all(v[kept] > 0.0)):
            return None
        point = budget * v / v.sum()
        # at the face point, with 0 ** 0 = 1
        lam = sum(c * e.sum() * np.prod(point**e) for c, e in zip(coeffs, exponents)) / budget
        for i in (used[k] for k in dropped):
            grad = sum(
                c * e[i] * point[i] ** (e[i] - 1.0)
                * np.prod([point[j] ** e[j] for j in range(n) if j != i])
                for c, e in zip(coeffs, exponents)
                if e[i] > 0.0
            )
            if not grad <= lam:
                return None
        return point

    def pin(point):
        """point, or the vertex budget e_i where u_i is its only coordinate
        above the 1e-300 floor of `evaluate`."""
        above = point > 1e-300
        return budget * above if above.sum() == 1 else point

    best_value = -1.0
    best_u = None
    converged_any = False
    for u in budget * _start_directions(n, alphas, coeffs, seed, n_starts):
        cur, mono = evaluate(u)
        prev = cur
        calm = quiet = 0
        for _ in range(max_iter):
            w = exponents.T @ mono
            total_w = float(w.sum())
            if not total_w > 0.0:  # vanished, or nan after an overflow
                break
            plain = budget * w / total_w
            newton = newton_point(u, mono, w, total_w, plain) if accelerated else None
            u = pin(plain) if accelerated else plain
            if newton is not None:
                newton = pin(newton)
            cur, mono = evaluate(u)
            if newton is not None:
                newton_value, newton_mono = evaluate(newton)
                if newton_value >= cur:
                    u, cur, mono = newton, newton_value, newton_mono
            calm = calm + 1 if abs(cur - prev) <= rel_tol * max(abs(cur), 1.0) else 0
            quiet = quiet + 1 if abs(cur - prev) <= 4 * np.spacing(cur) else 0
            if calm >= patience or (accelerated and quiet >= 3):
                converged_any = True
                break
            prev = cur
        if cur > best_value or (
            cur == best_value and best_u is not None and tuple(u) > tuple(best_u)
        ):
            best_value = cur
            best_u = u
    if not converged_any:
        raise ConvergenceError(
            "ball maximizer did not converge on any start",
            best_value=best_value,
            best_point=None if best_u is None else tuple(best_u ** (1.0 / t)),
        )
    return best_value, tuple(float(ui) ** (1.0 / t) for ui in best_u)
