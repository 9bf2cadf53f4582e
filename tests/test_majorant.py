import math

import mpmath
import numpy as np
import pytest

from bohrlab import family, majorant
from bohrlab.errors import ConvergenceError, ParameterError, TailDivergenceError
from bohrlab.majorant import DomainSpec, powered_majorant_ball, powered_majorant_polydisk
from bohrlab.radius import TOP_RADIUS, solve_bohr_radius
from oracles import grid_oracle_ball, random_sparse_family, serial_ball_optimizer

Z_ONLY = family.explicit(1, {(1,): 1.0})


def test_polydisk_single_variable():
    for p in [0.5, 1.0, 2.0]:
        for r in [0.0, 0.3, 0.9]:
            assert powered_majorant_polydisk(Z_ONLY, p, r).value == pytest.approx(r**p)


def test_polydisk_extremal_g_crosses_one_at_radius():
    from bohrlab.radius import exact_h2_radius

    for n, p in [(1, 1.0), (2, 1.0), (5, 0.5)]:
        g = family.extremal_g(n, p)
        r0 = exact_h2_radius(n, p)
        assert powered_majorant_polydisk(g, p, r0).value == pytest.approx(1.0, abs=1e-10)


def test_polydisk_moebius_closed_form():
    # (1 - a^2) r / (1 - a r) = 1 at r = 4/5 for a = 1/2
    val = powered_majorant_polydisk(family.moebius(0.5), 1.0, 0.8).value
    assert val == pytest.approx(1.0, abs=1e-12)


def test_polydisk_monotone_in_r():
    f = family.explicit(2, {(1, 0): 0.4, (1, 1): 0.7})
    values = [powered_majorant_polydisk(f, 1.0, r).value for r in np.linspace(0, 0.95, 30)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_tail_divergence():
    with pytest.raises(TailDivergenceError):
        family.geometric_block_total(2, 1.0)


def test_ball_single_monomial_amgm():
    f = family.explicit(2, {(1, 1): 1.0})
    res = powered_majorant_ball(f, 1.0, 2.0, 0.999999)
    assert res.value == pytest.approx(0.5 * 0.999999**2, rel=1e-9)
    assert res.maximizer[0] == pytest.approx(res.maximizer[1])


def test_ball_degree_one_equal_coordinates():
    f = family.explicit(3, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0})
    for r in [0.2, 0.7]:
        res = powered_majorant_ball(f, 1.0, 2.0, r)
        assert res.value == pytest.approx(math.sqrt(3) * r, rel=1e-12)
        assert res.exactness == "exact"


def closed_form_reference(f, p, t, r):
    """(value, slope, maximizer) of a single term or a pure degree-1 family
    on the l_t ball of radius r, from the closed forms in 40 digits."""
    with mpmath.workdps(40):
        terms = sorted(f.powered_terms(p))
        p, t, r = mpmath.mpf(p), mpmath.mpf(t), mpmath.mpf(r)
        if len(terms) == 1:
            # weighted AM-GM: |z_i|^t = r^t alpha_i / k
            ((alpha, c),) = terms
            k = sum(alpha)
            scale = c * mpmath.fprod((mpmath.mpf(a) / k) ** (p * a / t) for a in alpha)
            z0 = [(mpmath.mpf(a) / k) ** (1 / t) for a in alpha]
        else:
            k = 1
            c = [mpmath.mpf(0)] * f.dimension
            for alpha, w in terms:
                c[alpha.index(1)] = mpmath.mpf(w)
            s = p / t
            if s < 1:
                w = [ci ** (1 / (1 - s)) for ci in c]
                total = mpmath.fsum(w)
                scale = total ** (1 - s)
                z0 = [(wi / total) ** (1 / t) for wi in w]
            else:
                i = c.index(max(c))  # the first coordinate of a tie
                scale = c[i]
                z0 = [mpmath.mpf(j == i) for j in range(f.dimension)]
        value = scale * r ** (p * k)
        return value, p * k * value, [r * x for x in z0]


def within_ulps(x, reference, ulps=4):
    with mpmath.workdps(40):
        return abs(mpmath.mpf(x) - reference) <= ulps * np.spacing(float(reference))


def unit_rows(n, coeffs):
    """The degree-1 family sum_i coeffs[i] z_i, without the zero ones."""
    return family.explicit(n, {tuple(int(j == i) for j in range(n)): c for i, c in coeffs.items()})


# (family, p, t): both closed forms at p = t, where the interior and vertex
# cases meet, at a tie for the largest degree-1 coefficient, with a
# coordinate that no term uses, and at t = 1
CLOSED_FORM_CASES = {
    "monomial": (family.explicit(2, {(1, 1): 1.0}), 1.0, 2.0),
    "monomial_unused_coordinate": (family.explicit(3, {(2, 1, 0): 1.7}), 1.5, 2.0),
    "monomial_p_equals_t": (family.explicit(2, {(2, 1): 0.9}), 2.0, 2.0),
    "monomial_t_1": (family.explicit(3, {(1, 3, 2): 1.7}), 0.5, 1.0),
    "degree_one_interior": (unit_rows(3, {0: 0.5, 1: 0.8, 2: 0.3}), 1.0, 2.0),
    "degree_one_interior_tie": (unit_rows(3, {0: 1.0, 1: 1.0, 2: 1.0}), 1.0, 2.0),
    "degree_one_interior_unused_coordinate": (unit_rows(3, {0: 0.8, 2: 0.6}), 1.0, 2.0),
    "degree_one_interior_t_1": (unit_rows(2, {0: 0.5, 1: 0.8}), 0.5, 1.0),
    "degree_one_vertex": (unit_rows(2, {0: 0.5, 1: 0.8}), 2.0, 1.5),
    "degree_one_p_equals_t": (unit_rows(2, {0: 0.5, 1: 0.8}), 2.0, 2.0),
    "degree_one_vertex_tie": (unit_rows(3, {0: 0.5, 1: 0.8, 2: 0.8}), 2.0, 2.0),
    "degree_one_vertex_unused_coordinate": (unit_rows(3, {0: 0.8, 2: 0.9}), 3.0, 2.0),
    "degree_one_vertex_t_1": (family.linear_form(4, 2.0, 1.0), 1.0, 1.0),
}


@pytest.mark.parametrize("r", [0.6, TOP_RADIUS], ids=["r=0.6", "r=TOP_RADIUS"])
@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_ball_closed_forms_match_40_digit_values(case, r):
    f, p, t = CLOSED_FORM_CASES[case]
    res = powered_majorant_ball(f, p, t, r)
    value, slope, z = closed_form_reference(f, p, t, r)
    assert res.exactness == "exact"
    assert within_ulps(res.value, value) and within_ulps(res.slope, slope)
    assert all(within_ulps(x, y) for x, y in zip(res.maximizer, z, strict=True))


@pytest.mark.parametrize(
    "coeffs, p", [((30.0, 20.0), 1.99), ((0.01, 0.02), 1.99), ((3.0, 2.9), 1.999)]
)
def test_ball_degree_one_interior_stays_finite_as_p_nears_t(coeffs, p):
    # c_i^(1/(1 - p/t)) leaves the float range here; c scaled by its largest
    # entry does not.  The other coordinates' ratios are rounded, and the
    # power 1/(1 - p/t) <= 2000 multiplies that relative error
    f = unit_rows(2, dict(enumerate(coeffs)))
    res = powered_majorant_ball(f, p, 2.0, 0.6)
    value, slope, z = closed_form_reference(f, p, 2.0, 0.6)
    assert within_ulps(res.value, value) and within_ulps(res.slope, slope)
    assert res.maximizer == pytest.approx([float(x) for x in z], rel=1e-13, abs=0.0)


TAILED = family.AnalyticTail(0.4)
NO_TAIL_MASS = family.AnalyticTail(0.0)


# (entries, tail, r, label): the closed forms and the empty sum are exact
# while the tail adds nothing; the optimizer path is exact only at r = 0,
# where it does not run
LABEL_CASES = [
    ({}, None, 0.5, "exact"),
    ({}, NO_TAIL_MASS, 0.5, "exact"),
    ({}, TAILED, 0.0, "exact"),
    ({}, TAILED, 0.5, "optimizer"),
    ({(1, 1): 0.8}, NO_TAIL_MASS, 0.5, "exact"),
    ({(1, 1): 0.8}, TAILED, 0.0, "exact"),
    ({(1, 1): 0.8}, TAILED, 0.5, "optimizer"),
    ({(1, 0): 0.5, (0, 1): 0.8}, NO_TAIL_MASS, 0.5, "exact"),
    ({(1, 0): 0.5, (0, 1): 0.8}, TAILED, 0.5, "optimizer"),
    ({(2, 1): 0.8, (1, 0): 0.3}, None, 0.0, "exact"),
    ({(2, 1): 0.8, (1, 0): 0.3}, TAILED, 0.0, "exact"),
    ({(2, 1): 0.8, (1, 0): 0.3}, NO_TAIL_MASS, 0.5, "optimizer"),
]


def test_ball_label_is_exact_iff_closed_or_empty_and_no_tail_mass():
    for entries, tail, r, label in LABEL_CASES:
        f = family.explicit(2, entries, tail=tail)
        res = powered_majorant_ball(f, 1.0, 2.0, r)
        assert res.exactness == label, (entries, tail, r)
        # the tail's polydisk bound is added once, on every path
        tail_only = family.CoefficientFamily(2, {}, f.truncation_degree, tail=tail)
        tail_bound = powered_majorant_polydisk(tail_only, 1.0, r).value
        bare = powered_majorant_ball(family.explicit(2, entries), 1.0, 2.0, r)
        assert res.value == bare.value + tail_bound


# a coefficient whose square leaves the float range
HUGE_SQUARE = {(1, 1): 1e200, (2, 0): 1.0, (0, 1): 0.5}


@pytest.mark.parametrize("domain", [DomainSpec.polydisk(), DomainSpec.lt_ball(2.0)], ids=["polydisk", "ball"])
def test_coefficient_power_overflow_is_a_parameter_error(domain):
    f = family.explicit(2, HUGE_SQUARE)
    with pytest.raises(ParameterError, match="2.0-th power exceeds the float range"):
        majorant.powered_majorant(f, 2.0, domain, 0.5)
    with pytest.raises(ParameterError, match="2.0-th power exceeds the float range"):
        solve_bohr_radius(f, 2.0, domain)


def test_ball_degree_one_vertex_when_p_at_least_t():
    f = family.explicit(2, {(1, 0): 0.5, (0, 1): 0.8})
    res = powered_majorant_ball(f, 2.0, 2.0, 0.5)
    # convex case: all the budget goes to the larger coefficient
    assert res.value == pytest.approx(0.8**2 * 0.5**2, rel=1e-12)


def test_ball_random_against_grid_oracle():
    rng = np.random.default_rng(20240819)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        f = random_sparse_family(rng, n, int(rng.integers(1, 5)), int(rng.integers(2, 7)))
        t = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        p = float(rng.choice([0.5, 1.0, 1.5]))
        r = float(rng.uniform(0.3, 0.9))
        got = powered_majorant_ball(f, p, t, r).value
        want = grid_oracle_ball(f, p, t, r)
        assert got == pytest.approx(want, rel=1e-4)


def test_ball_maximizer_is_feasible_and_attains_value():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        f = random_sparse_family(rng, n, 3, 5)
        t = float(rng.choice([1.5, 2.0]))
        r = 0.6
        res = powered_majorant_ball(f, 1.0, t, r)
        z = np.array(res.maximizer)
        assert float(np.sum(z**t)) <= r**t + 1e-12
        attained = sum(
            v * np.prod(z ** np.array(a)) for a, v in f.entries.items() if sum(a) >= 1
        )
        assert attained == pytest.approx(res.value, abs=1e-10)


def test_ball_below_polydisk():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        f = random_sparse_family(rng, n, 3, 4)
        t = float(rng.choice([1.0, 2.0, 4.0]))
        r = float(rng.uniform(0.2, 0.9))
        ball = powered_majorant_ball(f, 1.0, t, r).value
        poly = powered_majorant_polydisk(f, 1.0, r).value
        assert ball <= poly + 1e-10


def optimizer_cases(seed, count):
    """Seeded (f, p, t, r) that reach the multistart optimizer, n in {2, 3, 4}."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        n = int(rng.integers(2, 5))
        f = random_sparse_family(rng, n, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        if len(f.entries) < 2 or all(sum(a) == 1 for a in f.entries):
            continue  # closed-form paths
        t = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        p = float(rng.choice([0.5, 1.0, 1.5]))
        cases.append((f, p, t, float(rng.uniform(0.2, 0.95))))
    return cases


def test_ball_deterministic_in_seed():
    fixed = family.explicit(2, {(2, 1): 0.8, (1, 0): 0.3, (0, 2): 0.5})
    for f, p, t, r in [(fixed, 1.0, 2.0, 0.7)] + optimizer_cases(9, 10):
        a = powered_majorant_ball(f, p, t, r, seed=3)
        b = powered_majorant_ball(f, p, t, r, seed=3)
        assert a.value == b.value and a.maximizer == b.maximizer


@pytest.mark.parametrize("ball", [False, True], ids=["polydisk", "ball"])
def test_evaluator_values_do_not_depend_on_earlier_evaluations(ball):
    # a solve reuses one evaluator; each value must equal a fresh evaluation
    for f, p, t, r in optimizer_cases(9, 5):
        domain = DomainSpec.lt_ball(t) if ball else DomainSpec.polydisk()
        evaluate = majorant.evaluator(f, p, domain, seed=3)
        for x in [r, 0.5 * r, r, 0.9 * r]:
            assert evaluate(x) == majorant.powered_majorant(f, p, domain, x, seed=3)


def test_ball_batched_starts_match_serial_reference():
    cases = optimizer_cases(20261018, 120)
    assert {c[0].dimension for c in cases} == {2, 3, 4}
    assert {c[2] for c in cases} == {1.0, 1.5, 2.0, 3.0}
    for f, p, t, r in cases:
        res = powered_majorant_ball(f, p, t, r)
        want, _ = serial_ball_optimizer(f, p, t, r, accelerated=True)
        plain, _ = serial_ball_optimizer(f, p, t, r)
        assert res.exactness == "optimizer"
        assert abs(res.value - want) <= 1e-12 * want
        # face steps reach optima that plain updates stop just short of
        assert res.value >= plain * (1.0 - 1e-12)


def test_ball_single_start_matches_serial_reference(monkeypatch):
    monkeypatch.setattr(majorant, "N_STARTS", 1)
    for f, p, t, r in optimizer_cases(5, 20):
        res = powered_majorant_ball(f, p, t, r)
        want, _ = serial_ball_optimizer(f, p, t, r, n_starts=1)
        assert abs(res.value - want) <= 1e-12 * want


def test_ball_unconverged_raises_with_best_found(monkeypatch):
    cut_short = family.explicit(2, {(2, 1): 0.8, (1, 0): 0.3, (0, 2): 0.5})
    # at r = 1e-60 every monomial underflows, so every start stops on zero weights
    underflow = family.explicit(2, {(5, 3): 0.8, (3, 4): 0.3, (0, 6): 0.5})
    for f, r, max_iter in [(cut_short, 0.7, 1), (underflow, 1e-60, 100_000)]:
        monkeypatch.setattr(majorant, "MAX_ITER", max_iter)
        with pytest.raises(ConvergenceError) as err:
            powered_majorant_ball(f, 1.0, 2.0, r)
        with pytest.raises(ConvergenceError) as ref:
            serial_ball_optimizer(f, 1.0, 2.0, r, max_iter=max_iter, accelerated=True)
        assert err.value.best_value == pytest.approx(ref.value.best_value, rel=1e-12)
        assert err.value.best_point == pytest.approx(ref.value.best_point, rel=1e-12)
        assert len(err.value.best_point) == 2


# the near-face family of the ball benchmark (cell 7 at t = 2, p = 1): its
# maximizer lies close to a face of the simplex, where plain updates crawl
NEAR_FACE = family.explicit(
    3,
    {
        (0, 0, 1): 2.254316115718355,
        (0, 2, 1): 5.667743983446935,
        (1, 0, 2): 1.5167605668409838,
        (1, 2, 1): 5.128550447390775,
    },
)


# the face families of the ball benchmark (cell 1 at t = 1, p = 1 and cell 3
# at t = 1.5, p = 0.5): their maximizers have u_3 = 0, at the vertex
# u = (b, 0, 0) and on the face u_3 = 0, where Newton points leave the simplex
VERTEX_OPTIMUM = family.explicit(3, {(0, 0, 4): 2.008, (1, 0, 1): 2.782, (3, 0, 0): 2.426})
FACE_OPTIMUM = family.explicit(
    3,
    {(0, 1, 0): 2.158, (0, 4, 0): 3.502, (0, 1, 3): 7.246, (0, 0, 4): 4.486, (1, 1, 0): 1.077},
)


@pytest.mark.parametrize(
    "f, p, t, r",
    [
        (VERTEX_OPTIMUM, 1.0, 1.0, 0.5),
        (VERTEX_OPTIMUM, 1.0, 1.0, 0.744),
        (FACE_OPTIMUM, 0.5, 1.5, 0.2),
        (FACE_OPTIMUM, 0.5, 1.5, 0.2767),
    ],
    ids=["vertex-0.5", "vertex-0.744", "face-0.2", "face-0.2767"],
)
def test_ball_face_optima_converge_within_20_updates(monkeypatch, f, p, t, r):
    # without the face step these evaluations take 34-140 updates
    monkeypatch.setattr(majorant, "MAX_ITER", 20)
    res = powered_majorant_ball(f, p, t, r)
    assert res.maximizer[2] == 0.0
    assert res.value == pytest.approx(grid_oracle_ball(f, p, t, r), rel=1e-13)


def test_ball_near_face_family_reaches_the_sup():
    got = powered_majorant_ball(NEAR_FACE, 1.0, 2.0, 0.44).value
    # plain updates run until the value no longer moves at all
    settled, _ = serial_ball_optimizer(NEAR_FACE, 1.0, 2.0, 0.44, rel_tol=0.0, patience=100)
    assert got == pytest.approx(settled, rel=1e-13)
    assert got == pytest.approx(grid_oracle_ball(NEAR_FACE, 1.0, 2.0, 0.44), rel=1e-13)


def counting_linear_solves(monkeypatch):
    """A list that gains an entry at every np.linalg.solve call; below
    NEWTON_MAX_DIM used coordinates, every optimizer update makes one."""
    solves = []
    real_solve = np.linalg.solve

    def counting_solve(*args):
        solves.append(1)
        return real_solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return solves


def test_ball_near_face_family_solves_onto_the_crossing(monkeypatch):
    for f, p, t in [(NEAR_FACE, 1.0, 2.0), (FACE_OPTIMUM, 0.5, 1.5)]:
        solves = counting_linear_solves(monkeypatch)
        res = solve_bohr_radius(f, p, DomainSpec.lt_ball(t))
        monkeypatch.undo()
        assert len(solves) <= 40 * res.evaluations
        # the independent oracle's crossing lies within 1e-13 of the radius
        below = grid_oracle_ball(f, p, t, res.value - 1e-13)
        above = grid_oracle_ball(f, p, t, res.value + 1e-13)
        assert below <= 1.0 < above


# the t = 1, p = 1 family of the ball benchmark's cell 1 at seed 7: its
# maximizer is the vertex u = (b, 0, 0), where rounding puts b(1 +- 1 ulp)
VERTEX_OPTIMUM = family.explicit(
    3, {(0, 0, 4): 2.0076423051302354, (1, 0, 1): 2.7815256624953126, (3, 0, 0): 2.42613708120452}
)


def test_ball_rows_at_a_vertex_stop_still(monkeypatch):
    # rows on the vertex are pinned to it, so their value stops moving and
    # they stop by the STILL rule instead of running on to PATIENCE (63
    # linear solves before the pin)
    r = 0.744208949121473
    solves = counting_linear_solves(monkeypatch)
    res = powered_majorant_ball(VERTEX_OPTIMUM, 1.0, 1.0, r)
    monkeypatch.undo()
    assert len(solves) <= 20
    assert res.maximizer == (r, 0.0, 0.0)
    assert res.value == 2.42613708120452 * r**3
    want, point = serial_ball_optimizer(VERTEX_OPTIMUM, 1.0, 1.0, r, accelerated=True)
    assert abs(res.value - want) <= 1e-12 * want and point == res.maximizer


def padded(f, n):
    """f in the first coordinates of n; the others appear in no term."""
    pad = (0,) * (n - f.dimension)
    return family.explicit(n, {a + pad: v for a, v in f.entries.items()})


def test_ball_unused_coordinates_stay_out_of_the_newton_system():
    # the system is solved on the 3 used coordinates, so padding reaches the
    # same sup at any dimension, with 0 on the unused coordinates
    want = powered_majorant_ball(NEAR_FACE, 1.0, 2.0, 0.44).value
    for n in [4, 40, 1000]:
        res = powered_majorant_ball(padded(NEAR_FACE, n), 1.0, 2.0, 0.44)
        assert res.value == pytest.approx(want, rel=1e-13)
        assert res.maximizer[3:] == (0.0,) * (n - 3)


def test_ball_above_newton_dimension_takes_plain_updates(monkeypatch):
    monkeypatch.setattr(majorant, "NEWTON_MAX_DIM", 2)
    solves = counting_linear_solves(monkeypatch)
    res = powered_majorant_ball(NEAR_FACE, 1.0, 2.0, 0.44)
    assert solves == []
    want, _ = serial_ball_optimizer(NEAR_FACE, 1.0, 2.0, 0.44)
    assert abs(res.value - want) <= 1e-12 * want


def test_ball_overflowing_values_raise_without_a_point(monkeypatch):
    # the weights overflow at the first update, so every start stops on nan
    # at the second instead of running MAX_ITER updates
    huge = family.explicit(1, {(1,): 1.7e308, (2,): 1.7e308})
    solves = counting_linear_solves(monkeypatch)
    with pytest.raises(ConvergenceError) as err:
        powered_majorant_ball(huge, 1.0, 1.0, 0.99)
    assert err.value.best_point is None
    assert len(solves) <= 2


def test_powered_majorant_dispatches_on_the_domain():
    f = family.explicit(2, {(2, 1): 0.8, (1, 0): 0.3, (0, 2): 0.5})
    polydisk = majorant.powered_majorant(f, 1.0, DomainSpec.polydisk(), 0.6)
    assert polydisk == powered_majorant_polydisk(f, 1.0, 0.6)
    ball = majorant.powered_majorant(f, 1.0, DomainSpec.lt_ball(2.0), 0.6, seed=3)
    assert ball == powered_majorant_ball(f, 1.0, 2.0, 0.6, seed=3)


def log_r_central_difference(evaluate, r, h=1e-6):
    """dS/d(log r) at r from S at r e^h and r e^-h."""
    return (evaluate(r * math.exp(h)).value - evaluate(r * math.exp(-h)).value) / (2 * h)


def polydisk_at(f, p):
    return lambda r: powered_majorant_polydisk(f, p, r)


def ball_at(f, p, t):
    return lambda r: powered_majorant_ball(f, p, t, r)


TAILED = family.explicit(
    2, {(1, 0): 0.5, (0, 1): 0.3}, tail=family.AnalyticTail(parameter=0.4)
)
SLOPE_CASES = {
    "polydisk_explicit": (polydisk_at(family.explicit(2, {(1, 0): 0.4, (2, 1): 0.7, (0, 3): 0.2}), 1.3), 0.6),
    "polydisk_moebius_tail": (polydisk_at(family.moebius(0.5), 1.0), 0.8),
    "polydisk_extremal_g": (polydisk_at(family.extremal_g(1000, 1.5), 1.5), 0.3),
    "ball_single_monomial": (ball_at(family.explicit(3, {(2, 1, 0): 1.7}), 1.5, 2.0), 0.7),
    "ball_degree_one_interior": (ball_at(family.explicit(3, {(1, 0, 0): 0.5, (0, 1, 0): 0.8, (0, 0, 1): 0.3}), 1.0, 2.0), 0.6),
    "ball_degree_one_vertex": (ball_at(family.explicit(2, {(1, 0): 0.5, (0, 1): 0.8}), 2.0, 1.5), 0.6),
    "ball_optimizer": (ball_at(family.explicit(2, {(2, 1): 0.8, (1, 0): 0.3, (0, 2): 0.5}), 1.0, 2.0), 0.7),
    "ball_tailed": (ball_at(TAILED, 1.0, 2.0), 0.5),
}


@pytest.mark.parametrize("case", sorted(SLOPE_CASES))
def test_slope_matches_central_difference_in_log_r(case):
    evaluate, r = SLOPE_CASES[case]
    res = evaluate(r)
    assert res.slope > 0.0
    assert res.slope == pytest.approx(log_r_central_difference(evaluate, r), rel=1e-6)


def test_optimizer_slope_matches_central_difference_on_random_families():
    for f, p, t, r in optimizer_cases(31, 10):
        evaluate = ball_at(f, p, t)
        assert evaluate(r).slope == pytest.approx(log_r_central_difference(evaluate, r), rel=1e-6)


@pytest.mark.parametrize("case", sorted(SLOPE_CASES))
def test_slope_is_zero_at_r_zero(case):
    evaluate, _ = SLOPE_CASES[case]
    assert evaluate(0.0).slope == 0.0


def test_tail_block_slope_overflows_to_inf():
    # (1-s)^(-n) = 2^1023 is finite, n s/(1-s) times it is not, and
    # (1-s)^(-n-1) = 2^1024 computed with ** would raise OverflowError
    block, s_slope = family.extremal_g(1023, 1.0).tail_block(0.5)
    assert math.isfinite(block) and s_slope == math.inf


def test_domain_spec_validation():
    # a domain is its t: inf is the polydisk, [1, inf) an l_t ball
    for t in [0.5, math.nan, -math.inf]:
        with pytest.raises(ParameterError):
            DomainSpec(t)
    with pytest.raises(ParameterError):
        DomainSpec.lt_ball(math.inf)
    assert DomainSpec(math.inf) == DomainSpec.polydisk()
    assert DomainSpec(2.0) == DomainSpec.lt_ball(2)


def test_polydisk_value_has_no_maximizer():
    # the sup sits at |z_i| = r, so no n-tuple is built
    assert powered_majorant_polydisk(family.extremal_g(10**6, 1.9), 1.9, 0.5).maximizer is None
    f = family.explicit(2, {(1, 0): 0.5, (1, 1): 0.4})
    assert powered_majorant_polydisk(f, 1.0, 0.5).maximizer is None
