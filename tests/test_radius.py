import math

import numpy as np
import pytest

from bohrlab import bounds, cli, family, majorant, radius
from bohrlab.bounds import CertificateInput, certified_lower_bound
from bohrlab.errors import ParameterError, TailDivergenceError
from bohrlab.majorant import (
    DomainSpec,
    evaluator,
    powered_majorant_ball,
    powered_majorant_polydisk,
)
from bohrlab.radius import (
    DEFAULT_TOL,
    TOP_RADIUS,
    PluriharmonicFamily,
    RadiusResult,
    bisect_unit_crossing,
    exact_h2_radius,
    h2_defining_residual,
    pluriharmonic_radius,
    saturated_at_one,
    solve_bohr_radius,
)
from oracles import random_sparse_family

POLYDISK = DomainSpec.polydisk()


def test_solve_saturates_for_z():
    res = solve_bohr_radius(family.explicit(1, {(1,): 1.0}), 1.0, POLYDISK)
    assert res.value == 1.0 and res.method == "saturated_at_one"


def test_every_saturated_result_has_the_checked_bracket():
    # S(TOP_RADIUS) <= 1 is the only point any path checks
    z_half = family.explicit(1, {(1,): 0.5})
    pair = PluriharmonicFamily(holo=z_half, anti=family.explicit(1, {(1,): 0.25}))
    # no degree mass, but an anti part with a (zero) tail keeps the two-part sum
    massless = PluriharmonicFamily(
        holo=family.explicit(1, {}), anti=family.explicit(1, {}, tail=family.AnalyticTail(0.0))
    )
    results = [
        solve_bohr_radius(family.explicit(2, {(0, 0): 0.5}), 1.0, POLYDISK),
        solve_bohr_radius(z_half, 1.0, POLYDISK),
        solve_bohr_radius(z_half, 1.0, DomainSpec.lt_ball(2.0)),
        pluriharmonic_radius(pair, 1.0, math.inf),
        pluriharmonic_radius(pair, 1.0, 2.0),
        pluriharmonic_radius(massless, 1.0, math.inf),
        bisect_unit_crossing(lambda r: (0.5 * r, 0.5 * r)),
        certified_lower_bound(CertificateInput(3, 1.0, 2.0, 0.0)),
        certified_lower_bound(CertificateInput(3, 1.0, 2.0, 0.0), mode="numeric"),
        certified_lower_bound(CertificateInput(1, 1.0, 2.0, 0.3), mode="numeric"),
    ]
    for res in results:
        assert res.method == "saturated_at_one" and res.value == 1.0, res
        assert res.bracket == (TOP_RADIUS, 1.0), res


def test_massless_families_saturate_at_the_first_probe():
    # no positive coefficient of degree >= 1 makes S = 0, so the root
    # finder's probe at TOP_RADIUS is the one evaluation
    massless = family.explicit(2, {(0, 0): 0.5, (1, 0): 0.0})
    zero_tail = family.explicit(2, {}, tail=family.AnalyticTail(0.0))
    pair = PluriharmonicFamily(holo=massless, anti=family.explicit(2, {}))
    tailed_pair = PluriharmonicFamily(holo=massless, anti=zero_tail)
    results = [
        solve_bohr_radius(massless, 1.0, POLYDISK),
        solve_bohr_radius(massless, 1.0, DomainSpec.lt_ball(2.0)),
        solve_bohr_radius(zero_tail, 0.5, POLYDISK),
        solve_bohr_radius(zero_tail, 0.5, DomainSpec.lt_ball(1.5)),
        pluriharmonic_radius(pair, 1.0, math.inf),
        pluriharmonic_radius(pair, 1.0, 2.0),
        pluriharmonic_radius(tailed_pair, 1.0, math.inf),
    ]
    for res in results:
        assert res == saturated_at_one(evaluations=1), res


def test_solve_extremal_g_matches_closed_form():
    res = solve_bohr_radius(family.extremal_g(2, 1.0), 1.0, POLYDISK)
    assert res.value == pytest.approx(0.5411961001461970, abs=1e-8)


def test_solve_moebius_closed_form():
    for a in [0.2, 0.5, 0.8]:
        res = solve_bohr_radius(family.moebius(a), 1.0, POLYDISK)
        assert res.value == pytest.approx(1.0 / (1.0 + a - a * a), abs=1e-10)


def test_bisection_bracket_invariant():
    f = family.moebius(0.5)
    res = solve_bohr_radius(f, 1.0, POLYDISK, tol=1e-10)
    lo, hi = res.bracket
    assert hi - lo <= 1e-10
    assert powered_majorant_polydisk(f, 1.0, lo).value <= 1.0
    assert powered_majorant_polydisk(f, 1.0, hi).value > 1.0


def _bisection_evaluations(tol):
    """Evaluations plain bisection makes: the top, each halving, the residual."""
    return math.ceil(math.log2(TOP_RADIUS / tol)) + 2


def test_bracket_invariant_on_ball_mixed_family():
    f = family.explicit(3, {(1, 0, 0): 0.8, (1, 1, 0): 1.5, (0, 2, 1): 0.7, (0, 0, 1): 0.5})
    res = solve_bohr_radius(f, 1.0, DomainSpec.lt_ball(2.0), tol=1e-10, seed=0)
    lo, hi = res.bracket
    assert res.method == "bisection"
    assert hi - lo <= 1e-10 and lo <= res.value <= hi
    assert powered_majorant_ball(f, 1.0, 2.0, lo, seed=0).value <= 1.0
    assert powered_majorant_ball(f, 1.0, 2.0, hi, seed=0).value > 1.0


def test_moebius_solves_in_few_evaluations():
    res = solve_bohr_radius(family.moebius(0.5), 1.0, POLYDISK)
    assert res.evaluations <= 16
    assert res.value == pytest.approx(0.8, abs=1e-10)


def test_moebius_evaluations_do_not_depend_on_the_crossing():
    # an iterate landing on the crossing is followed by one probe across it,
    # not by bisection of the far side
    counts = [
        solve_bohr_radius(family.moebius(float(a)), 1.0, POLYDISK).evaluations
        for a in np.linspace(0.05, 0.9, 86)
    ]
    assert max(counts) <= 9 and max(counts) - min(counts) <= 4


@pytest.mark.parametrize("n, p", [(2, 0.27), (26, 0.2), (46, 0.26), (367, 0.25)])
def test_convex_families_avoid_one_sided_creep(n, p):
    # S(TOP) is 40 to 1e97 times the crossing value; plain regula falsi
    # crept in from below and spent 19-36 evaluations
    res = solve_bohr_radius(family.extremal_g(n, p), p, POLYDISK)
    assert res.evaluations <= 16
    assert res.value == pytest.approx(exact_h2_radius(n, p), abs=1e-10)


def test_steep_family_stays_within_bisection_count():
    f = family.extremal_g(10**5, 1.3)
    res = solve_bohr_radius(f, 1.3, POLYDISK)
    assert res.evaluations <= 16
    assert res.value == pytest.approx(exact_h2_radius(10**5, 1.3), abs=1e-10)


def test_tiny_radius_keeps_relative_accuracy():
    # the relative stop keeps digits that an absolute tol of 1e-10 would lose
    res = solve_bohr_radius(family.extremal_g(1000, 0.25), 0.25, POLYDISK)
    lo, hi = res.bracket
    assert hi - lo <= 1e-12 * hi
    assert res.value == pytest.approx(exact_h2_radius(1000, 0.25), rel=1e-9)


def mixed_ball_cases(seed, count):
    """Seeded families with a term of degree >= 2, scaled so that S at
    TOP_RADIUS is 3: the crossing lies inside the ball."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        n = int(rng.integers(2, 4))
        f = random_sparse_family(rng, n, 4, int(rng.integers(2, 6)), lo=0.3, hi=2.0)
        if max(sum(a) for a in f.entries) < 2:
            continue
        t = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        p = float(rng.choice([0.5, 1.0, 1.5]))
        top = powered_majorant_ball(f, p, t, TOP_RADIUS).value
        scale = (3.0 / top) ** (1.0 / p)
        cases.append((family.explicit(n, {a: v * scale for a, v in f.entries.items()}), p, t))
    return cases


def test_mixed_ball_families_solve_in_few_evaluations():
    total = 0
    for f, p, t in mixed_ball_cases(7, 20):
        res = solve_bohr_radius(f, p, DomainSpec.lt_ball(t))
        lo, hi = res.bracket
        assert res.method == "bisection" and res.evaluations <= 3
        assert hi - lo <= 1e-12 * hi and lo <= res.value <= hi
        assert powered_majorant_ball(f, p, t, lo).value <= 1.0
        assert powered_majorant_ball(f, p, t, hi).value > 1.0
        total += res.evaluations
    assert total <= 35


def evaluation_log(monkeypatch, module, run):
    """(run()'s result, start, the (S, slope) known there or None, [(r,
    S(r))] in the order evaluated) of the one root finder that run() calls
    through module."""
    starts, log = [], []

    def recording(evaluate, tol=DEFAULT_TOL, start=TOP_RADIUS, known=None):
        def record(r):
            s, slope = evaluate(r)
            log.append((r, s))
            return s, slope

        starts.append((start, known))
        return bisect_unit_crossing(record, tol=tol, start=start, known=known)

    monkeypatch.setattr(module, "bisect_unit_crossing", recording)
    res = run()
    monkeypatch.undo()
    return res, *starts[0], log


def recorded_solve(monkeypatch, solve, *args):
    """(result, start, {r: S(r)} over every evaluation) of one solve."""
    res, start, _, log = evaluation_log(monkeypatch, radius, lambda: solve(*args))
    return res, start, dict(log)


def test_each_radius_is_evaluated_once(monkeypatch):
    # the result is often a bracket end: its residual is read from that
    # end's S, and evaluations counts distinct radii
    ball = DomainSpec.lt_ball
    holo = family.explicit(2, {(1, 0): 0.7, (2, 1): 1.9, (0, 3): 0.8})
    pair = PluriharmonicFamily(holo=holo, anti=family.explicit(2, {(1, 0): 0.5, (0, 3): 0.4}))
    solves = [
        (family.moebius(0.3), 1.0, POLYDISK),
        (family.moebius(0.5), 1.5, POLYDISK),
        (family.extremal_g(10, 1.5), 1.5, POLYDISK),
        (family.extremal_g(1000, 0.25), 0.25, POLYDISK),
        (pair, 1.0, ball(2.0)),
        (pair, 1.3, POLYDISK),
    ] + [(f, p, ball(t)) for f, p, t in mixed_ball_cases(7, 20)]
    at_an_end = 0
    for f, p, domain in solves:
        res, _, _, log = evaluation_log(
            monkeypatch, radius, lambda: solve_bohr_radius(f, p, domain)
        )
        radii = [r for r, _ in log]
        assert len(set(radii)) == len(radii) == res.evaluations, (f, p, domain)
        assert res.residual == abs(evaluator(f, p, domain, 0)(res.value).value - 1.0)
        at_an_end += res.value in res.bracket
    assert 3 * at_an_end >= len(solves)  # 12 of these 26 results are bracket ends
    for n in [1, 10, 10**6]:
        for p, q, c in [(1.0, 2.0, 1.0), (0.5, math.inf, 2.0), (1.3, 3.0, 0.7)]:
            cert = CertificateInput(n, p, q, c)
            res, _, _, log = evaluation_log(
                monkeypatch, bounds, lambda: certified_lower_bound(cert, mode="numeric")
            )
            radii = [r for r, _ in log]
            assert len(set(radii)) == len(radii) == res.evaluations, cert
            assert res.method == "certified_lower" and res.value == res.bracket[0]
            assert res.residual == abs(dict(log)[res.value] - 1.0)


def test_a_result_at_zero_still_evaluates_its_residual():
    # S > 1 everywhere: the bracket closes on (0, 5e-324) and the result is
    # its midpoint 0.0, a radius no step evaluates, so the residual does
    seen = []

    def evaluate(r):
        seen.append(r)
        return math.inf, math.nan

    res = bisect_unit_crossing(evaluate)
    assert res == RadiusResult(0.0, "bisection", math.inf, (0.0, 5e-324), 1076)
    assert len(seen) == len(set(seen)) == 1076 and seen[-1] == 0.0


def started_ball_solves():
    """(solve, args, the crossing where known in closed form) of ball
    solves; all but one mixed case have a single-term AM-GM crossing
    inside the ball."""
    ball = DomainSpec.lt_ball
    cases = [(solve_bohr_radius, (f, p, ball(t)), None) for f, p, t in mixed_ball_cases(7, 20)]
    tailed = family.explicit(
        2, {(1, 0): 0.9, (1, 1): 3.0, (0, 2): 0.7}, tail=family.AnalyticTail(0.2)
    )
    cases.append((solve_bohr_radius, (tailed, 1.0, ball(2.0)), None))
    holo = family.explicit(2, {(1, 0): 0.7, (2, 1): 1.9, (0, 3): 0.8})
    pair = PluriharmonicFamily(holo=holo, anti=family.explicit(2, {(1, 0): 0.5, (0, 3): 0.4}))
    cases.append((pluriharmonic_radius, (pair, 1.0, 2.0), None))
    for alpha, t, p, sigma in [((2, 1), 2.0, 1.0, 1.7), ((1, 3, 2), 1.5, 0.5, 2.3)]:
        f = family.rescale(family.normalized_monomial(alpha, t), (sigma,) * len(alpha))
        cases.append((solve_bohr_radius, (f, p, ball(t)), 1.0 / sigma))
    # tails alone: the start is the crossing of a tail's first degree block
    for n, p in TAIL_ONLY_CASES:
        cases.append((solve_bohr_radius, (family.extremal_g(n, p), p, ball(2.0)), None))
    cases.append((pluriharmonic_radius, (TAILS_ONLY_PAIR, 1.0, 2.0), None))
    return cases


TAIL_ONLY_CASES = [(10**5, 1.3), (367, 0.25), (1000, 0.25)]
TAILS_ONLY_PAIR = PluriharmonicFamily(
    holo=family.extremal_g(3, 1.0), anti=family.explicit(3, {}, tail=family.AnalyticTail(0.2))
)


def ball_domain(solve, args):
    """The domain of a started_ball_solves() case."""
    return args[2] if solve is solve_bohr_radius else DomainSpec.lt_ball(args[2])


def test_ball_solves_start_where_s_is_at_least_one(monkeypatch):
    for solve, args, crossing in started_ball_solves():
        res, start, known, log = evaluation_log(monkeypatch, radius, lambda: solve(*args))
        seen = dict(log)
        if crossing is not None:
            # a single monomial crosses 1 where its AM-GM maximum does
            assert start == pytest.approx(crossing, rel=1e-15)
            assert res.value == pytest.approx(crossing, rel=1e-13)
        if start == TOP_RADIUS:
            continue  # every term maximum at r = 1 is at most 1
        assert start < TOP_RADIUS
        if known is None:
            assert next(iter(seen)) == start
        else:
            # a start witnessed by the pass is not evaluated in the solve:
            # its first evaluation is the float below
            assert start not in seen and next(iter(seen)) == math.nextafter(start, 0.0)
            seen[start] = evaluator(*args[:2], ball_domain(solve, args), 0)(start).value
        assert seen[start] >= 1.0 - 1e-15
        lo, hi = res.bracket
        assert res.method == "bisection" and lo <= res.value <= hi
        assert seen[lo] <= 1.0 < seen[hi]
        # a start with S > 1 is the first right end, and Newton steps from
        # there stay left of it; one with S <= 1 (on the crossing, up to
        # rounding) is the left end
        assert TOP_RADIUS not in seen
        assert max(seen) == start if seen[start] > 1.0 else lo == start


def test_a_start_on_the_crossing_becomes_the_left_end():
    # S(r) = (r / 0.5)^2 is 1 at the start: the start is lo, TOP_RADIUS is
    # never needed, and the probe above it closes the bracket
    seen = {}

    def evaluate(r):
        seen[r] = (r / 0.5) ** 2
        return seen[r], 2.0 * seen[r]

    res = bisect_unit_crossing(evaluate, start=0.5)
    lo, hi = res.bracket
    assert list(seen)[:2] == [0.5, hi] and lo == 0.5 and seen[hi] > 1.0
    assert res.evaluations == 2 and res.value == 0.5


@pytest.mark.parametrize("top", [0.5, 2.0], ids=["saturated", "crossing-at-top"])
def test_a_bracket_closed_on_top_radius_evaluates_it(top):
    # S <= 1 from the start up to TOP_RADIUS, where it is `top`: the steps
    # close the bracket on TOP_RADIUS before S there is known
    seen = []

    def evaluate(r):
        seen.append(r)
        return (top, 0.0) if r == TOP_RADIUS else (0.5, 0.0)

    res = bisect_unit_crossing(evaluate, start=TOP_RADIUS - 1e-11)
    assert seen.count(TOP_RADIUS) == 1 and res.evaluations == len(seen)
    if top <= 1.0:
        assert seen[-1] == TOP_RADIUS and res == saturated_at_one(len(seen))
    else:
        lo, hi = res.bracket
        assert hi == TOP_RADIUS and lo in seen and res.method == "bisection"


def test_families_below_one_at_the_boundary_start_at_top_radius(monkeypatch):
    # every term maximum at r = 1 is at most 1, and so is S: the one
    # evaluation, at TOP_RADIUS, saturates
    small = family.explicit(2, {(1, 0): 0.3, (1, 1): 0.4, (0, 2): 0.2})
    pair = PluriharmonicFamily(holo=small, anti=family.explicit(2, {(0, 1): 0.05}))
    for solve, args in [
        (solve_bohr_radius, (small, 1.0, DomainSpec.lt_ball(2.0))),
        (solve_bohr_radius, (small, 1.0, DomainSpec.lt_ball(1.0))),
        (pluriharmonic_radius, (pair, 1.0, 2.0)),
    ]:
        res, start, seen = recorded_solve(monkeypatch, solve, *args)
        assert start == TOP_RADIUS and list(seen) == [TOP_RADIUS]
        assert res == saturated_at_one(evaluations=1)


@pytest.mark.parametrize("n, p", TAIL_ONLY_CASES)
def test_tail_only_ball_solves_start_at_the_first_block_crossing(monkeypatch, n, p):
    g = family.extremal_g(n, p)
    ball = DomainSpec.lt_ball(2.0)
    res, start, seen = recorded_solve(monkeypatch, solve_bohr_radius, g, p, ball)
    # the first block, n (v r)^p, is 1 at r = n^(-1/p) / v
    assert start == pytest.approx(n ** (-1.0 / p) / g.tail.parameter, rel=1e-14)
    lo, hi = res.bracket
    assert seen[start] >= 1.0 and seen[lo] <= 1.0 < seen[hi]
    assert res.evaluations <= 8
    assert res.value == pytest.approx(exact_h2_radius(n, p), rel=1e-12)


def test_tail_lead_is_the_first_block_of_the_tail():
    # K = 2, n = 2: the first block is C(4, 3) (0.3 r)^(3p)
    f = family.explicit(2, {(1, 1): 0.5}, tail=family.AnalyticTail(0.3))
    ((log_scale, k),) = f.tail_lead(1.5)
    assert k == 3 and log_scale == pytest.approx(math.log(4.0 * 0.3**4.5), rel=1e-15)
    # a term of the tail's sum, and its leading one as r -> 0
    for r, rel in [(0.01, 1e-3), (0.5, 1.0), (0.9, 1.0)]:
        block = math.exp(log_scale) * r ** (1.5 * k)
        assert block <= f.powered_tail(1.5, r)[0] <= block * (1.0 + rel)
    assert family.explicit(2, {(1, 1): 0.5}).tail_lead(1.0) == []
    assert family.explicit(2, {}, tail=family.AnalyticTail(0.0)).tail_lead(1.0) == []
    # a pair has one row per part's tail, and starts at the smaller crossing
    pair = TAILS_ONLY_PAIR
    rows = pair.tail_lead(1.0)
    assert rows == pair.holo.tail_lead(1.0) + pair.anti.tail_lead(1.0) and len(rows) == 2
    start, _ = evaluator(pair, 1.0, DomainSpec.lt_ball(2.0)).start()
    assert start == min(math.exp(-a / k) for a, k in rows) < 1.0


def solve_from_top_radius(f, p, domain):
    """The root finder from TOP_RADIUS on the evaluator a solve uses."""
    majorant = evaluator(f, p, domain)

    def evaluate(r):
        mv = majorant(r)
        return mv.value, mv.slope

    return bisect_unit_crossing(evaluate)


def test_started_solves_take_no_more_evaluations_than_from_top_radius():
    total = total_from_top = 0
    for f, p, t in mixed_ball_cases(7, 20):
        res = solve_bohr_radius(f, p, DomainSpec.lt_ball(t))
        from_top = solve_from_top_radius(f, p, DomainSpec.lt_ball(t))
        assert res.evaluations <= from_top.evaluations
        total += res.evaluations
        total_from_top += from_top.evaluations
    assert total < total_from_top


def test_ball_solves_start_on_the_solved_radius(monkeypatch):
    # the joint pass, or a closed form's own crossing, puts the start of
    # every ball solve with explicit terms on the crossing; tails alone
    # start at their first block's crossing
    for solve, args, _ in started_ball_solves():
        if not args[0].powered_terms(args[1]):
            continue
        res, start, _ = recorded_solve(monkeypatch, solve, *args)
        assert res.method == "bisection" and abs(start - res.value) <= 1e-9 * res.value, args


# The parent solves of started_ball_solves() cases 0, 7 and 10 (mixed;
# case 10 has no single-term AM-GM crossing inside the ball), 20 (tailed)
# and 21 (a pluriharmonic pair), all from the AM-GM start: (value,
# residual, bracket, evaluations).
AM_GM_SOLVES = {
    0: (0.5773502686122756, 4.440892098500626e-16, (0.5773502686122755, 0.5773502686124855), 4),
    7: (0.26608194161760534, 0.0, (0.26608194161753884, 0.26608194161760546), 7),
    10: (0.39518636649516, 0.0, (0.3951863664950613, 0.39518636649516375), 7),
    20: (0.5791050997239935, 2.220446049250313e-16, (0.5791050997238487, 0.5791050997239936), 7),
    21: (0.6897397549769407, 2.220446049250313e-16, (0.6897397549769406, 0.689739754977113), 7),
}


def am_gm_start(f, p, t):
    """The smallest single-term AM-GM crossing, read off the terms; inf
    where none lies in (0, 1)."""
    crossings = []
    for alpha, c in f.powered_terms(p):
        k = sum(alpha)
        log_max = math.log(c) + (p / t) * sum(a * math.log(a / k) for a in alpha if a)
        crossings.append(math.exp(-log_max / (p * k)))
    return min([x for x in crossings if x < 1.0], default=math.inf)


def test_a_pass_that_cannot_converge_falls_back_to_the_am_gm_start(monkeypatch):
    # the pass's cap, MAX_ITER, is 0 while the start is computed, and the
    # evaluations keep theirs
    real_evaluator = majorant.evaluator

    def capped(*args):
        evaluate = real_evaluator(*args)
        pass_start = evaluate.start

        def start():
            with monkeypatch.context() as m:
                m.setattr(majorant, "MAX_ITER", 0)
                return pass_start()

        evaluate.start = start
        return evaluate

    cases = started_ball_solves()
    for i, (value, residual, bracket, evaluations) in AM_GM_SOLVES.items():
        solve, args, _ = cases[i]
        t = args[2].t if solve is solve_bohr_radius else args[2]
        monkeypatch.setattr(majorant, "evaluator", capped)
        res, start, _ = recorded_solve(monkeypatch, solve, *args)
        assert start == pytest.approx(min(TOP_RADIUS, am_gm_start(args[0], args[1], t)), rel=1e-15)
        assert res == RadiusResult(value, "bisection", residual, bracket, evaluations), i


def counting_runs(monkeypatch):
    """(passes, runs): lists that gain an entry each time a joint pass, or
    an optimizer run, starts."""
    passes, runs = [], []
    real = majorant._simplex_maximizer

    def counting(*args):
        maximize, crossing = real(*args)

        def counted_run(*run_args):
            runs.append(1)
            return maximize(*run_args)

        def counted_pass(*pass_args):
            passes.append(1)
            return crossing(*pass_args)

        return counted_run, counted_pass

    monkeypatch.setattr(majorant, "_simplex_maximizer", counting)
    return passes, runs


def test_a_witnessed_start_closes_on_the_float_below(monkeypatch):
    # the pass's feasible point has S > 1 at the start, so the start is hi
    # unevaluated; where the optimizer's S one float below is <= 1, that
    # float is lo and the result, and the solve runs the optimizer once
    closed = 0
    for solve, args, _ in started_ball_solves():
        evaluate = evaluator(*args[:2], ball_domain(solve, args))
        start, known = evaluate.start()
        if known is None:
            continue
        assert known[0] > 1.0 and evaluate(start).value >= 1.0 - 1e-15
        below = math.nextafter(start, 0.0)
        if evaluate(below).value > 1.0:
            continue
        _, runs = counting_runs(monkeypatch)
        res = solve(*args)
        monkeypatch.undo()
        assert runs == [1], args
        assert res.bracket == (below, start) and res.value == res.bracket[0]
        assert res.evaluations == 1
        closed += 1
    assert closed >= 10  # 12 of the 22 witnessed starts


def test_one_shot_evaluations_run_no_pass(monkeypatch):
    f, p, t = mixed_ball_cases(7, 1)[0]
    passes, _ = counting_runs(monkeypatch)
    powered_majorant_ball(f, p, t, 0.5)
    evaluator(f, p, DomainSpec.lt_ball(t))(0.5)
    argv = ["maximize-ball", "--p", str(p), "--t", str(t), "--r", "0.5"]
    assert cli.main(argv, stdin_text=family.to_json(f)) == 0
    assert passes == []
    solve_bohr_radius(f, p, DomainSpec.lt_ball(t))
    assert passes == [1]


def test_evaluators_of_one_family_give_one_start():
    # the start depends on (f, p, t, seed) alone, not on earlier evaluations
    for solve, args, _ in started_ball_solves():
        f, p = args[:2]
        domain = ball_domain(solve, args)
        first = evaluator(f, p, domain, 3)
        second = evaluator(f, p, domain, 3)
        second(0.3)
        assert first.start() == second.start() == first.start(), args


def test_polydisk_solves_start_at_top_radius():
    # the polydisk takes no start, so its solves are those from TOP_RADIUS
    cases = [
        (family.moebius(0.5), 1.0),
        (family.extremal_g(367, 0.25), 0.25),
        (family.extremal_g(10**5, 1.3), 1.3),
    ]
    for f, p in cases:
        start, _ = evaluator(f, p, POLYDISK).start()
        assert start == math.inf
        assert solve_bohr_radius(f, p, POLYDISK) == solve_from_top_radius(f, p, POLYDISK)


@pytest.mark.parametrize(
    "above",
    [lambda r: math.inf, lambda r: math.nan, "raise"],
    ids=["inf", "nan", "tail_divergence"],
)
def test_non_finite_values_count_as_above_one(above):
    # 2r up to 0.6, then non-finite: the crossing sits at r = 1/2
    seen = []

    def evaluate(r):
        seen.append(r)
        if r <= 0.6:
            return 2.0 * r, 2.0 * r
        if above == "raise":
            raise TailDivergenceError("diverges")
        return above(r), 1.0

    res = bisect_unit_crossing(evaluate, tol=1e-10)
    assert seen[1] == 0.5 * TOP_RADIUS  # midpoint step from an infinite end
    lo, hi = res.bracket
    assert hi - lo <= 1e-10 and lo <= 0.5 < hi
    assert res.value == pytest.approx(0.5, abs=1e-10)
    assert res.evaluations == len(seen) <= _bisection_evaluations(1e-10) + 1


def test_tol_below_float_spacing_stops_at_adjacent_floats():
    calls = []

    def evaluate(r):
        calls.append(r)
        assert len(calls) < 200, "root finder does not terminate"
        mv = powered_majorant_polydisk(family.moebius(0.5), 1.0, r)
        return mv.value, mv.slope

    res = bisect_unit_crossing(evaluate, tol=1e-17)
    lo, hi = res.bracket
    assert math.nextafter(lo, 1.0) == hi
    assert res.value == pytest.approx(0.8, abs=1e-15)


def test_scaling_covariance():
    tol = 1e-10
    f = family.explicit(2, {(1, 0): 0.9, (2, 1): 1.4})
    base = solve_bohr_radius(f, 1.0, POLYDISK, tol=tol).value
    for c in [0.4, 0.7, 1.0]:
        scaled = family.rescale(f, (c, c))
        got = solve_bohr_radius(scaled, 1.0, POLYDISK, tol=tol).value
        assert got == pytest.approx(min(1.0, base / c), abs=2 * tol)


def test_exact_h2_radius_values():
    assert exact_h2_radius(1, 1.0) == pytest.approx(2**-0.5, abs=1e-12)
    assert exact_h2_radius(2, 1.0) == pytest.approx(
        (1 - 2**-0.5) ** 0.5, abs=1e-12
    )
    assert exact_h2_radius(5, 1.999999) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ParameterError):
        exact_h2_radius(1, 2.0)
    with pytest.raises(ParameterError):
        exact_h2_radius(1, 2.5)


def test_h2_closed_forms_take_numpy_integers():
    assert family.stable_half_root_gap(np.int64(10)) == family.stable_half_root_gap(10)
    assert exact_h2_radius(np.int64(10), 1.0) == exact_h2_radius(10, 1.0)
    assert h2_defining_residual(np.int64(10), 1.0, 0.3) == h2_defining_residual(10, 1.0, 0.3)


def test_solver_agrees_with_closed_form():
    for n in range(1, 11):
        for p in [0.5, 1.0, 1.5]:
            got = solve_bohr_radius(family.extremal_g(n, p), p, POLYDISK).value
            assert got == pytest.approx(exact_h2_radius(n, p), abs=1e-8)


def test_defining_residual():
    for n, p in [(1, 1.0), (10, 0.5), (100, 1.5)]:
        assert abs(h2_defining_residual(n, p, exact_h2_radius(n, p))) <= 1e-10
    assert h2_defining_residual(1, 1.0, 0.0) == -1.0
    assert h2_defining_residual(1, 1.0, 0.9) > 0.0


def test_defining_residual_overflow_is_inf():
    assert h2_defining_residual(1000, 1.9, 0.99) == math.inf


def test_defining_residual_increasing_in_r():
    rs = np.linspace(0.05, 0.9, 40)
    vals = [h2_defining_residual(3, 1.2, r) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_pluriharmonic_zero_anti_reduces_exactly():
    holo = family.explicit(2, {(1, 0): 0.4, (1, 1): 0.8})
    anti = family.explicit(2, {})
    pf = PluriharmonicFamily(holo=holo, anti=anti)
    direct = solve_bohr_radius(holo, 1.0, POLYDISK)
    via = pluriharmonic_radius(pf, 1.0, math.inf)
    assert via == direct


def test_pluriharmonic_real_part_witness():
    # f = Re z1: a = b = 1/2 at degree 1, combined sum is r
    half = family.explicit(1, {(1,): 0.5})
    pf = PluriharmonicFamily(holo=half, anti=half)
    res = pluriharmonic_radius(pf, 1.0, math.inf)
    assert res.value == 1.0 and res.method == "saturated_at_one"


def test_pluriharmonic_doubling_law():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        g = random_sparse_family(rng, n, 3, 4, lo=0.3, hi=2.0)
        pf = PluriharmonicFamily(holo=g, anti=g)
        res = pluriharmonic_radius(pf, 1.0, math.inf, tol=1e-11)
        if res.method == "saturated_at_one":
            assert powered_majorant_polydisk(g, 1.0, 1 - 1e-9).value <= 0.5
        else:
            half = powered_majorant_polydisk(g, 1.0, res.value).value
            assert half == pytest.approx(0.5, abs=1e-8)


def test_pluriharmonic_mass_shrinks_radius():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        holo = random_sparse_family(rng, n, 3, 4, lo=0.3, hi=2.0)
        anti = random_sparse_family(rng, n, 2, 2, lo=0.1, hi=1.0)
        pf = PluriharmonicFamily(holo=holo, anti=anti)
        combined = pluriharmonic_radius(pf, 1.0, math.inf).value
        alone = solve_bohr_radius(holo, 1.0, POLYDISK).value
        assert combined <= alone + 1e-9


def test_pluriharmonic_on_ball():
    g = family.explicit(2, {(1, 0): 1.0, (0, 1): 1.0})
    pf = PluriharmonicFamily(holo=g, anti=g)
    # summed weight per index is 1^p + 1^p = 2; radius solves 2 sqrt(2) r = 1
    res = pluriharmonic_radius(pf, 1.0, 2.0, tol=1e-11)
    assert res.value == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-9)


def test_pluriharmonic_validation():
    holo = family.explicit(1, {(1,): 0.1})
    with pytest.raises(ParameterError):
        PluriharmonicFamily(holo=holo, anti=family.explicit(2, {}))
    with pytest.raises(ParameterError):
        PluriharmonicFamily(holo=holo, anti=family.explicit(1, {(0,): 0.2}))


@pytest.mark.parametrize("p", [0.0, -1.0])
def test_pluriharmonic_ball_refuses_nonpositive_p(p):
    # the summed weight |a|^p + |b|^p has no value here: 0^p for the
    # index the anti part lacks
    holo = family.explicit(2, {(1, 0): 0.5, (0, 1): 0.3})
    pf = PluriharmonicFamily(holo=holo, anti=family.explicit(2, {(1, 0): 0.25}))
    with pytest.raises(ParameterError, match="need p > 0"):
        pluriharmonic_radius(pf, p, 2.0)


def test_pluriharmonic_merge_overflow_is_a_parameter_error():
    pf = PluriharmonicFamily(
        holo=family.explicit(2, {(1, 1): 1e200, (2, 0): 1.0, (0, 1): 0.5}),
        anti=family.explicit(2, {(1, 1): 0.5}),
    )
    with pytest.raises(ParameterError, match="exceeds the float range"):
        pluriharmonic_radius(pf, 2.0, 2.0)
    # each part's weight is finite, their sum is not
    big = family.explicit(2, {(1, 1): 1.3e154})
    for t in [math.inf, 2.0]:
        with pytest.raises(ParameterError, match="exceeds the float range"):
            pluriharmonic_radius(PluriharmonicFamily(holo=big, anti=big), 2.0, t)


@pytest.mark.parametrize("p", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("t", [math.inf, 2.0], ids=["polydisk", "ball"])
def test_non_finite_p_is_refused(p, t):
    # S_p has no value at a non-finite p, so no radius may come out of it
    domain = DomainSpec(t)
    explicit = family.explicit(2, {(1, 0): 0.5, (2, 1): 0.7, (0, 3): 0.2})
    for f in [family.moebius(0.5), family.extremal_g(3, 1.0), explicit]:
        with pytest.raises(ParameterError, match="need p > 0 and finite"):
            solve_bohr_radius(f, p, domain)
    pf = PluriharmonicFamily(holo=explicit, anti=family.explicit(2, {(1, 0): 0.25}))
    with pytest.raises(ParameterError, match="need p > 0 and finite"):
        pluriharmonic_radius(pf, p, t)


def test_polydisk_solves_take_the_degree_sums_once(monkeypatch):
    # the evaluator compiles the sums once per solve, not once per
    # evaluation, and a pair compiles as one family
    calls = []
    degree_power_sums = family.CoefficientFamily.degree_power_sums

    def counting(self, p):
        calls.append(type(self))
        return degree_power_sums(self, p)

    for cls in (family.CoefficientFamily, PluriharmonicFamily):
        monkeypatch.setattr(cls, "degree_power_sums", counting)
    res = solve_bohr_radius(family.extremal_g(5, 1.0), 1.0, DomainSpec.polydisk())
    assert res.evaluations > 2 and calls == [family.CoefficientFamily]
    calls.clear()
    holo = family.explicit(2, {(1, 0): 0.5, (1, 1): 0.4})
    pf = PluriharmonicFamily(holo=holo, anti=family.explicit(2, {(0, 1): 0.3}))
    res = pluriharmonic_radius(pf, 1.0, math.inf)
    assert res.evaluations > 2 and calls == [PluriharmonicFamily]


def test_tailed_pairs_solve_on_a_ball(monkeypatch):
    # the tails add their polydisk closed form, an upper bound on the ball
    holo = family.explicit(2, {(1, 0): 0.9, (0, 1): 0.8}, tail=family.AnalyticTail(0.5))
    pf = PluriharmonicFamily(holo=holo, anti=family.explicit(2, {(1, 1): 0.6}))
    res = pluriharmonic_radius(pf, 1.0, 2.0)
    assert res.method == "bisection"
    assert pluriharmonic_radius(pf, 1.0, math.inf).value < res.value < 1.0
    crossing = evaluator(pf, 1.0, DomainSpec.lt_ball(2.0))(res.value).value
    assert crossing == pytest.approx(1.0, abs=1e-9)
    # with no explicit terms the ball adds the same tail as the polydisk; its
    # solve starts at the tails' first-block crossing, so only the steps differ
    solve = pluriharmonic_radius
    ball, _, ball_seen = recorded_solve(monkeypatch, solve, TAILS_ONLY_PAIR, 1.0, 2.0)
    polydisk, _, polydisk_seen = recorded_solve(monkeypatch, solve, TAILS_ONLY_PAIR, 1.0, math.inf)
    assert ball.method == "bisection" and ball.value == polydisk.value
    assert TOP_RADIUS not in ball_seen and next(iter(polydisk_seen)) == TOP_RADIUS
    for r in [0.2, ball.value, 0.9]:
        assert evaluator(TAILS_ONLY_PAIR, 1.0, DomainSpec.lt_ball(2.0))(r).value == (
            evaluator(TAILS_ONLY_PAIR, 1.0, POLYDISK)(r).value
        )


def test_a_shared_index_keeps_the_am_gm_closed_form():
    # one index in both parts is one term of weight 0.5 + 0.3, not two terms
    pf = PluriharmonicFamily(
        holo=family.explicit(2, {(1, 1): 0.5}), anti=family.explicit(2, {(1, 1): 0.3})
    )
    mv = evaluator(pf, 1.0, DomainSpec.lt_ball(2.0))(0.5)
    # 0.8 r^2 at the maximizer |z_1|^2 = |z_2|^2 = r^2 / 2
    assert mv.exactness == "exact" and mv.value == pytest.approx(0.1, rel=1e-15)


def test_pairs_match_their_reference_paths():
    # the polydisk reference adds the two parts' majorants; the ball
    # reference solves the family of weights (|a|^p + |b|^p)^(1/p)
    rng = np.random.default_rng(31)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        holo = random_sparse_family(rng, n, 4, 4, lo=0.1, hi=1.5)
        anti = random_sparse_family(rng, n, 4, 3, lo=0.05, hi=1.0)
        p = float(rng.uniform(0.5, 1.9))
        pf = PluriharmonicFamily(holo=holo, anti=anti)
        parts = [evaluator(part, p, POLYDISK) for part in (holo, anti)]

        def both(r):
            h, a = (majorant(r) for majorant in parts)
            return h.value + a.value, h.slope + a.slope

        pair = pluriharmonic_radius(pf, p, math.inf).value
        assert abs(pair - bisect_unit_crossing(both).value) <= 4 * math.ulp(pair)
        keys = set(holo.entries) | set(anti.entries)
        merged = family.explicit(
            n,
            {
                a: (holo.entries.get(a, 0.0) ** p + anti.entries.get(a, 0.0) ** p) ** (1 / p)
                for a in keys
            },
        )
        ball = pluriharmonic_radius(pf, p, 2.0).value
        assert ball == pytest.approx(
            solve_bohr_radius(merged, p, DomainSpec.lt_ball(2.0)).value, abs=1e-12
        )
