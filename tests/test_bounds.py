import decimal
import math
from decimal import Decimal

import pytest

from bohrlab import family
from bohrlab.bounds import (
    CertificateInput,
    ball_certificate,
    certified_lower_bound,
    coefficient_bound_check,
    sandwich_check,
    witness_upper_linear_form,
)
from bohrlab.errors import NotCertifiedError, ParameterError
from bohrlab.majorant import DomainSpec
from bohrlab.multiindex import enumerate_degree, multinomial_weight
from bohrlab.radius import TOP_RADIUS, exact_h2_radius, solve_bohr_radius


def test_closed_form_values():
    got = certified_lower_bound(CertificateInput(1, 1.0, 2.0, 1.0)).value
    assert got == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * math.e)), abs=1e-12)
    # p = q: the n-independent bound 2^(-1/p)
    for n in [1, 10, 500]:
        got = certified_lower_bound(CertificateInput(n, 1.5, 1.5, 1.0)).value
        assert got == pytest.approx(2.0 ** (-1.0 / 1.5), abs=1e-12)


def test_numeric_geometric_case():
    got = certified_lower_bound(CertificateInput(1, 1.0, 2.0, 1.0), mode="numeric").value
    assert got == pytest.approx(0.5, abs=1e-10)


def decimal_series(n, p, q, c, r):
    """sum_{k>=1} (c r)^(pk) C(n+k-1,k)^(1-p/q) in 40-digit decimals with
    exact integer counts, stopped once the total passes 4 or a term is zero
    or falls below 1e-30 of it."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        frac = Decimal(1) if math.isinf(q) else 1 - Decimal(p) / Decimal(q)
        x = (Decimal(c) * Decimal(r)) ** Decimal(p)
        total, power, k = Decimal(0), Decimal(1), 0
        while True:
            k += 1
            power *= x
            term = power * Decimal(math.comb(n + k - 1, k)) ** frac
            total += term
            if total > 4 or term == 0 or term < total * Decimal("1e-30"):
                return total


def test_numeric_certificate_keeps_the_series_at_most_one():
    # the returned radius is certified only where the series is <= 1; the
    # bracket's midpoint exceeded 1 in about a third of these cases, and a
    # float series let the lower end exceed it by up to 1.6e-10 at n = 10^6
    evaluations = []
    for n in [1, 3, 10, 57, 300, 5000, 10**6]:
        for p in [0.5, 0.9, 1.0, 1.3, 1.9]:
            for q in [2.0, 3.0, math.inf]:
                for c in [0.3, 1.0, 2.0]:
                    res = certified_lower_bound(CertificateInput(n, p, q, c), mode="numeric")
                    evaluations.append(res.evaluations)
                    if res.method == "saturated_at_one":
                        assert decimal_series(n, p, q, c, TOP_RADIUS) <= 1
                        continue
                    assert res.value == res.bracket[0]
                    assert decimal_series(n, p, q, c, res.value) <= 1, (n, p, q, c)
    # Newton steps on the shared root finder, not plain bisection (about 38)
    assert sum(evaluations[:270]) / 270 <= 16


def test_numeric_certificate_matches_the_q_inf_closed_form():
    # at q = inf the series is (1 - (C r)^p)^(-n) - 1, which crosses 1 at
    # r = (1 - 2^(-1/n))^(1/p) / C; the bracket is relative to the radius
    for n in [1, 10, 10**3, 10**5, 10**6]:
        for p in [0.5, 1.0, 1.9]:
            for c in [0.3, 1.0, 2.0]:
                got = certified_lower_bound(CertificateInput(n, p, math.inf, c), mode="numeric")
                want = min(1.0, family.stable_half_root_gap(n) ** (1.0 / p) / c)
                assert got.value == pytest.approx(want, rel=1e-11, abs=0.0), (n, p, c)


def test_a_certificate_at_zero_evaluates_the_series_there():
    # U > 1 already at 5e-324: the bracket closes on (0, 5e-324), whose
    # lower end no step evaluated, so U(0) is evaluated for the residual;
    # U(0) is taken at C r rounded up to 5e-324, x/(1-x) with x = 5e-324^p
    res = certified_lower_bound(
        CertificateInput(1, 0.01, math.inf, 0.5**100 / 5e-324), mode="numeric"
    )
    assert res.value == 0.0 and res.bracket == (0.0, 5e-324)
    x = 5e-324**0.01
    assert res.residual == pytest.approx(1.0 - x / (1.0 - x), rel=1e-12)
    assert res.evaluations == 1012


def test_numeric_dominates_closed_form():
    for n in [1, 5, 50, 1000]:
        for p in [0.5, 1.0, 1.5]:
            for q in [2.0, 3.0]:
                for c in [0.5, 1.0, 2.0]:
                    cert = CertificateInput(n, p, q, c)
                    closed = certified_lower_bound(cert).value
                    numeric = certified_lower_bound(cert, mode="numeric").value
                    assert numeric >= closed - 1e-9, (n, p, q, c)


def test_certificate_monotonicity():
    base = CertificateInput(10, 1.0, 2.0, 1.0)
    for mode in ["closed_form", "numeric"]:
        v = certified_lower_bound(base, mode=mode).value
        assert certified_lower_bound(CertificateInput(20, 1.0, 2.0, 1.0), mode=mode).value <= v + 1e-12
        assert certified_lower_bound(CertificateInput(10, 1.0, 2.0, 2.0), mode=mode).value <= v + 1e-12
        # larger q is a weaker hypothesis, so the certified radius shrinks
        assert certified_lower_bound(CertificateInput(10, 1.0, 3.0, 1.0), mode=mode).value <= v + 1e-12


def test_certificate_below_exact_class_radius():
    for n in range(1, 101):
        for p in [0.5, 1.0, 1.5]:
            exact = exact_h2_radius(n, p)
            cert = CertificateInput(n, p, 2.0, 1.0)
            for mode in ["closed_form", "numeric"]:
                assert certified_lower_bound(cert, mode=mode).value <= exact + 1e-12


def test_certificate_validation():
    with pytest.raises(ParameterError):
        CertificateInput(1, 2.0, 1.0, 1.0)  # p > q
    # C = 0 saturates in either mode, but an unknown mode is refused first
    for cert in [CertificateInput(1, 1.0, 2.0, 1.0), CertificateInput(3, 1.0, 2.0, 0.0)]:
        with pytest.raises(ParameterError):
            certified_lower_bound(cert, mode="weird")


def test_non_finite_parameters_refused():
    nan, inf = math.nan, math.inf
    for p, q, c in [
        (nan, 2.0, 1.0), (inf, inf, 1.0), (1.0, nan, 1.0), (0.5, 0.8, 1.0),
        (1.0, 2.0, nan), (1.0, 2.0, inf), (1.0, 2.0, -1.0),
    ]:
        with pytest.raises(ParameterError):
            CertificateInput(10, p, q, c)
    assert CertificateInput(10, 1.0, inf, 1.0).q == inf
    for p in [nan, inf, 0.0]:
        with pytest.raises(ParameterError):
            witness_upper_linear_form(10, p, 2.0, 2.0)


def test_ball_certificate_preset():
    cert = ball_certificate(5, 1.0, 2.0, 1.5)
    assert cert.q == 1.5
    assert cert.C == pytest.approx(math.exp(1.0 / 1.5))


def test_witness_values():
    assert witness_upper_linear_form(4, 1.0, 2.0, math.inf).value == pytest.approx(0.5)
    assert witness_upper_linear_form(7, 1.5, 1.5, 1.5).value == pytest.approx(1.0)
    assert witness_upper_linear_form(9, 1.0, 2.0, 2.0).value == pytest.approx(1.0 / 3.0)


def test_witness_matches_solver_on_built_family():
    for n in [4, 9]:
        for q in [2.0, 3.0]:
            for t in [2.0, math.inf]:
                f = family.linear_form(n, q, t)
                solved = solve_bohr_radius(f, 1.0, DomainSpec(t), tol=1e-11).value
                witness = witness_upper_linear_form(n, 1.0, q, t).value
                assert solved == pytest.approx(witness, abs=1e-8), (n, q, t)


def test_coefficient_bound_certified_presets():
    ok, worst = coefficient_bound_check(family.moebius(0.5), 2.0)
    assert ok and worst <= 1.0 + 1e-12
    ok, _ = coefficient_bound_check(family.linear_form(4, 2.0, 2.0), 2.0)
    assert ok
    for t in [1.0, 2.0, 3.0]:
        for n in range(1, 5):
            for alpha in enumerate_degree(n, 4):
                ok, _ = coefficient_bound_check(family.normalized_monomial(alpha, t), t)
                assert ok, (alpha, t)


def test_coefficient_bound_violation_detected():
    alpha = (2, 1)
    k = sum(alpha)
    t = 2.0
    bound = math.exp(k / t) * multinomial_weight(alpha) ** (1 / t)
    bad = family.explicit(2, {alpha: 2.0 * bound}, certified=True)
    ok, worst = coefficient_bound_check(bad, t)
    assert not ok
    assert worst == pytest.approx(2.0, rel=1e-12)


def test_uncertified_family_refused():
    with pytest.raises(NotCertifiedError):
        coefficient_bound_check(family.explicit(1, {(1,): 1.0}), 2.0)


def test_sandwich(capsys):
    lower = certified_lower_bound(CertificateInput(1, 1.0, 2.0, 1.0))
    from bohrlab.radius import RadiusResult

    upper = RadiusResult(exact_h2_radius(1, 1.0), "closed_form", 0.0, (0, 1))
    assert sandwich_check(lower, upper) is True
    assert sandwich_check(upper, upper) is True  # equal values pass
    assert sandwich_check(upper, lower) is False
    # the library reports nothing; the CLI's sandwich command does
    assert capsys.readouterr() == ("", "")
