import dataclasses
import json
import math

import numpy as np
import pytest

from bohrlab import asymptotics, bounds, family
from bohrlab.errors import ParameterError
from bohrlab.majorant import DomainSpec, powered_majorant
from bohrlab.multiindex import count, multinomial_weight
from bohrlab.radius import exact_h2_radius, h2_defining_residual, solve_bohr_radius


def test_stable_half_root_gap():
    for n in [1, 2, 10, 1000]:
        assert family.stable_half_root_gap(n) == pytest.approx(1 - 2 ** (-1 / n), rel=1e-15)
    # direct subtraction dies around n ~ 1e16; expm1 does not
    assert family.stable_half_root_gap(10**16) > 0


def test_moebius_entries():
    f = family.moebius(0.5)
    assert f.entries[(0,)] == 0.5
    # expand (a - z)/(1 - a z): |c_k| = (1 - a^2) a^(k-1)
    assert f.entries[(1,)] == pytest.approx(0.75)
    assert f.entries[(2,)] == pytest.approx(0.375)
    assert f.entries[(3,)] == pytest.approx(0.1875)
    assert f.tail.parameter == 0.5
    assert f.sup_norm_certified


def test_moebius_is_inner():
    # sum |c_k|^2 = a^2 + (1-a^2)^2/(1-a^2) = 1
    assert family.h2_norm(family.moebius(0.5)) == pytest.approx(1.0, abs=1e-12)
    assert family.h2_norm(family.moebius(0.9)) == pytest.approx(1.0, abs=1e-12)


def test_extremal_g_structure():
    f = family.extremal_g(1, 1)
    assert f.tail.parameter == pytest.approx(2**-0.5)
    for n, p in [(1, 1.0), (2, 1.0), (3, 0.5)]:
        assert family.h2_norm(family.extremal_g(n, p)) == pytest.approx(1.0, abs=1e-12)


def test_extremal_g_is_its_tail_alone():
    f = family.extremal_g(10**6, 1.9)
    assert f.entries == {} and f.truncation_degree == 0
    assert family.from_json(family.to_json(f)) == f


@pytest.mark.parametrize("n", [1, 10, 10**3, 10**5])
def test_extremal_g_values_match_the_family_with_a_zero_entry(n):
    # extremal_g stored a zero entry at (0,)*n; a zero entry adds nothing
    f = family.extremal_g(n, 1.3)
    with_zero = dataclasses.replace(f, entries={(0,) * n: 0.0})
    for p in (1.0, 1.3):  # a smaller p overflows at n = 10^5, zero entry or not
        radius = exact_h2_radius(n, p)
        for domain in (DomainSpec.polydisk(), DomainSpec.lt_ball(2)):
            for r in (0.0, radius / 2, radius):
                got = powered_majorant(f, p, domain, r)
                assert got == powered_majorant(with_zero, p, domain, r)
            assert solve_bohr_radius(f, p, domain) == solve_bohr_radius(with_zero, p, domain)


def test_extremal_g_per_degree_closed_form():
    # sum_k count(n,k) v^(2k) = (1 - v^2)^(-n) - 1 = 1
    for n in [1, 2, 5]:
        v = family.extremal_g(n, 1.0).tail.parameter
        total = sum(count(n, k) * v ** (2 * k) for k in range(1, 400))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_linear_form():
    f = family.linear_form(4, 2, math.inf)
    assert all(val == pytest.approx(0.5) for val in f.entries.values())
    assert len(f.entries) == 4
    assert family.linear_form_scale(9, 2, 2) == 1.0
    assert family.linear_form_scale(9, 2, math.inf) == 3.0


def test_rescale():
    f = family.explicit(2, {(1, 1): 3.0})
    same = family.rescale(f, (1.0, 1.0))
    assert same.entries == f.entries
    crossed = family.rescale(f, (2.0, 0.5))
    assert crossed.entries[(1, 1)] == pytest.approx(3.0)

    m = family.moebius(0.5)
    scaled = family.rescale(m, (0.5,))
    assert scaled.entries[(3,)] == pytest.approx(0.75 * 0.25 * 2.0**-3)
    assert scaled.tail.parameter == pytest.approx(0.25)
    with pytest.raises(ParameterError):
        family.rescale(family.explicit(2, {(1, 0): 1.0}, tail=family.AnalyticTail(0.5)), (0.5, 0.6))
    with pytest.raises(ParameterError):
        family.rescale(f, (math.nan, 1.0))


def test_rescale_damps_h2_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = family.explicit(
            2, {(1, 0): float(rng.uniform(0, 1)), (1, 1): float(rng.uniform(0, 1))}
        )
        sigma = tuple(float(s) for s in rng.uniform(0.1, 1.0, size=2))
        assert family.h2_norm(family.rescale(f, sigma)) <= family.h2_norm(f) + 1e-12


def test_degree_power_sums_unchanged():
    def reference(f, p):
        sums = {}
        for alpha, value in f.entries.items():
            k = sum(alpha)
            if k == 0 or value == 0.0:
                continue
            sums[k] = sums.get(k, 0.0) + value**p
        return sums

    g = family.extremal_g(10**4, 1.5)
    assert g.degree_power_sums(1.5) == reference(g, 1.5) == {}
    f = family.explicit(
        3, {(0, 0, 0): 0.7, (1, 0, 0): 0.3, (0, 1, 1): 0.0, (1, 1, 0): 0.4, (0, 0, 2): 0.2}
    )
    for p in [0.5, 1.0, 1.7]:
        assert f.degree_power_sums(p) == reference(f, p) == {1: 0.3**p, 2: 0.4**p + 0.2**p}


def test_h2_norm_simple():
    assert family.h2_norm(family.explicit(1, {(1,): 1.0})) == 1.0


def test_json_round_trip():
    for f in [
        family.moebius(0.37),
        family.extremal_g(3, 1.2),
        family.explicit(2, {(1, 1): 0.25}),
        # a numpy integer size is stored as the int it checks to
        family.extremal_g(np.int64(10), 1.0),
        family.linear_form(np.int64(3), 2.0, 2.0),
        family.explicit(np.int64(2), {(1, 0): 0.5}),
    ]:
        back = family.from_json(family.to_json(f))
        assert type(f.dimension) is int and type(back.dimension) is int
        assert back.dimension == f.dimension
        assert back.entries == f.entries
        assert back.tail == f.tail
        assert back.sup_norm_certified == f.sup_norm_certified
        assert family.to_json(back) == family.to_json(f)
    doc = json.loads(family.to_json(family.moebius(0.37)))
    del doc["sup_norm_certified"]
    assert family.from_json(json.dumps(doc)).sup_norm_certified is False
    doc["tail"]["kind"] = "other"
    with pytest.raises(ParameterError):
        family.from_json(json.dumps(doc))


REPEATED_INDEX = '{"dimension": 1, "truncation_degree": 1, "entries": [[[1], 0.5], [[1], 0.9]]}'


@pytest.mark.parametrize(
    "make",
    [
        lambda: family.CoefficientFamily(2.0, {(1, 0): 0.5}, 1),
        lambda: family.CoefficientFamily(True, {(1,): 0.5}, 1),
        lambda: family.CoefficientFamily(1, {}, 2.5, tail=family.AnalyticTail(0.3)),
        lambda: family.CoefficientFamily(1, {}, False),
        lambda: family.CoefficientFamily(1, {(1,): 0.5}, 1, sup_norm_certified="no"),
        lambda: family.CoefficientFamily(1, {(1,): 0.5}, 1, sup_norm_certified=1),
        lambda: family.from_json(REPEATED_INDEX),
        lambda: family.extremal_g(2.5, 1.0),
        lambda: family.linear_form(2.5, 2.0, 2.0),
        lambda: family.linear_form(True, 2.0, 2.0),
        lambda: bounds.CertificateInput(2.5, 1.0, 2.0, 1.0),
        lambda: bounds.witness_upper_linear_form(2.5, 1.0, 2.0, 2.0),
        lambda: family.CoefficientFamily(2, {(True, 0): 0.5}, 1),
        lambda: multinomial_weight((True, 1)),
        lambda: exact_h2_radius(2.5, 1.0),
        lambda: exact_h2_radius(True, 1.0),
        lambda: h2_defining_residual(2.5, 1.0, 0.3),
        lambda: h2_defining_residual(True, 1.0, 0.3),
        lambda: asymptotics.sweep(lambda n: 1.0, [2.5]),
        lambda: asymptotics.sweep(lambda n: 1.0, [True]),
    ],
    ids=[
        "float-dimension",
        "bool-dimension",
        "float-truncation",
        "bool-truncation",
        "str-certified",
        "int-certified",
        "repeated-index",
        "extremal-g",
        "linear-form",
        "linear-form-bool",
        "certificate",
        "witness",
        "bool-index-part",
        "bool-index-part-weight",
        "exact-h2",
        "exact-h2-bool",
        "h2-residual",
        "h2-residual-bool",
        "sweep",
        "sweep-bool",
    ],
)
def test_sizes_must_be_integers_and_flags_bools(make):
    # the multi-index rule: an integer that is not a bool; a float or a
    # bool either crashed later or was used as a size or a flag
    with pytest.raises(ParameterError):
        make()


def test_validation():
    with pytest.raises(ParameterError):
        family.moebius(1.5)
    with pytest.raises(ParameterError):
        family.extremal_g(1, 2.5)
    with pytest.raises(ParameterError):
        family.CoefficientFamily(dimension=2, entries={(1,): 1.0}, truncation_degree=1)
    with pytest.raises(ParameterError):
        family.CoefficientFamily(dimension=1, entries={(1,): -1.0}, truncation_degree=1)
    for value in [math.nan, math.inf, -math.inf]:
        with pytest.raises(ParameterError):
            family.CoefficientFamily(dimension=1, entries={(1,): value}, truncation_degree=1)
    with pytest.raises(ParameterError):
        family.AnalyticTail(parameter=1.0)
