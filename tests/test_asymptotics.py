import dataclasses
import math

import numpy as np
import pytest

from bohrlab.asymptotics import fit_exponent, h2_limit_check, sweep
from bohrlab.bounds import CertificateInput, certified_lower_bound
from bohrlab.errors import ParameterError, SweepError
from bohrlab.radius import exact_h2_radius


def test_sweep_basic():
    records = sweep(lambda n: exact_h2_radius(n, 1.0), [10**3, 10**4, 10**5, 10**6])
    assert len(records) == 4
    values = [rec.value for rec in records]
    assert values == sorted(values, reverse=True)


def test_sweep_order_independent():
    ns = [100, 10, 1000]
    a = sweep(lambda n: 1.0 / n, ns)
    b = sweep(lambda n: 1.0 / n, sorted(ns))
    assert [(r.n, r.value) for r in a] == [(r.n, r.value) for r in b]


def test_sweep_failure_carries_partial():
    def gen(n):
        if n > 10:
            raise ValueError("boom")
        return 1.0 / n

    with pytest.raises(SweepError) as err:
        sweep(gen, [5, 10, 20])
    assert len(err.value.partial) == 2


def test_sweep_lets_parameter_errors_through():
    # an out-of-range parameter is the caller's error, not a failure at one n
    with pytest.raises(ParameterError, match="only for p in") as err:
        sweep(lambda n: exact_h2_radius(n, 2.5), [10, 20])
    assert not isinstance(err.value, SweepError)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweep_refuses_a_non_finite_value(bad):
    with pytest.raises(SweepError) as err:
        sweep(lambda n: bad if n == 3 else 1.0 / n, [1, 2, 3, 4])
    assert [(rec.n, rec.value) for rec in err.value.partial] == [(1, 1.0), (2, 0.5)]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_refuses_a_non_finite_value(bad):
    records = sweep(lambda n: 1.0 / n, [10, 100, 1000])
    records[1] = dataclasses.replace(records[1], value=bad)
    with pytest.raises(ParameterError, match="positive and finite"):
        fit_exponent(records)


def test_fit_recovers_synthetic_power_law():
    rng = np.random.default_rng(3)
    for _ in range(20):
        beta = float(rng.uniform(-2, 2))
        c = float(rng.uniform(0.1, 5))
        records = sweep(lambda n: c * n**beta, [10, 100, 1000, 10000])
        fit = fit_exponent(records, model="power")
        assert fit.exponent == pytest.approx(beta, abs=1e-12)
        assert fit.constant == pytest.approx(c, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_log_power_model():
    gamma = -0.75
    records = sweep(lambda n: (math.log(n) / n) ** -gamma, [100, 1000, 10000, 100000])
    fit = fit_exponent(records, model="log_power")
    assert fit.exponent == pytest.approx(-gamma, abs=1e-12)


def test_fit_constant_data():
    records = sweep(lambda n: 1.0, [10, 100, 1000])
    fit = fit_exponent(records)
    assert fit.exponent == pytest.approx(0.0, abs=1e-15)
    assert fit.r_squared == 1.0


def test_fit_validation():
    records = sweep(lambda n: 1.0 / n, [10, 100])
    with pytest.raises(ParameterError):
        fit_exponent(records)
    with pytest.raises(ParameterError):
        fit_exponent(sweep(lambda n: 1.0 / n, [2, 3, 4]), model="weird")


def test_h2_radius_scaling_exponent():
    ns = [round(10**e) for e in np.arange(3.0, 6.01, 0.5)]
    for p in [0.5, 1.0, 1.5]:
        records = sweep(lambda n: exact_h2_radius(n, p), ns)
        fit = fit_exponent(records, model="power")
        assert fit.exponent == pytest.approx(-(1.0 / p - 0.5), abs=1e-3)


def test_certificate_sweep_is_exact_power_law():
    records = sweep(
        lambda n: certified_lower_bound(CertificateInput(n, 1.0, 2.0, 1.0)).value,
        [10, 100, 1000, 10000],
    )
    fit = fit_exponent(records, model="power")
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)


def test_limit_check():
    lhs, rhs, rel = h2_limit_check(1.0, 10**6)
    assert rhs == pytest.approx(math.sqrt(math.log(2.0)))
    assert rel < 1e-5
    lhs, _, rel = h2_limit_check(1.0, 1)
    assert lhs == pytest.approx(2**-0.5)
    assert rel == pytest.approx(0.15, abs=0.01)


def test_limit_check_monotone_in_n():
    for p in [0.5, 1.0, 1.5]:
        errs = [h2_limit_check(p, 10**e)[2] for e in range(2, 7)]
        assert all(b < a for a, b in zip(errs, errs[1:]))
