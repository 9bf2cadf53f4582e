import math

import numpy as np
import pytest

from bohrlab import multiindex
from bohrlab.errors import CapacityError, ParameterError
from bohrlab.multiindex import (
    count,
    count_and_bound,
    enumerate_degree,
    multinomial_identity_residual,
    multinomial_weight,
)


def test_enumerate_small_cases():
    assert enumerate_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_degree(1, 5) == [(5,)]
    assert len(enumerate_degree(3, 2)) == 6


def test_enumerate_matches_brute_force():
    # oracle: all 3-tuples with entries <= 2 summing to 2
    brute = sorted(
        {(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c == 2},
        reverse=True,
    )
    assert enumerate_degree(3, 2) == brute


def test_enumerate_order_and_uniqueness():
    for n, k in [(2, 5), (4, 3), (3, 6)]:
        seq = enumerate_degree(n, k)
        assert len(set(seq)) == len(seq) == count(n, k)
        assert all(sum(a) == k for a in seq)
        assert seq == sorted(seq, reverse=True)


def test_enumerate_capacity_cap(monkeypatch):
    with pytest.raises(CapacityError):
        enumerate_degree(30, 30)
    monkeypatch.setattr(multiindex, "ENUMERATION_CAP", 10)
    with pytest.raises(CapacityError):
        enumerate_degree(4, 4)


def test_multinomial_weight_values():
    assert multinomial_weight((1, 1)) == 2
    assert multinomial_weight((2, 0)) == 1
    # 4!/(2! 1! 1!) by direct factorial evaluation
    assert multinomial_weight((2, 1, 1)) == math.factorial(4) // (2 * 1 * 1)
    with pytest.raises(ParameterError):
        multinomial_weight((1, -1))


def test_multinomial_sum_is_power():
    for n in range(1, 9):
        for k in range(1, 9):
            total = sum(multinomial_weight(a) for a in enumerate_degree(n, k))
            assert total == n**k


def test_count_and_bound_examples():
    c, ok = count_and_bound(3, 2)
    assert c == 6 and ok
    assert math.e**2 * (1 + 3 / 2) ** 2 > 6
    assert count_and_bound(1, 7) == (1, True)
    assert count_and_bound(2, 3) == (4, True)


def test_count_bound_chain_desk_scale():
    for n in range(1, 31):
        for k in range(1, 31):
            c, ok = count_and_bound(n, k)
            assert ok, (n, k)
            assert c == math.comb(n + k - 1, k)


def test_multinomial_identity_examples():
    assert multinomial_identity_residual((1.0, 2.0), 2) == 0.0
    assert multinomial_identity_residual((1.0,), 5) == 0.0
    assert multinomial_identity_residual((0.0, 0.0, 0.0), 3) == 0.0


def test_multinomial_identity_random():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        x = tuple(float(v) for v in rng.uniform(0.0, 2.0, size=n))
        assert multinomial_identity_residual(x, k) <= 1e-12
