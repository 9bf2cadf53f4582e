import gc
import math
import tracemalloc

import numpy as np
import pytest

from bohrlab import multiindex
from bohrlab.errors import CapacityError, ParameterError
from bohrlab.family import normalized_monomial
from bohrlab.multiindex import (
    count,
    count_and_bound,
    enumerate_degree,
    multinomial_identity_residual,
    multinomial_weight,
)
from oracles import loop_identity_residual, random_sparse_family, recursive_enumeration


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


REFERENCE_PAIRS = (
    [(n, k) for n in range(1, 9) for k in range(11)]
    + [(1, k) for k in (50, 1000)]
    + [(2, 255), (2, 256), (3, 300)]
)


def test_enumerate_matches_recursive_reference():
    for n, k in REFERENCE_PAIRS:
        rows = enumerate_degree(n, k)
        assert rows == recursive_enumeration(n, k), (n, k)
        assert type(rows) is list
        assert all(type(row) is tuple for row in rows)
        assert all(type(a) is int for row in rows for a in row), (n, k)


@pytest.mark.parametrize("n, k", [(2, 127), (2, 128), (2, 32767), (2, 32768), (3, 127), (3, 128)])
def test_enumerate_at_part_dtype_boundaries(n, k):
    # parts are listed as int8 up to k = 127 and int16 up to k = 32767
    rows = enumerate_degree(n, k)
    assert rows == recursive_enumeration(n, k)
    assert all(type(a) is int for row in rows for a in row)


@pytest.mark.parametrize("k", [2**63 - 1, 2**63, 2**64])
def test_enumerate_one_variable_at_any_degree(k):
    # 2**63 and up have no numpy integer type; the one index is listed anyway
    rows = enumerate_degree(1, k)
    assert rows == [(k,)] and type(rows[0][0]) is int


def test_enumerate_accepts_numpy_integers():
    rows = enumerate_degree(np.int64(3), np.int64(2))
    assert rows == enumerate_degree(3, 2)
    assert all(type(a) is int for row in rows for a in row)
    assert count(np.int64(3), np.int64(2)) == 6


@pytest.mark.parametrize("call", [count, enumerate_degree, count_and_bound])
@pytest.mark.parametrize("n, k", [(True, 3), (2, True), (2.0, 3), (2, 3.0), (np.True_, 3), ("2", 3)])
def test_degree_functions_refuse_non_integer_arguments(call, n, k):
    # a bool n once became a numpy boolean mask and listed [(0,)]
    with pytest.raises(ParameterError):
        call(n, k)


@pytest.mark.parametrize("k", [True, 2.0, np.float64(2.0)])
def test_multinomial_identity_refuses_non_integer_degree(k):
    with pytest.raises(ParameterError):
        multinomial_identity_residual((1.0, 2.0), k)


def test_enumerate_largest_acceptance_listing():
    rows = enumerate_degree(14, 9)
    assert len(rows) == count(14, 9) == 497_420
    assert rows[0] == (9,) + (0,) * 13
    assert rows[1] == (8, 1) + (0,) * 12
    assert rows[-2] == (0,) * 12 + (1, 8)
    assert rows[-1] == (0,) * 13 + (9,)


def test_rows_feed_validate_monomials_and_the_seeded_pool():
    for alpha in enumerate_degree(3, 4):
        multiindex.validate(alpha)
        assert normalized_monomial(alpha, 2.0).entries.keys() == {alpha}
    # the pool random_sparse_family draws from, built by the reference
    rng = np.random.default_rng(11)
    pool = [a for k in range(1, 4) for a in recursive_enumeration(3, k)]
    idx = rng.choice(len(pool), size=6, replace=False)
    expected = {pool[i]: float(rng.uniform(0.1, 1.5)) for i in idx}
    assert random_sparse_family(np.random.default_rng(11), 3, 3, 6).entries == expected


def test_enumerate_peak_memory_stays_near_its_result():
    # (14, 9) is the largest listing acceptance criterion 9 and the
    # benchmark make
    for n, k in [(12, 8), (14, 9)]:
        tracemalloc.start()
        try:
            rows = enumerate_degree(n, k)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == count(n, k)
        # current is (nearly all) the listing itself; chunks are bounded
        assert peak - current < 2 * 2**20, (n, k)
        del rows


def test_enumerate_leaves_nothing_for_the_collector():
    # with the collector off, a listing must free all it built when it
    # returns; a reference cycle would keep its table and ends (0.8 MB
    # here).  Up to 0.14 MB of freed 2-tuples stay on the tuple free list.
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        del enumerate_degree(2, 102_673)[:]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before < 2**19


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


def test_multinomial_identity_matches_per_row_loop():
    rng = np.random.default_rng(77)
    for n in range(1, 6):
        for k in range(1, 13):
            for _ in range(3):
                x = tuple(float(v) for v in rng.uniform(0.0, 2.0, size=n))
                got = multinomial_identity_residual(x, k)
                # both sides are relative to max(1, (sum x)^k)
                assert abs(got - loop_identity_residual(x, k)) <= 1e-14, (x, k)


def test_multinomial_identity_at_part_dtype_boundary():
    # k = 127 lists int8 parts, k = 128 int16 parts
    for k in (127, 128):
        for x in [(0.25, 0.75), (0.6, 0.9)]:
            got = multinomial_identity_residual(x, k)
            assert abs(got - loop_identity_residual(x, k)) <= 1e-13, (x, k)


def test_multinomial_identity_large_degree():
    # 200! overflows a float; the weights C(200, j) do not
    for x in [(0.25, 0.75), (0.6, 0.9)]:
        got = multinomial_identity_residual(x, 200)
        assert got <= 1e-13
        assert abs(got - loop_identity_residual(x, 200)) <= 1e-13
    # C(1100, 550) exceeds the float range, as the per-row loop found too,
    # and so does 3^700 on the right-hand side; both are typed errors
    with pytest.raises(ParameterError, match="multinomial weight of degree 1100"):
        multinomial_identity_residual((0.5, 0.5), 1100)
    with pytest.raises(ParameterError, match=r"\(sum x_i\)\^700"):
        multinomial_identity_residual((1.5, 1.5), 700)


@pytest.mark.parametrize("x", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf], [1.0, -0.5]])
def test_multinomial_identity_rejects_bad_entries(x):
    with pytest.raises(ParameterError):
        multinomial_identity_residual(x, 3)


def test_multinomial_identity_capacity_cap(monkeypatch):
    monkeypatch.setattr(multiindex, "ENUMERATION_CAP", 10)
    with pytest.raises(CapacityError):
        multinomial_identity_residual((1.0, 1.0, 1.0, 1.0), 4)


def test_multinomial_identity_refuses_large_tables_before_building_them(monkeypatch):
    def no_tables(k):
        raise AssertionError(f"factorial table of degree {k} built")

    monkeypatch.setattr(multiindex, "_factorials", no_tables)
    cap = multiindex.ENUMERATION_CAP
    # the power table alone over the cap (n = 1 lists one index at any k),
    # then the count over the cap with a small table
    for x, k in [([1.0], 2**63), ([1.0], cap), ([0.5, 0.5], cap // 2), ([0.1] * 3, 20_000)]:
        with pytest.raises(CapacityError):
            multinomial_identity_residual(x, k)


def test_multinomial_identity_random():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        x = tuple(float(v) for v in rng.uniform(0.0, 2.0, size=n))
        assert multinomial_identity_residual(x, k) <= 1e-12
