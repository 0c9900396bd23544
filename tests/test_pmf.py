"""Class pmfs, cover-case pmfs, and capacity values against hand derivations.

Every frozen rational below was computed by hand from the counting formulas;
the tests are the record of those derivations.
"""
from bisect import bisect_right
from fractions import Fraction
from math import inf
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pircsi import MODEL_I, MODEL_II, ParameterError, capacity
from pircsi.pmf import (
    Cdf,
    case2_pmf,
    case3_pmf,
    partition_rounds,
    rp_distribution,
    sample_from_pmf,
)

from conftest import count_bound

F = Fraction


def test_partition_rounds_frozen():
    assert partition_rounds(2, 0) == (2, 0)
    assert partition_rounds(3, 2) == (1, 0)
    assert partition_rounds(4, 1) == (2, 0)
    assert partition_rounds(5, 1) == (3, 1)
    assert partition_rounds(5, 2) == (2, 1)
    assert partition_rounds(7, 1) == (4, 1)
    assert partition_rounds(12, 3) == (3, 0)
    with pytest.raises(ParameterError):
        partition_rounds(3, 3)
    with pytest.raises(ParameterError):
        partition_rounds(3, -1)


def test_class_pmf_k5_m1():
    # n = 3, l = 1: repeat the demand (weight l = 1), one support index
    # (2(M+1-l) = 2) or one outside index shared by the cover sets
    # ((n-2)(M+1) = 2), over K = 5.
    dist = rp_distribution(5, 1)
    assert dist.table == {(0, 0): F(1, 5), (1, 0): F(2, 5), (0, 1): F(2, 5)}
    assert dist.n == 3 and dist.l == 1


def test_class_pmf_k4_m2():
    # n = 2, l = 2: W and one support index (weight 2) or two support indices
    # (weight 2); two sets leave no cover pair for outside repeats.
    dist = rp_distribution(4, 2)
    assert dist.table == {(1, 0): F(1, 2), (2, 0): F(1, 2)}


def test_class_pmf_k5_m2():
    dist = rp_distribution(5, 2)
    assert dist.table == {(0, 0): F(1, 5), (1, 0): F(4, 5)}


def test_class_pmf_point_mass_when_no_duplicates():
    dist = rp_distribution(4, 1)
    assert dist.table == {(0, 0): F(1)}


@pytest.mark.parametrize("K", range(2, 13))
def test_distributions_normalize_exactly(K):
    for M in range(0, K):
        dist = rp_distribution(K, M)
        assert sum(dist.table.values()) == 1
        assert all(p > 0 for p in dist.table.values())
    for M in range(3, K // 2 + 1):
        assert sum(case2_pmf(K, M).values()) == 1
    for M in range(K // 2 + 1, K):
        if M >= 2:
            assert sum(case3_pmf(K, M).values()) == 1


def test_case2_pmf_frozen():
    # smaller cover (demand included) with probability 2(M-1)/K
    assert case2_pmf(8, 3) == {1: F(1, 2), 2: F(1, 2)}
    assert case2_pmf(6, 3) == {1: F(2, 3), 2: F(1, 3)}
    assert case2_pmf(10, 4) == {2: F(3, 5), 3: F(2, 5)}
    with pytest.raises(ParameterError):
        case2_pmf(5, 3)  # needs 2M <= K
    with pytest.raises(ParameterError):
        case2_pmf(8, 2)  # needs M >= 3


def test_case3_pmf_frozen():
    # larger overlap with probability 2(K-M)/K
    assert case3_pmf(5, 3) == {0: F(1, 5), 1: F(4, 5)}
    assert case3_pmf(5, 4) == {2: F(3, 5), 3: F(2, 5)}
    assert case3_pmf(7, 4) == {0: F(1, 7), 1: F(6, 7)}
    with pytest.raises(ParameterError):
        case3_pmf(8, 3)  # needs 2M > K
    with pytest.raises(ParameterError):
        case3_pmf(5, 5)  # needs M <= K-1


def test_capacity_frozen():
    assert capacity(MODEL_I, 2, 0) == F(1, 2)
    assert capacity(MODEL_I, 5, 1) == F(1, 3)
    assert capacity(MODEL_I, 8, 2) == F(1, 3)
    assert capacity(MODEL_I, 12, 11) == F(1)
    assert capacity(MODEL_II, 5, 1) == inf
    assert capacity(MODEL_II, 2, 2) == F(1)
    assert capacity(MODEL_II, 5, 2) == F(1)
    assert capacity(MODEL_II, 5, 3) == F(1, 2)
    assert capacity(MODEL_II, 5, 4) == F(1, 2)
    assert capacity(MODEL_II, 5, 5) == F(1)
    with pytest.raises(ParameterError):
        capacity(MODEL_II, 5, 0)
    with pytest.raises(ParameterError):
        capacity("III", 5, 1)


class _ScriptedRng:
    """Feeds fixed randrange draws and checks the requested span."""

    def __init__(self, span, values):
        self.span = span
        self.values = list(values)

    def randrange(self, n):
        assert n == self.span
        return self.values.pop(0)


def test_sample_from_pmf_walks_the_exact_cdf():
    table = {(0, 0): F(1, 5), (0, 1): F(2, 5), (1, 0): F(2, 5)}
    # lcm of denominators is 5; keys in sorted order get numerator spans
    # [0,1), [1,3), [3,5)
    rng = _ScriptedRng(5, [0, 1, 2, 3, 4])
    draws = [sample_from_pmf(table, rng) for _ in range(5)]
    assert draws == [(0, 0), (0, 1), (0, 1), (1, 0), (1, 0)]


@pytest.mark.parametrize(
    "table",
    [
        rp_distribution(5, 1).table,
        rp_distribution(8, 2).table,
        rp_distribution(13, 3).table,
        case2_pmf(10, 4),
        case3_pmf(12, 7),
        {(0, 0): F(1, 5), (0, 1): F(0), (1, 0): F(4, 5)},
    ],
)
def test_cdf_draws_what_sample_from_pmf_draws(table):
    # sample_from_pmf is the reference: every uniform integer below the
    # denominator picks the same outcome from the cumulative masses, by the
    # scalar bisection and by the batch search that RandomDraws.choose runs.
    cdf = Cdf.of(table)
    units = range(cdf.denom)
    reference = [sample_from_pmf(table, _ScriptedRng(cdf.denom, [u])) for u in units]
    assert [cdf.outcomes[bisect_right(cdf.cumulative, u)] for u in units] == reference
    batch = np.searchsorted(cdf.cumulative, np.arange(cdf.denom), side="right")
    assert [cdf.outcomes[k] for k in batch.tolist()] == reference


def test_cdf_refuses_tables_that_are_not_pmfs():
    with pytest.raises(ParameterError, match="empty pmf"):
        Cdf.of({})
    with pytest.raises(ParameterError, match="sum to 3/4"):
        Cdf.of({0: F(1, 4), 1: F(1, 2)})


def test_each_distribution_builds_its_cdf_once():
    dist = rp_distribution(9, 1)
    assert dist.cdf is dist.cdf
    assert dist.cdf == Cdf.of(dist.table)


def test_sample_from_pmf_statistics():
    table = case3_pmf(5, 3)
    rng = Random(17)
    trials = 20_000
    hits = sum(sample_from_pmf(table, rng) == 1 for _ in range(trials))
    assert abs(hits - trials * 0.8) < count_bound(trials, 0.8)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.data())
def test_property_rp_distribution_support(K, data):
    M = data.draw(st.integers(0, K - 1))
    dist = rp_distribution(K, M)
    n, l = partition_rounds(K, M)
    assert sum(dist.table.values()) == 1
    for (s, r), p in dist.table.items():
        assert 0 < p <= 1 and (p * K).denominator == 1
        assert 0 <= s <= M and 0 <= r <= K - M - 1
        assert l == 0 or (s, r) in {(l - 1, 0), (l, 0), (0, l)}
    if l == 0:
        assert dist.table == {(0, 0): F(1)}
