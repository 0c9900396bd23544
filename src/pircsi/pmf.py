"""Exact distributions behind both retrieval protocols.

Everything here is computed with rational arithmetic (fractions.Fraction);
floating point never enters.  The partition-based protocol draws one of at
most three repeat classes (s, r): s indices repeated from the
side-information support and r repeated from the rest of the database.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf, lcm
from random import Random

from .errors import ParameterError
from .model import MODEL_I, check_cell


def partition_rounds(K: int, M: int) -> tuple[int, int]:
    """Number of query sets n = ceil(K / (M+1)) and slack l = (M+1)n - K."""
    if not 0 <= M < K:
        raise ParameterError(f"need 0 <= M < K, got M={M}, K={K}")
    n = -(-K // (M + 1))
    return n, (M + 1) * n - K


@dataclass(frozen=True)
class RpDistribution:
    """Repeat-class pmf for one (K, M) cell of the partition protocol.

    table maps each class (s, r) to its exact mass: s repeated indices come
    from the side-information support and r from outside the demand set.
    """

    K: int
    M: int
    n: int
    l: int
    table: dict

    @cached_property
    def cdf(self) -> "Cdf":
        """The table, ready to draw a class from; built on first use."""
        return Cdf.of(self.table)


@lru_cache(maxsize=None)
def rp_distribution(K: int, M: int) -> RpDistribution:
    """Exact repeat-class pmf for the partition protocol at (K, M).

    The l repeats sit in one pair of sets.  Either the demand set is in the
    pair, repeating W and l-1 support indices (weight l) or l support indices
    (weight 2(M+1-l)), or two cover sets share l outside indices (weight
    (n-2)(M+1)).  The weights sum to K; classes of weight 0 are dropped.
    """
    n, l = partition_rounds(K, M)
    if l == 0:
        # No repeats: the only class is (0, 0) with certainty.
        return RpDistribution(K, M, n, l, {(0, 0): Fraction(1)})
    weights = {(l - 1, 0): l, (l, 0): 2 * (M + 1 - l), (0, l): (n - 2) * (M + 1)}
    table = {sr: Fraction(w, K) for sr, w in sorted(weights.items()) if w}
    return RpDistribution(K, M, n, l, table)


def case2_pmf(K: int, M: int) -> dict:
    """Draw pmf for the two-disjoint-set protocol case (3 <= M <= K/2): the
    number of cover indices taken from outside the support is M-2 (the demand
    joins the cover set) or M-1 (it does not)."""
    if not (3 <= M and 2 * M <= K):
        raise ParameterError(f"case 2 needs 3 <= M <= K/2, got M={M}, K={K}")
    low = Fraction(2 * (M - 1), K)
    return {M - 2: low, M - 1: 1 - low}


def case3_pmf(K: int, M: int) -> dict:
    """Draw pmf for the two-overlapping-set protocol case (K/2 < M <= K-1):
    the number of support indices repeated into the cover set is 2M-K-1 (the
    demand joins the cover set) or 2M-K (it does not)."""
    if not (2 <= M <= K - 1 and 2 * M > K):
        raise ParameterError(f"case 3 needs K/2 < M <= K-1, got M={M}, K={K}")
    high = Fraction(2 * (K - M), K)
    return {2 * M - K - 1: 1 - high, 2 * M - K: high}


def capacity(model: str, K: int, M: int):
    """Best achievable rate: messages recovered per downloaded element.

    Model I: 1/ceil(K/(M+1)).  Model II: unbounded when M == 1 (the side
    information already pins down X_W), 1 when M == 2 or M == K, else 1/2.
    """
    if K < 1:
        raise ParameterError(f"K must be positive, got {K}")
    check_cell(K, M, model)
    if model == MODEL_I:
        n, _ = partition_rounds(K, M)
        return Fraction(1, n)
    if M == 1:
        return inf
    if M == 2 or M == K:
        return Fraction(1)
    return Fraction(1, 2)


@dataclass(frozen=True)
class Cdf:
    """A pmf ready for exact inverse-CDF draws: its outcomes in sorted order,
    and their cumulative masses as numerators over the common denominator.
    A uniform integer u below the denominator draws the first outcome whose
    cumulative numerator exceeds u, as sample_from_pmf does."""

    denom: int
    cumulative: tuple[int, ...]
    outcomes: tuple

    @classmethod
    def of(cls, table: dict) -> "Cdf":
        items = sorted(table.items())
        if not items:
            raise ParameterError("cannot sample from an empty pmf")
        denom = lcm(*(p.denominator for _, p in items))
        cumulative, acc = [], 0
        for _, p in items:
            acc += p.numerator * (denom // p.denominator)
            cumulative.append(acc)
        if acc != denom:
            raise ParameterError(f"pmf masses sum to {acc}/{denom}, not 1")
        return cls(denom, tuple(cumulative), tuple(outcome for outcome, _ in items))


def sample_from_pmf(table: dict, rng: Random):
    """Exact inverse-CDF draw: one uniform integer below the common
    denominator, compared against cumulative numerators.  Outcomes are walked
    in sorted order so a seeded generator replays identically."""
    items = sorted(table.items())
    if not items:
        raise ParameterError("cannot sample from an empty pmf")
    denom = lcm(*(p.denominator for _, p in items))
    draw = rng.randrange(denom)
    acc = 0
    for outcome, p in items:
        acc += p.numerator * (denom // p.denominator)
        if draw < acc:
            return outcome
    raise ParameterError(f"pmf masses sum to {acc}/{denom}, not 1")
