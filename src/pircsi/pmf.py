"""Exact distributions behind both retrieval protocols.

Everything here is computed with rational arithmetic (fractions.Fraction);
floating point never enters.  The central object for the partition-based
protocol is the pmf over "duplicate classes" (s, r): s indices repeated from
the side-information support and r repeated from the rest of the database.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, inf, lcm
from random import Random

from .errors import ParameterError
from .model import MODEL_I, MODEL_II


def partition_rounds(K: int, M: int) -> tuple[int, int]:
    """Number of query sets n = ceil(K / (M+1)) and slack l = (M+1)n - K."""
    if not 0 <= M < K:
        raise ParameterError(f"need 0 <= M < K, got M={M}, K={K}")
    n = -(-K // (M + 1))
    return n, (M + 1) * n - K


@dataclass(frozen=True)
class RpDistribution:
    """Duplicate-class pmf for one (K, M) cell of the partition protocol.

    table maps (s, r) to its exact mass; P is the normalizing constant shared
    by every mass.
    """

    K: int
    M: int
    n: int
    l: int
    table: dict
    P: Fraction

    def realizable_table(self) -> dict:
        """Classes the builder can actually complete.

        With exactly two query sets every repeated index must be shared
        between them, so classes with r > 0 cannot be realized; the builder
        redraws those and the conditional distribution renormalizes over
        r == 0.  All other shapes keep the full table.
        """
        if self.n != 2:
            return dict(self.table)
        kept = {sr: p for sr, p in self.table.items() if sr[1] == 0}
        total = sum(kept.values())
        return {sr: p / total for sr, p in kept.items()}

    @cached_property
    def cdf(self) -> "Cdf":
        """The table, ready to draw a class from; built on first use."""
        return Cdf.of(self.table)


def _alpha(K: int, M: int, n: int, r: int) -> Fraction:
    if n <= 2:
        return Fraction(1)
    num = factorial((M + 1) * (n - 1) - 2 * r) * factorial(M + 1) ** 2
    den = factorial((M + 1) * (n - 1)) * factorial(M - r + 1) ** 2
    return Fraction(num, den)


@lru_cache(maxsize=None)
def rp_distribution(K: int, M: int) -> RpDistribution:
    """Exact duplicate-class pmf for the partition protocol at (K, M)."""
    n, l = partition_rounds(K, M)
    r_cap = K - M - 1
    if l == 0:
        # No repeats: the only class is (0, 0) with certainty.
        return RpDistribution(K, M, n, l, {(0, 0): Fraction(1)}, Fraction(1))
    weights = {}
    for total in (l - 1, l):
        for s in range(0, min(M, total) + 1):
            r = total - s
            if r < 0 or r > r_cap or r > l:
                continue
            beta = Fraction(comb(M, s) * comb(r_cap, r), comb(M, l - 1))
            if beta == 0:
                continue
            factor = 2 if total == l else 1
            weights[(s, r)] = factor * _alpha(K, M, n, r) * beta
    P = 1 / sum(weights.values())
    table = {sr: w * P for sr, w in sorted(weights.items())}
    return RpDistribution(K, M, n, l, table, P)


def partition_prob(K: int, M: int, r: int) -> Fraction:
    """Completion weight of one specific family of non-demand sets, given that
    r repeated indices fall outside the demand set.

    Counts completions up to swapping the two sets that carry those shared
    indices and permuting the tail sets.  With fewer than three sets there is
    nothing to arrange and the weight is 1.
    """
    n, l = partition_rounds(K, M)
    if not 0 <= r <= l:
        raise ParameterError(f"r must lie in [0, {l}], got {r}")
    if n < 3:
        return Fraction(1)
    num = 2 * factorial(n - 3) * factorial(M - r + 1) ** 2 * factorial(M + 1) ** (n - 3)
    return Fraction(num, factorial((M + 1) * (n - 1) - 2 * r))


def class_weight(K: int, M: int, s: int, r: int) -> Fraction:
    """Weight of one fully specified query realization under one hypothesized
    scenario whose duplicate class is (s, r): the class mass spread uniformly
    over the draws that produce it and over the support prior, times the
    completion weight."""
    n, l = partition_rounds(K, M)
    r_cap = K - M - 1
    if not (0 <= s <= M and 0 <= r <= r_cap and l - 1 <= s + r <= l):
        raise ParameterError(f"class ({s}, {r}) is outside the realizable range")
    dist = rp_distribution(K, M)
    mass = dist.table.get((s, r), Fraction(0))
    return mass / (comb(M, s) * comb(r_cap, r) * comb(K - 1, M)) * partition_prob(K, M, r)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the class-weight balance check for one (K, M) cell."""

    K: int
    M: int
    passed: bool
    checked: int
    counterexample: tuple | None


def check_class_weight_identities(K: int, M: int) -> IdentityReport:
    """Exhaustively verify the balance conditions that make posteriors flat:

    * every pair of classes summing to l-1 has the same combined weight,
    * every class summing to l has the same weight,
    * each l-diagonal weight equals each pair sum from the (l-1)-diagonal.
    """
    n, l = partition_rounds(K, M)
    r_cap = K - M - 1
    lo = [
        (s, l - 1 - s)
        for s in range(0, min(M, l - 1) + 1)
        if 0 <= l - 1 - s <= r_cap
    ]
    hi = [(s, l - s) for s in range(0, min(M, l) + 1) if 0 <= l - s <= r_cap]
    f = {sr: class_weight(K, M, *sr) for sr in lo + hi}
    checked = 0
    # Constant combined weight across every ordered pair on the low diagonal.
    if lo:
        ref_lo = f[lo[0]] + f[lo[0]]
        for a in lo:
            for b in lo:
                checked += 1
                if f[a] + f[b] != ref_lo:
                    return IdentityReport(K, M, False, checked, (a, b))
    # Constant weight across the high diagonal.
    ref_hi = f[hi[0]]
    for c in hi:
        checked += 1
        if f[c] != ref_hi:
            return IdentityReport(K, M, False, checked, (hi[0], c))
    # The two levels agree: any low pair sum equals any high value.
    if lo:
        for a in lo:
            for b in lo:
                for c in hi:
                    checked += 1
                    if f[a] + f[b] != f[c]:
                        return IdentityReport(K, M, False, checked, (a, b, c))
    return IdentityReport(K, M, True, checked, None)


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
    if model == MODEL_I:
        n, _ = partition_rounds(K, M)
        return Fraction(1, n)
    if model == MODEL_II:
        if not 1 <= M <= K:
            raise ParameterError(f"model II needs 1 <= M <= K, got M={M}, K={K}")
        if M == 1:
            return inf
        if M == 2 or M == K:
            return Fraction(1)
        return Fraction(1, 2)
    raise ParameterError(f"unknown model {model!r}")


@dataclass(frozen=True)
class Cdf:
    """A pmf ready for exact inverse-CDF draws: its outcomes in sorted order,
    and their cumulative masses as numerators over the common denominator.
    draw(rng) returns what sample_from_pmf(table, rng) would, and consumes
    the generator the same way, without sorting the table each time."""

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

    def draw(self, rng: Random):
        """One uniform integer below the denominator picks the first outcome
        whose cumulative numerator exceeds it."""
        return self.outcomes[bisect_right(self.cumulative, rng.randrange(self.denom))]


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
