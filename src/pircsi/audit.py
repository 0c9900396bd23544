"""Privacy, recoverability, and rate verification.

The exact auditor enumerates every scenario and every branch of the query
builder with exact integer weights, then applies Bayes' rule per query
fingerprint: the protocol is private iff every posterior over demands is the
flat 1/K vector.  The Monte-Carlo auditor replaces enumeration with seeded
sampling and chi-square tests, which scales to cells the exact auditor
cannot touch and doubles as a defect detector via deliberately broken
builder variants.
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, inf, lcm
from operator import itemgetter
from random import Random

import numpy as np
from scipy.stats import chisquare

from .errors import AuditSizeError, ParameterError
from .field import FieldParams
from .model import MODEL_I, MODEL_II, Database, sample_demand, sample_scenario
from .pmf import capacity, case2_pmf, case3_pmf, rp_distribution
from .protocols import PROTOCOLS
from .protocol_csi2 import CASE_DISJOINT, CASE_OVERLAP, CASE_SINGLE, CASE_TRIVIAL, case_for
from .protocol_rp import fingerprint_of

DEFAULT_ROW_GUARD = 10_000_000

# Deliberately broken builder variants, keyed by what they break.  Each maps
# (K, M) to keyword arguments of the first-model builder.
MUTATIONS = {
    "unshuffled_sets": lambda K, M: {"_shuffle_order": False},
    "deterministic_extras": lambda K, M: {"_deterministic_extras": True},
    "skewed_class_pmf": lambda K, M: {
        "_class_pmf": {
            sr: Fraction(1, len(rp_distribution(K, M).table))
            for sr in rp_distribution(K, M).table
        }
    },
}


@dataclass(frozen=True)
class PosteriorReport:
    """Exact per-fingerprint demand posteriors for one (model, K, M) cell."""

    model: str
    K: int
    M: int
    posteriors: dict
    fingerprint_probs: dict
    uniform: bool
    worst_deviation: Fraction


@dataclass(frozen=True)
class Bin:
    """One Monte-Carlo bin and its sample count per demand W = 1..K.  family
    is "fingerprint" (key: the order-stripped sets) or "slot" (key: (index,
    position of the first set holding it, -1 if none))."""

    family: str
    key: tuple
    counts: tuple[int, ...]


@dataclass(frozen=True)
class MonteCarloReport:
    """Chi-square screening outcome for one cell (optionally mutated)."""

    model: str
    K: int
    M: int
    trials: int
    mutation: str | None
    passed: bool
    min_p: float
    tests: int
    skipped_bins: int
    significance: float
    worst_bin: Bin


@dataclass(frozen=True)
class RecoverabilityReport:
    model: str
    K: int
    M: int
    trials: int
    successes: int
    passed: bool


@dataclass(frozen=True)
class RateReport:
    model: str
    K: int
    M: int
    elements_downloaded: int
    measured_rate: object  # Fraction, or inf for the query-free case
    capacity: object
    matches_capacity: bool


def audit_exact(model: str, K: int, M: int, *, row_guard: int = DEFAULT_ROW_GUARD) -> PosteriorReport:
    """Enumerate all builder branches and return the exact posteriors.

    Raises AuditSizeError when the branch count exceeds row_guard; switch to
    audit_montecarlo for such cells.
    """
    if model == MODEL_I:
        rows, enumerate_cell = _rp_enumeration_size(K, M), _enumerate_rp
    elif model == MODEL_II:
        rows, enumerate_cell = _csi2_enumeration_size(K, M), _enumerate_csi2
    else:
        raise ParameterError(f"unknown model {model!r}")
    if rows > row_guard:
        raise AuditSizeError(f"exact enumeration needs {rows} rows (> {row_guard})")
    joint, D = enumerate_cell(K, M)

    flat = Fraction(1, K)
    posteriors, probs = {}, {}
    # The worst |x/total - 1/K| so far, as num/den: over a row it lies at the
    # row's min or max, and num/den = (K*x - total)/(K*total) stays integral.
    worst_num, worst_den = 0, 1
    mass = 0
    for fp in sorted(joint):
        row = joint[fp]
        total = sum(row)
        mass += total
        probs[fp] = Fraction(total, D)
        lo, hi = min(row), max(row)
        if lo * K == total == hi * K:
            posteriors[fp] = (flat,) * K
            continue
        posteriors[fp] = tuple(Fraction(x, total) for x in row)
        num, den = max(hi * K - total, total - lo * K), K * total
        if num * worst_den > worst_num * den:
            worst_num, worst_den = num, den
    if mass != D:
        raise AssertionError(f"branch weights sum to {mass}/{D}, not 1")
    uniform = worst_num == 0
    return PosteriorReport(model, K, M, posteriors, probs, uniform, Fraction(worst_num, worst_den))


def _rp_enumeration_size(K: int, M: int) -> int:
    """Branch count of the first-model builder at (K, M), each draw order
    counted apart: the size guard on exact cells.  The enumeration visits
    fewer rows, one per unordered filling."""
    dist = rp_distribution(K, M)
    n, l = dist.n, dist.l
    per_scenario = 0
    for (s, r) in dist.realizable_table():
        draws = comb(M, s) * comb(K - M - 1, r)
        if n == 1:
            completions = 1
        else:
            completions = comb((M + 1) * (n - 1) - 2 * r, M + 1 - r)
            if n >= 3:
                completions *= comb((M + 1) * (n - 2) - r, M + 1 - r)
                rest = (M + 1) * (n - 3)
                completions *= factorial(rest) // factorial(M + 1) ** (n - 3)
        per_scenario += draws * completions
    return comb(K, M) * (K - M) * per_scenario


def _enumerate_rp(K: int, M: int) -> tuple[dict, int]:
    """Every (fingerprint, demand) pair the first-model builder can produce,
    as integer weights over one common denominator D: the pair has
    probability joint[fingerprint][W - 1] / D."""
    dist = rp_distribution(K, M)
    n, l = dist.n, dist.l
    prior = Fraction(1, comb(K, M) * (K - M))
    # A duplicate class draws its repeats uniformly, and each filling of the
    # other sets from the pool they leave is equally likely; so one weight
    # per class covers every row.
    weights, layouts = {}, {}
    for (s, r), p_class in dist.realizable_table().items():
        pool_size = s + (s + r == l - 1) + K - M - 1 - r
        layouts[s, r] = _completion_layout(pool_size, M + 1 - r, M + 1, n)
        draws = comb(M, s) * comb(K - M - 1, r) * len(layouts[s, r])
        weights[s, r] = prior * p_class / draws
    weights, D = _on_common_denominator(weights)
    joint: dict = defaultdict(lambda: [0] * K)
    universe = range(1, K + 1)
    for S in combinations(universe, M):
        for W in universe:
            if W in S:
                continue
            outside = tuple(i for i in universe if i != W and i not in S)
            demand_set = tuple(sorted((W,) + S))
            for (s, r), w in weights.items():
                extra = (W,) if s + r == l - 1 else ()
                for sub_s in combinations(S, s):
                    for shared in combinations(outside, r):
                        # The sorted pool the non-demand sets are filled from;
                        # the shared outside repeats join the second and third.
                        unshared = tuple(i for i in outside if i not in shared)
                        pool = tuple(sorted(sub_s + extra + unshared))
                        for entry in layouts[s, r]:
                            sets = [get(pool) for get in entry]
                            if r:
                                sets[0] = tuple(sorted(shared + sets[0]))
                                sets[1] = tuple(sorted(shared + sets[1]))
                            sets.append(demand_set)
                            sets.sort()
                            joint[tuple(sets)][W - 1] += w
    return dict(joint), D


def _on_common_denominator(weights: dict) -> tuple[dict, int]:
    """Fraction weights as integers over their least common denominator D."""
    D = lcm(*(w.denominator for w in weights.values()))
    return {b: w.numerator * (D // w.denominator) for b, w in weights.items()}, D


def _completion_layout(pool: int, fresh: int, size: int, n: int) -> list[tuple]:
    """The ways to fill the n - 1 non-demand sets from a sorted pool of `pool`
    indices, each as one getter per set.  The second and third sets come
    first and take `fresh` indices each (plus the shared repeats); the tail
    sets take `size`.  Each filling is listed once, whatever order the builder
    drew its sets in: the fingerprint sorts the sets, and every filling has
    equally many orders."""
    sizes = (fresh,) * min(n - 1, 2) + (size,) * (n - 3)
    return [tuple(map(_getter, sorted(split, key=len))) for split in _splits(pool, sizes)]


def _splits(length: int, sizes: tuple) -> list[tuple]:
    """Every split of positions 0..length-1 into ascending blocks of the given
    sizes, blocks of one size unordered: the block holding position 0 takes
    each size and each choice of mates once, and the rest splits the same way."""
    if not sizes:
        return [()]
    splits = []
    for size in sorted(set(sizes)):
        left_sizes = list(sizes)
        left_sizes.remove(size)
        for mates in combinations(range(1, length), size - 1):
            left = [p for p in range(1, length) if p not in mates]
            for split in _splits(len(left), tuple(left_sizes)):
                splits.append(((0, *mates), *(tuple(left[p] for p in b) for b in split)))
    return splits


def _getter(positions: tuple):
    # itemgetter of one position returns a bare item; a slice keeps a tuple.
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def _csi2_branches(K: int, M: int) -> dict:
    """The outcomes the second-model builder draws at (K, M), each with its
    probability and the count of equally likely index draws that follow it:
    the probed index is the demand or not (single case), or the pmf outcome
    (disjoint and overlap cases).  The trivial and full cases have one."""
    if not 1 <= M <= K:
        raise ParameterError(f"model II needs 1 <= M <= K, got M={M}, K={K}")
    case = case_for(K, M)
    if case == CASE_SINGLE:
        return {True: (Fraction(1, K), 1), False: (Fraction(K - 1, K), 1)}
    if case == CASE_DISJOINT:
        return {r: (p, comb(K - M, r)) for r, p in case2_pmf(K, M).items()}
    if case == CASE_OVERLAP:
        return {s: (p, comb(M - 1, s)) for s, p in case3_pmf(K, M).items()}
    return {None: (Fraction(1), 1)}


def _csi2_enumeration_size(K: int, M: int) -> int:
    """Branch count of the second-model builder at (K, M): the size guard on
    exact cells, C(K, M) * M scenarios times the case's branches."""
    return comb(K, M) * M * sum(draws for _, draws in _csi2_branches(K, M).values())


def _enumerate_csi2(K: int, M: int) -> tuple[dict, int]:
    """The second model's (fingerprint, demand) pairs, as integer weights over
    one common denominator D, like _enumerate_rp."""
    case = case_for(K, M)
    prior = Fraction(1, comb(K, M) * M)
    # Each branch's weight: its outcome's probability, spread evenly over the
    # index draws that follow it.
    weights = {b: prior * p / draws for b, (p, draws) in _csi2_branches(K, M).items()}
    weights, D = _on_common_denominator(weights)
    joint: dict = defaultdict(lambda: [0] * K)
    universe = tuple(range(1, K + 1))
    for S in combinations(universe, M):
        outside = tuple(i for i in universe if i not in S)
        for W in S:
            column = W - 1
            others = tuple(i for i in S if i != W)
            if case == CASE_TRIVIAL:
                joint[()][column] += weights[None]
            elif case == CASE_SINGLE:
                joint[((W,),)][column] += weights[True]
                joint[(others,)][column] += weights[False]
            elif case == CASE_DISJOINT:
                for r, w in weights.items():
                    # r outside indices are drawn in both branches; the demand
                    # itself joins the cover set only in the smaller branch.
                    for sub in combinations(outside, r):
                        cover = sub if r == M - 1 else tuple(sorted((W,) + sub))
                        joint[tuple(sorted((others, cover)))][column] += w
            elif case == CASE_OVERLAP:
                for s, w in weights.items():
                    for sub in combinations(others, s):
                        core = sub if s == 2 * M - K else (W,) + sub
                        cover = tuple(sorted(core + outside))
                        joint[tuple(sorted((S, cover)))][column] += w
            else:  # CASE_FULL
                joint[(universe,)][column] += weights[None]
    return dict(joint), D


def audit_montecarlo(
    model: str,
    K: int,
    M: int,
    trials: int,
    rng: Random,
    *,
    params: FieldParams | None = None,
    mutation: str | None = None,
    significance: float = 0.01,
) -> MonteCarloReport:
    """Sample query structures and chi-square test "demand uniform given what
    the server sees" with a Bonferroni correction across all tested bins.

    Each trial draws (W, S) with sample_demand and the index sets with the
    model's draw_structure, the same code build_query runs.  No bin reads a
    coefficient, so none is drawn, and params (the field) cannot change the
    report.  Two bin families are tested: the order-stripped fingerprint, and
    for each database index the position of the transmitted set containing it.
    The second family is what exposes set-order leaks, which the
    order-stripped fingerprint is blind to by construction.  Bins too thin for
    the chi-square approximation (expected count below 5) are counted as
    skipped.
    """
    if mutation is not None:
        if model != MODEL_I:
            raise ParameterError("builder mutations only exist for the first model")
        if mutation not in MUTATIONS:
            raise ParameterError(f"unknown mutation {mutation!r}")
        build_kwargs = MUTATIONS[mutation](K, M)
    else:
        build_kwargs = {}
    if model not in PROTOCOLS:
        raise ParameterError(f"unknown model {model!r}")
    draw_structure = PROTOCOLS[model].draw_structure
    fp_bins: dict = defaultdict(lambda: [0] * K)
    slot_bins: dict = defaultdict(lambda: [0] * K)
    for _ in range(trials):
        W, S = sample_demand(K, M, model, rng)
        sets = draw_structure(W, S, K, rng, **build_kwargs).sets
        w = W - 1
        fp_bins[fingerprint_of(sets)][w] += 1
        slot_of = [-1] * K
        for pos in range(len(sets) - 1, -1, -1):  # the first set holding an index wins
            for i in sets[pos]:
                slot_of[i - 1] = pos
        for j, pos in enumerate(slot_of, start=1):
            slot_bins[j, pos][w] += 1

    bins = [("fingerprint", fp_bins), ("slot", slot_bins)]
    keys = [(family, key) for family, table in bins for key in table]
    rows = [counts for _, table in bins for counts in table.values()]
    min_count = 5 * K  # expected >= 5 per cell under the flat hypothesis
    tested = [k for k, counts in enumerate(rows) if sum(counts) >= min_count]
    if not tested:
        raise AuditSizeError(
            f"no bin reached {min_count} samples in {trials} trials; raise the trial count"
        )
    pvalues = chisquare(np.array([rows[k] for k in tested]), axis=1).pvalue
    worst = tested[int(np.argmin(pvalues))]
    min_p = float(pvalues.min())
    passed = min_p >= significance / len(tested)
    family, key = keys[worst]
    return MonteCarloReport(
        model,
        K,
        M,
        trials,
        mutation,
        passed,
        min_p,
        len(tested),
        len(rows) - len(tested),
        significance,
        Bin(family, key, tuple(rows[worst])),
    )


def audit_recoverability(
    params: FieldParams, model: str, K: int, M: int, trials: int, rng: Random
) -> RecoverabilityReport:
    """Full build/answer/decode loops against a random database; passes only
    when every single decode returns the demanded message exactly."""
    db = Database.random(params, K, rng)
    successes = 0
    for _ in range(trials):
        scenario = sample_scenario(db, M, model, rng)
        protocol = PROTOCOLS[scenario.model]
        query, state = protocol.build_query(scenario, K, rng)
        answer = protocol.answer_query(db, query)
        if protocol.decode_answer(answer, state) == db[scenario.W]:
            successes += 1
    return RecoverabilityReport(model, K, M, trials, successes, successes == trials)


def measure_rate(
    model: str, K: int, M: int, *, params: FieldParams | None = None, seed: int = 0
) -> RateReport:
    """Count downloaded elements in one protocol round and compare the implied
    rate against the capacity formula.  The count is structural, so any seed
    gives the same number."""
    if params is None:
        params = FieldParams(3)
    rng = Random(seed)
    db = Database.random(params, K, rng)
    scenario = sample_scenario(db, M, model, rng)
    protocol = PROTOCOLS[model]
    query, _ = protocol.build_query(scenario, K, rng)
    answer = protocol.answer_query(db, query)
    elements = len(answer.values)
    measured = inf if elements == 0 else Fraction(1, elements)
    cap = capacity(model, K, M)
    return RateReport(model, K, M, elements, measured, cap, measured == cap)
