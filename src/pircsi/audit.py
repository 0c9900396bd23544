"""Privacy, recoverability, and rate verification.

The exact auditor enumerates every scenario and every branch of the query
builder with rational probabilities, then applies Bayes' rule per query
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
from math import comb, factorial, inf
from random import Random

from scipy.stats import chisquare

from .errors import AuditSizeError, ParameterError
from .field import FieldParams
from .model import MODEL_I, MODEL_II, Database, sample_scenario
from .pmf import capacity, case2_pmf, case3_pmf, rp_distribution
from .protocols import PROTOCOLS
from .protocol_csi2 import (
    CASE_DISJOINT,
    CASE_FULL,
    CASE_OVERLAP,
    CASE_SINGLE,
    CASE_TRIVIAL,
    case_for,
)
from .protocol_rp import canonical_fingerprint

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
        rows = _rp_enumeration_size(K, M)
        if rows > row_guard:
            raise AuditSizeError(f"exact enumeration needs {rows} rows (> {row_guard})")
        joint = _enumerate_rp(K, M)
    elif model == MODEL_II:
        joint = _enumerate_csi2(K, M)
    else:
        raise ParameterError(f"unknown model {model!r}")

    flat = Fraction(1, K)
    posteriors, probs = {}, {}
    uniform = True
    worst = Fraction(0)
    for fp in sorted(joint):
        row = joint[fp]
        total = sum(row)
        post = tuple(x / total for x in row)
        posteriors[fp] = post
        probs[fp] = total
        for x in post:
            dev = abs(x - flat)
            if dev > worst:
                worst = dev
            if x != flat:
                uniform = False
    return PosteriorReport(model, K, M, posteriors, probs, uniform, worst)


def _rp_enumeration_size(K: int, M: int) -> int:
    """Branch count of the exact first-model enumeration, before running it."""
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


def _enumerate_rp(K: int, M: int) -> dict:
    dist = rp_distribution(K, M)
    n, l = dist.n, dist.l
    classes = dist.realizable_table()
    prior = Fraction(1, comb(K, M) * (K - M))
    joint: dict = defaultdict(lambda: [Fraction(0)] * K)
    universe = range(1, K + 1)
    for S in combinations(universe, M):
        s_set = set(S)
        for W in universe:
            if W in s_set:
                continue
            outside = [i for i in universe if i != W and i not in s_set]
            demand_set = tuple(sorted((W,) + S))
            for (s, r), p_class in classes.items():
                p_draw = prior * p_class / (comb(M, s) * comb(len(outside), r))
                takes_w = s + r == l - 1
                for sub_s in combinations(S, s):
                    for sub_v in combinations(outside, r):
                        repeats = set(sub_s) | set(sub_v)
                        if takes_w:
                            repeats.add(W)
                        pool_all = repeats | set(outside)
                        if n == 1:
                            joint[(demand_set,)][W - 1] += p_draw
                            continue
                        for fp, share in _completions(
                            demand_set, pool_all, sub_v, M, n, r
                        ):
                            joint[fp][W - 1] += p_draw * share
    return dict(joint)


def _completions(demand_set, pool_all, shared, M, n, r):
    """Yield (fingerprint, probability share) over every ordered way to fill
    the non-demand sets, mirroring the builder's draws exactly."""
    size = M + 1 - r
    pool1 = sorted(pool_all - set(shared))
    t1 = comb(len(pool1), size)
    for q2f in combinations(pool1, size):
        q2 = tuple(sorted(shared + q2f))
        if n == 2:
            fp = tuple(sorted((demand_set, q2)))
            yield fp, Fraction(1, t1)
            continue
        pool2 = sorted(pool_all - set(q2))
        t2 = comb(len(pool2), size)
        for q3f in combinations(pool2, size):
            q3 = tuple(sorted(shared + q3f))
            rest = tuple(sorted(pool_all - set(q2) - set(q3)))
            n_parts = factorial(len(rest)) // factorial(M + 1) ** (n - 3)
            share = Fraction(1, t1 * t2 * n_parts)
            for tail in _ordered_partitions(rest, M + 1):
                fp = tuple(sorted((demand_set, q2, q3) + tail))
                yield fp, share


def _ordered_partitions(items: tuple, size: int):
    if not items:
        yield ()
        return
    for head in combinations(items, size):
        remaining = tuple(i for i in items if i not in set(head))
        for tail in _ordered_partitions(remaining, size):
            yield (tuple(head),) + tail


def _enumerate_csi2(K: int, M: int) -> dict:
    if not 1 <= M <= K:
        raise ParameterError(f"model II needs 1 <= M <= K, got M={M}, K={K}")
    case = case_for(K, M)
    prior = Fraction(1, comb(K, M) * M)
    joint: dict = defaultdict(lambda: [Fraction(0)] * K)
    universe = range(1, K + 1)
    for S in combinations(universe, M):
        s_set = set(S)
        outside = [i for i in universe if i not in s_set]
        for W in S:
            if case == CASE_TRIVIAL:
                joint[()][W - 1] += prior
            elif case == CASE_SINGLE:
                partner = next(i for i in S if i != W)
                joint[((W,),)][W - 1] += prior * Fraction(1, K)
                joint[((partner,),)][W - 1] += prior * Fraction(K - 1, K)
            elif case == CASE_DISJOINT:
                keep = tuple(i for i in S if i != W)
                pmf = case2_pmf(K, M)
                for r, p in pmf.items():
                    # r outside indices are drawn in both branches; the demand
                    # itself joins the cover set only in the smaller branch.
                    share = prior * p / comb(len(outside), r)
                    for sub in combinations(outside, r):
                        cover = tuple(sorted(sub if r == M - 1 else (W,) + sub))
                        fp = tuple(sorted((keep, cover)))
                        joint[fp][W - 1] += share
            elif case == CASE_OVERLAP:
                others = tuple(i for i in S if i != W)
                pmf = case3_pmf(K, M)
                for s, p in pmf.items():
                    share = prior * p / comb(len(others), s)
                    for sub in combinations(others, s):
                        core = sub if s == 2 * M - K else (W,) + sub
                        cover = tuple(sorted(set(core) | set(outside)))
                        fp = tuple(sorted((S, cover)))
                        joint[fp][W - 1] += share
            else:  # CASE_FULL
                joint[(tuple(universe),)][W - 1] += prior
    return dict(joint)


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
    """Sample queries and chi-square test "demand uniform given what the
    server sees" with a Bonferroni correction across all tested bins.

    Two bin families are tested: the order-stripped fingerprint, and for each
    database index the position of the transmitted set containing it.  The
    second family is what exposes set-order leaks, which the order-stripped
    fingerprint is blind to by construction.  Bins too thin for the chi-square
    approximation (expected count below 5) are counted as skipped.
    """
    if mutation is not None:
        if model != MODEL_I:
            raise ParameterError("builder mutations only exist for the first model")
        if mutation not in MUTATIONS:
            raise ParameterError(f"unknown mutation {mutation!r}")
        build_kwargs = MUTATIONS[mutation](K, M)
    else:
        build_kwargs = {}
    if params is None:
        params = FieldParams(3)
    db = Database.random(params, K, rng)
    fp_bins: dict = defaultdict(lambda: [0] * K)
    slot_bins: dict = defaultdict(lambda: [0] * K)
    for _ in range(trials):
        scenario = sample_scenario(db, M, model, rng)
        query, _ = PROTOCOLS[scenario.model].build_query(scenario, K, rng, **build_kwargs)
        w = scenario.W - 1
        fp_bins[canonical_fingerprint(query)][w] += 1
        slot_of = {}
        for pos, qs in enumerate(query.sets):
            for i in qs.indices:
                if i not in slot_of:
                    slot_of[i] = pos
        for j in range(1, K + 1):
            slot_bins[(j, slot_of.get(j, -1))][w] += 1

    min_count = 5 * K  # expected >= 5 per cell under the flat hypothesis
    pvalues = []
    skipped = 0
    for bins in (fp_bins, slot_bins):
        for counts in bins.values():
            total = sum(counts)
            if total < min_count:
                skipped += 1
                continue
            pvalues.append(float(chisquare(counts).pvalue))
    if not pvalues:
        raise AuditSizeError(
            f"no bin reached {min_count} samples in {trials} trials; raise the trial count"
        )
    min_p = min(pvalues)
    passed = min_p >= significance / len(pvalues)
    return MonteCarloReport(
        model, K, M, trials, mutation, passed, min_p, len(pvalues), skipped, significance
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
