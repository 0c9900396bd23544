"""Privacy, recoverability, and rate verification.

Both privacy auditors run each model's one structure draw, draw_structures,
the draw build_query runs at T = 1.  The exact auditor runs it at T = 1
under an enumerating interpreter of the draw primitives (pircsi.draws), for
one representative scenario, with exact integer weights.  The builders treat
indices symmetrically, so every other scenario's law is that one relabelled;
Bayes' rule per query fingerprint gives the posteriors, and the protocol is
private iff every posterior over demands is the flat 1/K vector.  The
Monte-Carlo auditor runs it on chunks of seeded trials and chi-square tests
the bins instead, which scales to cells the exact auditor cannot touch and
catches set-order leaks that the order-stripped fingerprint cannot show.
Both take the mutants of MUTATIONS, on either model's draw (_Mutant).
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, islice, repeat
from math import comb, erfc, exp, fsum, inf, lcm, lgamma, log, sqrt
from random import Random

import numpy as np

from .draws import Interpreter, RandomDraws, draws_from
from .errors import AuditSizeError, ParameterError
from .field import FieldParams
from .model import MODEL_I, Database, check_cell, sample_demand, sample_scenario
from .pmf import Cdf, capacity
from .protocol_rp import check_partition
from .protocols import PROTOCOLS, answer_query, build_query, decode_answer, fingerprint_of

DEFAULT_ROW_GUARD = 10_000_000
EXACT_CHUNK_ENTRIES = 1 << 20  # the exact auditor's key and row entries per chunk of supports


# Deliberately broken draws, by what they break: each replaces one primitive
# of pircsi.draws on every call of either model's draw (see _Mutant).
MUTATIONS = {
    "unshuffled_sets": ("order", lambda d, T, n: np.arange(n)[None].repeat(T, axis=0)),
    "deterministic_extras": ("sample", lambda d, pool, k: pool[:, :k]),
    "skewed_class_pmf": ("choose", lambda d, cdf, count: d.choose(_flat(cdf), count)),
}


def _flat(cdf: Cdf) -> Cdf:
    """The flat pmf over cdf's outcomes, without Cdf.of's sort and lcm."""
    return Cdf(len(cdf.outcomes), tuple(range(1, len(cdf.outcomes) + 1)), cdf.outcomes)


@dataclass(frozen=True)
class _Mutant:
    """The interpreter inner with replacement(inner, *args) for its primitive.  inner's
    blocks and order are forwarded, so a broken sample or shuffle does not reach them."""

    inner: object
    primitive: str
    replacement: object

    def __getattr__(self, name: str):
        if name == self.primitive:
            return partial(self.replacement, self.inner)
        return getattr(self.inner, name)


@dataclass(frozen=True)
class PosteriorReport:
    """Exact per-fingerprint demand posteriors for one (model, K, M) cell;
    worst_fingerprint is the first (sorted) whose posterior deviates by
    worst_deviation, None when uniform."""

    model: str
    K: int
    M: int
    posteriors: dict
    fingerprint_probs: dict
    uniform: bool
    worst_deviation: Fraction
    worst_fingerprint: tuple | None


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


def _draw(model: str, K: int, M: int, mutation: str | None):
    """The model's draw_structures, after checking the cell; with a named
    mutation, over a _Mutant of whichever interpreter it is given."""
    check_cell(K, M, model)
    draw = PROTOCOLS[model].draw_structures
    if mutation is None:
        return draw
    if mutation not in MUTATIONS:
        raise ParameterError(f"unknown mutation {mutation!r}")
    return lambda W, S, K, rng: draw(W, S, K, _Mutant(draws_from(rng), *MUTATIONS[mutation]))


def audit_exact(
    model: str, K: int, M: int, *, row_guard: int = DEFAULT_ROW_GUARD, mutation: str | None = None
) -> PosteriorReport:
    """Enumerate the model's structure draw and return the exact posteriors.

    Raises AuditSizeError when scenarios times draw leaves exceed row_guard,
    or a set's key exceeds 64 bits; switch to audit_montecarlo for such cells.
    """
    fps, table, D = _joint_table(model, K, M, row_guard, mutation)
    fraction = lru_cache(maxsize=None)(Fraction)  # rows share few distinct ratios
    totals = table.sum(axis=1)
    probs = dict(zip(fps, map(fraction, totals.tolist(), repeat(D))))
    posteriors = dict.fromkeys(fps, (Fraction(1, K),) * K)
    # The worst |x/total - 1/K| so far as (K*x - total)/(K*total), at a row's min or max
    worst_num, worst_den, worst_fp = 0, 1, None
    for i in np.flatnonzero(table.min(axis=1) != table.max(axis=1)).tolist():
        row, total, fp = table[i].tolist(), int(totals[i]), fps[i]
        posteriors[fp] = tuple(fraction(x, total) for x in row)
        num, den = max(max(row) * K - total, total - min(row) * K), K * total
        if num * worst_den > worst_num * den:
            worst_num, worst_den, worst_fp = num, den, fp
    worst = Fraction(worst_num, worst_den)
    return PosteriorReport(model, K, M, posteriors, probs, worst_num == 0, worst, worst_fp)


def exact_joint(
    model: str, K: int, M: int, *, row_guard: int = DEFAULT_ROW_GUARD, mutation: str | None = None
) -> tuple[dict, int]:
    """Every (fingerprint, demand) pair the model's structure draw can give,
    as integer weights over one common denominator D: the pair has
    probability joint[fingerprint][W - 1] / D under a uniform (W, S), the
    fingerprints in sorted order.

    The draw is enumerated for one scenario only, W=1 with S={2..M+1} (model
    I) or S={1..M} (model II).  Scenario (W, S) takes that law relabelled by
    1 -> W, the rest of the representative S to S without W in order, and
    the other indices to the rest in order.  This is exact while the draw
    treats indices alike, apart from taking them in order from S or from the
    outside indices (as deterministic_extras does); tests compare it with an
    enumeration of every scenario.  _joint_table relabels in arrays.
    """
    fps, table, D = _joint_table(model, K, M, row_guard, mutation)
    return dict(zip(fps, table.tolist())), D


def _joint_table(model: str, K: int, M: int, row_guard: int, mutation: str | None) -> tuple:
    """exact_joint's sorted fingerprints, the (F, K) array of their weights
    (int64, or Python ints once D passes 63 bits), and D.  Per scenario, a
    set gets the key C(K, s) - 1 minus the colex rank of K minus its image,
    which sorts as sets do; a pair is its n sorted keys and W - 1 in int64
    words.  C(K, s) * K >= 2^63 is refused before any scenario is listed."""
    draw = _draw(model, K, M, mutation)
    if model == MODEL_I:
        S0, scenarios, demands = tuple(range(2, M + 2)), comb(K, M) * (K - M), range(M, K)
    else:
        S0, scenarios, demands = tuple(range(1, M + 1)), comb(K, M) * M, range(M)
    law = scenario_law(draw, 1, S0, K, scenarios=scenarios, row_guard=row_guard)
    D = scenarios * sum(law.values())
    dtype = np.int64 if D >> 63 == 0 else object  # no sum of weights reaches D

    members = sorted({s for fp in law for s in fp})
    n, s = len(next(iter(law))), len(members[0]) if members else 0
    top, width = comb(K, s), max(n, 1)
    if top * K >> 63:
        raise AuditSizeError(f"exact relabelling cannot key C({K}, {s}) sets of {s} in 64 bits")
    q = width if top**n * K >> 63 == 0 else 1  # keys to a word
    powers = np.array([top ** (q - 1 - j) * K for j in range(q)], np.int64)
    at = {m: j for j, m in enumerate(members)}
    sets = np.array([[at[m] for m in fp] for fp in law], np.int64).reshape(len(law), n)
    # place[i]: where labels 1..K sit in (S, then the rest) with W at demands[i]
    place = np.array([[p, *(j for j in range(K) if j != p)] for p in demands], np.int64)
    labels = place[:, np.array(members, np.int64).reshape(len(members), s) - 1]
    # colex[j, y] = C(y, j + 1), nondecreasing in y; above the j-th smallest of s, 2^63 - 1
    colex = [[comb(y, j + 1) if y <= K - s + j else 2**63 - 1 for y in range(K)] for j in range(s)]
    colex = np.array(colex, np.int64).reshape(s, K)

    supports, total = combinations(range(1, K + 1), M), comb(K, M)
    step = max(1, EXACT_CHUNK_ENTRIES // (labels.size + len(place) * len(law) * width + M * K))
    merged, pending = (np.zeros((0, width // q), np.int64), np.zeros(0, dtype)), []
    for done in range(0, total, step):
        c = min(step, total - done)
        S = np.fromiter(chain.from_iterable(islice(supports, c)), np.int64, c * M).reshape(c, M)
        seq = np.argsort(~(S[:, :, None] == np.arange(1, K + 1)).any(1), 1, kind="stable") + 1
        y = K - seq[:, labels].reshape(c * len(place), *labels.shape[1:])
        y.sort(axis=2)
        keys = top - 1 - sum((colex[j, y[..., j]] for j in range(s)), np.zeros(y.shape[:2], int))
        rows = np.zeros((len(keys), len(law), width), np.int64)
        rows[:, :, :n] = np.sort(keys[:, sets], axis=2)
        rows = rows.reshape(-1, width // q, q) @ powers
        rows[:, -1] += np.repeat(seq[:, place[:, 0]].ravel() - 1, len(law))
        pending.append((rows, np.tile(np.array([*law.values()], dtype), len(keys))))
        if done + c == total or sum(len(r) for r, _ in pending) > len(merged[0]):
            # Sum the weights of each distinct row, the rows in lexicographic order
            rows, mass = (np.concatenate(arrays) for arrays in zip(merged, *pending))
            order = np.lexsort(rows.T[::-1]) if rows.shape[1] > 1 else rows[:, 0].argsort()
            rows = rows[order]
            start = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
            merged, pending = (rows[start], np.add.reduceat(mass[order], start)), []

    column, rows = merged[0][:, -1] % K, merged[0] // K  # W - 1, and the fingerprints' words
    first = np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]
    table = np.zeros((first.sum(), K), dtype)
    table[np.cumsum(first) - 1, column] = merged[1]
    # Unrank each distinct key once: the j-th smallest of K minus its set, j from the top
    keys = (rows[first][:, :, None] // (powers // K) % top).reshape(len(table), width)[:, :n]
    rank, at = np.unique(keys, return_inverse=True)
    rank, image = top - 1 - rank, np.empty((len(rank), s), np.int64)
    for j in range(s - 1, -1, -1):
        y = colex[j].searchsorted(rank, "right") - 1
        rank -= colex[j, y]
        image[:, s - 1 - j] = K - y
    image = list(map(tuple, image.tolist()))
    fps = [tuple(map(image.__getitem__, fp)) for fp in at.reshape(len(table), n).tolist()]
    return fps, table, D


def scenario_law(
    draw, W: int, S: tuple, K: int, *, scenarios: int = 1, row_guard: int = DEFAULT_ROW_GUARD
) -> dict:
    """The law of the fingerprint of draw, a model's draw_structures, for
    the one trial (W, S), as integer weights over their sum: the draw runs
    once per leaf of its choice tree under _Enumeration.  Raises
    AuditSizeError once scenarios times the leaves would exceed row_guard,
    and ProtocolError when the first leaf of a first-model fingerprint (W
    outside S) fails check_partition."""
    enum = _Enumeration(scenarios, row_guard)
    masses: dict = defaultdict(int)  # (denominator, fingerprint) -> numerator
    firsts = {}  # fingerprint -> the sets of its first leaf
    demand, support = np.array([W]), np.array([S], np.int64)
    while True:
        sets = draw(demand, support, K, enum)[0][0]
        fp = fingerprint_of(sets)
        masses[enum.den, fp] += enum.num
        firsts.setdefault(fp, sets)
        if not enum.next_leaf():
            break
    if W not in S:
        check_partition(np.stack(list(firsts.values())), K, len(S))
    D = lcm(*(den for den, _ in masses))
    law: dict = defaultdict(int)
    for (den, fp), num in masses.items():
        law[fp] += num * (D // den)
    if sum(law.values()) != D:
        raise AssertionError(f"leaf weights sum to {sum(law.values())}/{D}, not 1")
    return {fp: weight for fp, weight in law.items() if weight}


@lru_cache(maxsize=64)
def _combinations(n: int, k: int) -> tuple:
    return tuple(combinations(range(n), k))


def _outcomes(cdf: Cdf) -> list:
    """Each outcome's position in cdf.outcomes and its mass."""
    lows = (0, *cdf.cumulative)
    return [(k, hi - lo) for k, (lo, hi) in enumerate(zip(lows, cdf.cumulative))]


class _Enumeration(Interpreter):
    """The draw primitives as an enumeration.  Each run of the draw follows
    `path`, its option at each choice point, taking the first option at a new
    one, and next_leaf() advances the path depth first; num/den is the
    product of the weights the run took.  It enumerates one trial: each
    model's draw runs on it at T = 1, so its arrays hold one row, and
    choose(cdf, 1) gives that row's outcome as its position in cdf.outcomes.

    sample lists each combination once, in pool order; shuffle leaves its
    sequence alone; split lets the block of the first remaining item take
    each choice of mates once.  So a run shows no element order, set order, or
    order of equal blocks: sound only for a fingerprint that strips all three,
    as fingerprint_of does.
    """

    __slots__ = ("path", "listed", "depth", "num", "den", "leaves", "scenarios", "row_guard")

    def __init__(self, scenarios: int, row_guard: int):
        self.path, self.listed, self.leaves = [], [], 0
        self.scenarios, self.row_guard = scenarios, row_guard
        self.depth, self.num, self.den = 0, 1, 1

    def _guard(self, leaves: int) -> None:
        if self.scenarios * leaves > self.row_guard:
            raise AuditSizeError(
                f"exact enumeration needs more than {self.row_guard} rows "
                f"({self.scenarios} scenarios times {leaves} or more draw leaves)"
            )

    def _pick(self, width: int, options, *args):
        """This run's option at its next choice point, of `width` listed by
        options(*args): once per path, after the guard."""
        depth = self.depth
        self.depth += 1
        if depth < len(self.path):
            return self.listed[depth][self.path[depth]]
        self._guard(self.leaves + width)
        self.listed.append(options(*args))
        self.path.append(0)
        return self.listed[depth][0]

    def next_leaf(self) -> bool:
        """Count the run just ended and set up the next; False when none is left."""
        self.leaves += 1
        self._guard(self.leaves)
        self.depth, self.num, self.den = 0, 1, 1
        path, listed = self.path, self.listed
        while path and path[-1] + 1 == len(listed[-1]):
            path.pop()
            listed.pop()
        if path:
            path[-1] += 1
        return bool(path)

    def choose(self, cdf: Cdf, count: int):
        k = 0
        if len(cdf.outcomes) > 1:
            k, mass = self._pick(len(cdf.outcomes), _outcomes, cdf)
            self.num *= mass
            self.den *= cdf.denom
        return np.full(count, k)

    def _combination(self, n: int, k: int):
        width = comb(n, k)
        if width == 1:
            return range(k)
        self.den *= width
        return self._pick(width, _combinations, n, k)

    def sample(self, pool: np.ndarray, k: int):
        return pool[:, list(self._combination(pool.shape[1], k))]

    def shuffle(self, seq) -> None:
        pass

    def split(self, seq: np.ndarray, size: int) -> np.ndarray:
        """The blocks of the one trial row of seq, as a (1, blocks, size) array."""
        rest, blocks = seq[0].tolist(), []
        while rest:
            first, *others = rest
            mates = self._combination(len(others), size - 1)
            blocks.append([first, *(others[j] for j in mates)])
            rest = [x for j, x in enumerate(others) if j not in mates]
        return np.array(blocks, np.int64).reshape(1, -1, size)


# A screen draws its trials in chunks of at most this many index entries,
# at 2K entries a trial (both models' sets, and the draw's masks over [0, K]),
# so its working memory stays flat however many trials it runs.
SCREEN_CHUNK_ENTRIES = 1 << 18


def audit_montecarlo(
    model: str,
    K: int,
    M: int,
    trials: int,
    rng: Random,
    *,
    mutation: str | None = None,
    significance: float = 0.01,
) -> MonteCarloReport:
    """Sample query structures and chi-square test "demand uniform given what
    the server sees" with a Bonferroni correction across all tested bins.

    The trials are drawn in chunks of at most SCREEN_CHUNK_ENTRIES index
    entries, all on one RandomDraws over rng.  Each chunk draws its (W, S)
    with sample_demand and its index sets in one call of the model's
    draw_structures, the draw build_query runs (over a _Mutant of that
    RandomDraws when a mutation is named); the first model's stack is checked
    by one check_partition.  No bin reads a coefficient, so none is drawn and
    no field is needed.  Two bin families are tested, both binned by array
    operations (_Bins): the order-stripped fingerprint, and for each database
    index the position of the first transmitted set containing it.  The
    second family is what exposes set-order leaks, which the order-stripped
    fingerprint is blind to by construction.  Bins too thin for the
    chi-square approximation (expected count below 5) are counted as skipped.
    Each bin's p-value is Pearson's statistic against the flat expectation,
    read off the chi-square survival function with K - 1 degrees of freedom
    by _chisquare_p; the worst bin is the first with the smallest,
    fingerprint bins before slot bins, each family in the order its bins
    were first met.  significance, the family's, lies in (0, 1).
    """
    if not 0 < significance < 1:
        raise ParameterError(f"significance must lie in (0, 1), got {significance!r}")
    draw = _draw(model, K, M, mutation)
    draws = RandomDraws(rng)  # one interpreter for every trial, over the same rng
    bins = _Bins(K)
    chunk = max(1, SCREEN_CHUNK_ENTRIES // (2 * K))
    for done in range(0, trials, chunk):
        W, S = sample_demand(K, M, model, draws, min(chunk, trials - done))
        sets = draw(W, S, K, draws)[0]
        if model == MODEL_I:
            check_partition(sets, K, M)
        bins.add(sets, W)

    min_count = 5 * K  # expected >= 5 per cell under the flat hypothesis
    keys, rows, skipped = bins.tested(min_count)
    if not rows:
        raise AuditSizeError(
            f"no bin reached {min_count} samples in {trials} trials; raise the trial count"
        )
    pvalues = [_chisquare_p(counts) for counts in rows]
    min_p = min(pvalues)
    worst = pvalues.index(min_p)
    family, key = keys[worst]
    return MonteCarloReport(
        model,
        K,
        M,
        trials,
        mutation,
        min_p >= significance / len(rows),
        min_p,
        len(rows),
        skipped,
        significance,
        Bin(family, key, tuple(rows[worst])),
    )


class _Bins:
    """Both bin families of a screen, filled chunk by chunk from (T, n, s)
    arrays of index sets, each bin under an integer key.  A fingerprint
    bin's key is its number in the order the fingerprints were first met;
    a fingerprint is the query's sets, each sorted, in sorted order, as one
    row of a (T, n*s + 1) array read as an opaque item (the last column
    stays 0, so that a query with no sets has one too).  A slot bin (j, pos)
    has the key (j - 1) * (n + 1) + pos + 1; pos is found for every index of
    a chunk by n scatters, the last set first, so the first set holding j
    writes last."""

    def __init__(self, K: int):
        self.K, self.dtype = K, np.min_scalar_type(K)  # the dtype of a fingerprint row
        self.fingerprints, self.slots = _Family(K), _Family(K)
        self.numbers = {}  # fingerprint row (bytes) -> key
        self.shape = 0, 0  # (n, s) of the sets

    def add(self, sets: np.ndarray, W: np.ndarray) -> None:
        T, n, s = sets.shape
        self.shape = n, s
        inside = np.sort(sets, axis=2)
        if n > 1:  # sort the sets of each trial: column 0 is the primary key
            order = np.lexsort(inside.transpose(2, 0, 1)[::-1], axis=-1)
            inside = np.take_along_axis(inside, order[:, :, None], axis=1)
        rows = np.zeros((T, n * s + 1), self.dtype)
        rows[:, :-1] = inside.reshape(T, n * s)
        items = rows.view(np.dtype((np.void, rows.strides[0])))[:, 0]
        found, first, inverse = np.unique(items, return_index=True, return_inverse=True)
        found = found.tolist()
        for j in np.argsort(first).tolist():
            self.numbers.setdefault(found[j], len(self.numbers))
        numbers = np.array([self.numbers[row] for row in found], np.int64)
        self.fingerprints.add(numbers[inverse], W - 1)

        slot = np.full((T, self.K + 1), -1)  # slot[t, i]: first set of trial t holding i
        trial = np.arange(T)[:, None]
        for pos in range(n - 1, -1, -1):
            slot[trial, sets[:, pos]] = pos
        keys = np.arange(self.K) * (n + 1) + slot[:, 1:] + 1
        self.slots.add(keys.ravel(), np.repeat(W - 1, self.K))

    def tested(self, min_count: int) -> tuple[list, list, int]:
        """The (family, key) and count row of every bin holding at least
        min_count samples, fingerprint bins first, each family in the order
        its bins were first met, and how many bins hold fewer."""
        n, s = self.shape
        rows = list(self.numbers)
        keys, counts, skipped = [], [], 0
        for family, bins in (("fingerprint", self.fingerprints), ("slot", self.slots)):
            tested, table = bins.tested(min_count)
            skipped += len(bins.keys) - len(tested)
            for key in tested.tolist():
                if family == "slot":
                    j, pos = divmod(key, n + 1)
                    keys.append((family, (j + 1, pos - 1)))
                else:
                    row = np.frombuffer(rows[key], self.dtype)[:-1].reshape(n, s)
                    keys.append((family, tuple(map(tuple, row.tolist()))))
            counts += table.tolist()
        return keys, counts, skipped


class _Family:
    """One bin family over integer keys: the keys in the order first met,
    and the count of each (bin, demand) pair seen, as the sorted codes
    rank * K + (W - 1), rank a bin's place in that order, and their counts.
    Nothing grows with the trials, only with the bins met.  Each chunk's
    codes wait in a pending list and are merged into the sorted table only
    once they outnumber it, so every code is sorted a bounded number of
    times and a screen's time stays O(n log n) in its trials however many
    bins it meets."""

    def __init__(self, K: int):
        self.K, self.keys = K, []
        self.rank = np.zeros(0, np.int64)  # rank[key]: the bin's place in keys, -1 if unmet
        self.codes = self.counts = np.zeros(0, np.int64)
        self.pending, self.pending_size = [], 0

    def add(self, keys: np.ndarray, w: np.ndarray) -> None:
        """One sample per entry of the 1-d arrays keys (each at least 0) and w (W - 1)."""
        top = keys.max()
        if top >= len(self.rank):  # grow by doubling, so each key is copied O(1) times
            grown = np.full(max(2 * len(self.rank), top + 1), -1)
            grown[: len(self.rank)] = self.rank
            self.rank = grown
        # The entries of unmet keys; their keys span at most a chunk's new
        # fingerprint numbers, or the K(n + 1) slot keys.
        fresh = (self.rank[keys] < 0).nonzero()[0]
        if len(fresh):
            low = keys[fresh].min()
            first = np.full(top + 1 - low, len(keys))  # first[key - low]: where it is first met
            np.minimum.at(first, keys[fresh] - low, fresh)
            new = (first < len(keys)).nonzero()[0]
            new = new[np.argsort(first[new])] + low
            self.rank[new] = np.arange(len(self.keys), len(self.keys) + len(new))
            self.keys += new.tolist()
        codes, counts = np.unique(self.rank[keys] * self.K + w, return_counts=True)
        self.pending.append((codes, counts))
        self.pending_size += len(codes)
        if self.pending_size > len(self.codes):
            self._merge()

    def _merge(self) -> None:
        codes = np.concatenate([self.codes, *(c for c, _ in self.pending)])
        counts = np.concatenate([self.counts, *(n for _, n in self.pending)])
        self.codes, at = np.unique(codes, return_inverse=True)
        self.counts = np.zeros(len(self.codes), np.int64)
        np.add.at(self.counts, at, counts)
        self.pending, self.pending_size = [], 0

    def tested(self, min_count: int) -> tuple[np.ndarray, np.ndarray]:
        """The keys of the bins holding at least min_count samples, in rank
        order, and their counts per demand as a (bins, K) array."""
        self._merge()
        ranks, w = np.divmod(self.codes, self.K)
        tested = np.bincount(ranks, self.counts, len(self.keys)) >= min_count
        row = np.cumsum(tested) - 1  # row[rank]: the bin's row among the tested
        table = np.zeros((tested.sum(), self.K), np.int64)
        keep = tested[ranks]
        table[row[ranks[keep]], w[keep]] = self.counts[keep]
        return np.array(self.keys, np.int64)[tested], table


def _chisquare_p(counts) -> float:
    """P(chi-square with K - 1 degrees of freedom >= x) for Pearson's x of
    the K counts against the flat expectation.  An integer df gives the
    survival function in closed form: a finite sum of Poisson-like terms,
    plus erfc for odd df, each taken in log space so that no power or
    factorial overflows and p-values far below 1e-200 keep their digits."""
    K, n = len(counts), sum(counts)
    x = sum((c * K - n) ** 2 for c in counts) / (n * K)  # exact integer sum
    if x == 0:
        return 1.0
    half, df = x / 2, K - 1
    log_half = log(half)
    if df % 2 == 0:
        terms = [exp(-half + j * log_half - lgamma(j + 1)) for j in range(df // 2)]
    else:
        terms = [erfc(sqrt(half))]
        terms += [
            exp(-half + (j - 0.5) * log_half - lgamma(j + 0.5)) for j in range(1, df // 2 + 1)
        ]
    return min(fsum(terms), 1.0)


def audit_recoverability(
    params: FieldParams, model: str, K: int, M: int, trials: int, rng: Random
) -> RecoverabilityReport:
    """Full build/answer/decode loops against a random database; passes only
    when every single decode returns the demanded message exactly."""
    db = Database.random(params, K, rng)
    successes = 0
    for _ in range(trials):
        scenario = sample_scenario(db, M, model, rng)
        query, state = build_query(scenario, K, rng)
        decoded = decode_answer(answer_query(db, query), state)
        if list(decoded.coeffs) == db.words[scenario.W - 1].tolist():
            successes += 1
    return RecoverabilityReport(model, K, M, trials, successes, successes == trials)


def measure_rate(model: str, K: int, M: int) -> RateReport:
    """Count downloaded elements in one protocol round and compare the implied
    rate against the capacity formula.  The count is structural, so the round
    runs over GF(3) with seed 0: no field or seed gives another number."""
    rng = Random(0)
    db = Database.random(FieldParams(3), K, rng)
    query, _ = build_query(sample_scenario(db, M, model, rng), K, rng)
    elements = len(answer_query(db, query).words)
    measured = inf if elements == 0 else Fraction(1, elements)
    cap = capacity(model, K, M)
    return RateReport(model, K, M, elements, measured, cap, measured == cap)
