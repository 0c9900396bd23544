"""Retrieval protocol for demands outside the side-information support.

The client sends n = ceil(K/(M+1)) index sets of size M+1 with fresh nonzero
coefficients.  The sets cover the whole database; l = (M+1)n - K indices
appear in exactly two sets ("repeats"), everything else in exactly one, and
all the repeats sit in one pair of sets.  One set is the demand set {W} on
S; whether it is in that pair, and with W repeated or not, is one draw from
the repeat-class pmf, weighted so that every candidate demand explains the
transmitted query equally well.  The server returns one field element per
set, and the client strips Y off the demand set's element.

attach_coefficients and decode_answer serve both models: one coefficient
rule makes every scheme private, and every scheme recovers the demand as
X_W = a * A[slot] + b * Y from one downloaded element A[slot] and Y, with
the scalars a and b fixed when the coefficients are attached.
"""

from dataclasses import dataclass
from random import Random

import numpy as np

from .draws import draws_from
from .errors import ParameterError, ProtocolError, SetRuleError, ShapeError
from .field import FieldElement
from .model import MODEL_I, Database, Scenario, answer_words
from .pmf import rp_distribution


@dataclass(frozen=True)
class QuerySet:
    """One transmitted set: parallel tuples of 1-based indices and nonzero
    base-field coefficients."""

    indices: tuple[int, ...]
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.coeffs):
            raise ParameterError("indices and coefficients must pair up")


class Query:
    """A query of either model, holding exactly what the wire format carries:
    the coefficient-weighted sets, the model, and the case tag (the second
    model's case; always 0 for the first).  The sets are two (n, s) int64
    arrays, idx of indices and coef of coefficients, row k being set k, taken
    as they are; sets gives them as QuerySets, built on demand."""

    __slots__ = ("idx", "coef", "model", "case_tag")

    def __init__(self, idx: np.ndarray, coef: np.ndarray, model: str = MODEL_I, case_tag: int = 0):
        self.idx, self.coef, self.model, self.case_tag = idx, coef, model, case_tag

    @property
    def sets(self) -> tuple[QuerySet, ...]:
        return tuple(map(QuerySet, map(tuple, self.idx.tolist()), map(tuple, self.coef.tolist())))

    @property
    def sizes(self) -> list[int]:
        return [self.idx.shape[1]] * len(self.idx)

    def __eq__(self, other):
        return (
            isinstance(other, Query)
            and (self.model, self.case_tag) == (other.model, other.case_tag)
            and np.array_equal(self.idx, other.idx)
            and np.array_equal(self.coef, other.coef)
        )


class Answer:
    """Server response: one element of the field params per query set, in
    set order, as the rows of the (n, m) word array words; values gives them
    as FieldElements on demand.  Answers are equal when their words are, so
    an int64 answer equals its u16 parse, and any two empty answers are
    equal."""

    __slots__ = ("params", "words")

    def __init__(self, params, words: np.ndarray):
        self.params, self.words = params, words

    @property
    def values(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.params, tuple(row)) for row in self.words.tolist())

    def __eq__(self, other):
        if not isinstance(other, Answer):
            return False
        if not (len(self.words) or len(other.words)):
            return True
        return self.params == other.params and np.array_equal(self.words, other.words)


@dataclass(frozen=True)
class DecoderState:
    """Client-side secrets needed to decode, in both models: the demand is
    X_W = a * A[demand_slot] + b * Y for the answer A and the side
    information Y, with no answer term when demand_slot is None."""

    scenario: Scenario
    demand_slot: int | None
    a: int
    b: int


def build_query(scenario: Scenario, K: int, rng: Random) -> tuple[Query, DecoderState]:
    """Build one query for the given scenario: draw_structures at T = 1,
    then attach_coefficients over the same draws, then check_partition on
    the query's index array."""
    if scenario.model != MODEL_I:
        raise ParameterError(f"expected a model {MODEL_I} scenario, got {scenario.model!r}")
    d, S = draws_from(rng), np.array([scenario.S], np.int64)
    sets, slots = draw_structures(np.array([scenario.W], np.int64), S, K, d)
    query, state = attach_coefficients(sets[0], int(slots[0]), 0, S[0], scenario, d)
    check_partition(query.idx, K, len(scenario.S))
    return query, state


def draw_structures(W: np.ndarray, S: np.ndarray, K: int, rng):
    """The index sets of T >= 1 queries at once, for the (T,) demands W
    outside the (T, M) sorted supports S: a (T, n, M+1) int64 array, row t
    holding query t's sets in transmitted order, and the (T,) demand slots.
    Everything the server sees of a query but its coefficients is drawn here,
    from (W, S) alone.  rng is a random.Random, or another interpreter of the
    draw primitives (pircsi.draws), such as the exact auditor's or a mutant."""
    T, M = S.shape
    if not T:
        raise ParameterError("a structure draw needs at least one trial, got T=0")
    if not 0 <= M < K:
        raise ParameterError(f"need 0 <= M < K, got M={M}, K={K}")
    if (S == W[:, None]).any():
        raise ParameterError("demand must lie outside the support")
    demand = np.concatenate([W[:, None], S], axis=1)  # the demand sets [W, *S]
    if demand.min() < 1 or demand.max() > K:
        raise ParameterError("scenario indices exceed the database size")
    d, dist = draws_from(rng), rp_distribution(K, M)
    n, l, cdf = dist.n, dist.l, dist.cdf
    sizes = [T]  # trials per repeat class; a pmf of one class needs no draw
    if len(cdf.outcomes) > 1:
        classes = d.choose(cdf, T)
        sizes = np.bincount(classes, minlength=len(cdf.outcomes)).tolist()
    # One mask over [0, K] per trial marks the indices placed so far; 0 is
    # no index, so the unmarked ones are the outside pool, in order.
    trial = np.arange(T)[:, None]
    placed = np.zeros((T, K + 1), bool)
    placed[:, 0] = True
    placed[trial, demand] = True
    sets = np.empty((T, n, M + 1), np.int64)  # each query's sets, the demand set first
    sets[:, 0] = demand
    d.shuffle(sets[:, 0])  # a view: the demand set in its own order
    # The l repeats sit in one pair of sets: two cover sets sharing r = l
    # outside indices, or the demand set and a partner holding s support
    # indices and W when s = l-1.  Every other set is disjoint from the rest.
    # The trials of one class are drawn together, and the fills of the pair
    # in one call, split among its cover sets.
    others = sets[:, 1:]  # a view: every set but the demand set
    for k, (s, r) in enumerate(cdf.outcomes):
        if not sizes[k]:
            continue
        # One class for every trial, as at T = 1: views, not copies.
        at = slice(None) if sizes[k] == T else (classes == k).nonzero()[0]
        mask, pieces = placed[at], []
        if l:
            rows = trial[: sizes[k]]
            if r:
                shared = d.sample(_unplaced(mask), r)
                mask[rows, shared] = True
                partners = shared[:, None].repeat(2, axis=1)
            else:
                W, S = demand[at, :1], demand[at, 1:]
                partners = np.concatenate([d.sample(S, s), W[:, : l - s]], axis=1)[:, None]
            fill = M + 1 - l
            fills = d.blocks(_unplaced(mask), len(partners[0]), fill)
            mask[rows, fills.reshape(sizes[k], -1)] = True
            pieces.append(np.concatenate([partners, fills], axis=2))
            d.shuffle(pieces[0].reshape(-1, M + 1))  # a view: each cover set shuffled in place
        pieces.append(d.split(_unplaced(mask), M + 1))
        if any(piece.shape[2] != M + 1 for piece in pieces):
            raise ProtocolError("built a set of the wrong size")
        others[at] = np.concatenate(pieces, axis=1)
    return in_random_order(d, sets)


def in_random_order(d, sets: np.ndarray):
    """The (T, n, s) sets of T queries with each query's sets in the order
    d.order draws, and the (T,) slots that each query's first set moved to."""
    order = d.order(len(sets), sets.shape[1])
    return sets[np.arange(len(sets))[:, None], order], order.argmin(axis=1)


def _unplaced(placed: np.ndarray) -> np.ndarray:
    """The indices each row of the mask leaves unmarked, in order, as rows."""
    return (~placed.ravel()).nonzero()[0].reshape(len(placed), -1) % placed.shape[1]


def attach_coefficients(
    idx: np.ndarray, slot: int | None, case_tag: int, support: np.ndarray, scenario: Scenario, rng
) -> tuple[Query, DecoderState]:
    """Complete one query's row of either model's draw_structures, its
    (n, s) sets idx, demand slot and case tag, into a query by the one rule
    that keeps both private: the demand set carries each support index's own
    c_i, except the demand W, which takes a fresh unit other than its own
    (0 when W lies outside S); every other slot takes a fresh unit.  So each
    coefficient sent is a fresh unit or some c_i sent once, and c_W never.
    All come from d.coefficients: one draw for the (n, s) array, then one for
    W where the demand set holds it.  support is S as the (M,) int64 array
    the sets were drawn from; rng is a random.Random or their RandomDraws."""
    d, W, q = draws_from(rng), scenario.W, scenario.Y.params.q
    coef = d.coefficients(q, idx.size).reshape(idx.shape)
    own = np.zeros(max(W, support.max(initial=0)) + 1, np.int64)  # own[i]: c_i on S, else 0
    own[support] = np.fromiter(scenario.C, np.int64, len(support))
    c_W = int(own[W])
    demand = () if slot is None else idx[slot]
    c = 0  # W's coefficient, 0 where it is not sent
    if W in demand:
        t = int(d.coefficients(q - (c_W > 0), 1)[0])
        c = t + (0 < c_W <= t)  # one to one onto the units other than c_W
    if slot is not None:
        own[W] = c
        coef[slot] = own[demand]
    query = Query(idx, coef, scenario.model, case_tag)
    # The demand set's other indices lie in S without W; if they are all of
    # it, A - Y = (c - c_W) * X_W.
    if len(demand) - (c > 0) == len(support) - (c_W > 0):
        a = pow(c - c_W, -1, q)
        return query, DecoderState(scenario, slot, a, -a % q)
    return query, DecoderState(scenario, slot, pow(c, -1, q), 0)  # {W} alone: A = c * X_W


def check_partition(idx: np.ndarray, K: int, M: int) -> None:
    """The first model's construction guard on a query's (n, s) index array,
    or on a (T, n, s) stack of them: sets of M+1 indices, none twice in one
    set, that cover [1, K] with no index thrice and l = n(M+1) - K,
    n = ceil(K/(M+1)), twice.  Raises ProtocolError.  build_query runs it
    once per query, the screen on each chunk's stack of structures, and the
    exact auditor on the first leaf of each fingerprint."""
    if idx.shape[-1] != M + 1:
        raise ProtocolError("built a set of the wrong size")
    rows = np.sort(idx, axis=-1)
    if (rows[..., 1:] == rows[..., :-1]).any():
        raise ProtocolError("built a set with a repeated index")
    if idx.min() < 1:
        raise ProtocolError("built sets that do not cover the database")
    # counts[t * width + i]: the sets of query t holding index i, for i up
    # to the largest index of the stack or K, whichever is larger.
    flat = idx.reshape(-1, idx.shape[-2] * idx.shape[-1])
    width = max(int(idx.max()), K) + 1
    at = np.arange(0, width * len(flat), width)[:, None] + flat
    counts = np.bincount(at.ravel(), minlength=width * len(flat))
    if counts.max() > 2:
        raise ProtocolError("built sets with the wrong repeat budget")
    # Every index lies in [1, width): each query covers [1, K] when it holds
    # K distinct ones and none lies above K.
    if width > K + 1 or np.count_nonzero(counts) != K * len(flat):
        raise ProtocolError("built sets that do not cover the database")
    # Each of the K indices is held once or twice, so n(M+1) - K are twice.
    if idx.shape[-2] != -(-K // (M + 1)):
        raise ProtocolError("built sets with the wrong repeat budget")


def check_sizes(case_tag: int, sizes: list[int], K: int) -> None:
    """The first model's shape rules on a case tag and the list of set sizes:
    case tag 0, at least one set, and every set of one size 1 <= M+1 <= K."""
    if case_tag != 0:
        raise ShapeError(f"first-model queries use case tag 0, got {case_tag!r}", "case")
    if not sizes:
        raise ShapeError("first-model query carries no sets", "count")
    if 0 in sizes:
        raise ShapeError("empty query set", "size")
    size = sizes[0]
    if sizes.count(size) != len(sizes):
        raise ShapeError("first-model sets must share one size", "size")
    if size > K:
        raise ShapeError(f"set size {size} exceeds the database", "size")


def answer_query(db: Database, query: Query) -> Answer:
    """Refuse a query of the other model, then make the server's calls:
    check_sizes, check_set_arrays, and the answer kernel."""
    if query.model != MODEL_I:
        raise ShapeError(f"expected a model {MODEL_I} query, got {query.model!r}", "case")
    check_sizes(query.case_tag, query.sizes, db.K)
    check_set_arrays(query.idx, query.coef, db.K, db.params.q)
    return Answer(db.params, answer_words(db, query.idx, query.coef))


def check_set_arrays(idx: np.ndarray, coef: np.ndarray, K: int, q: int) -> None:
    """The set rules of both models on a query's (n, s) arrays: every index
    in [1, K], none twice in one set, every coefficient in [1, q-1].  Only if
    a numpy test on the int64 arrays finds a fault does a scan raise
    SetRuleError for the first in wire order: set by set, the indices (range,
    then a repeat at its second slot), then the coefficients."""
    if _breaks_a_rule(idx, coef, K, q):
        _raise_first_fault(zip(idx.tolist(), coef.tolist()), K, q)


def _breaks_a_rule(idx: np.ndarray, coef: np.ndarray, K: int, q: int) -> bool:
    """Whether the (n, s) int64 arrays of a query's sets break a set rule."""
    if not idx.size:
        return False
    if idx.min() < 1 or idx.max() > K or coef.min() < 1 or coef.max() >= q:
        return True
    # An index repeats when it meets its neighbour in its sorted row.
    rows = np.sort(idx, axis=1)
    return bool((rows[:, 1:] == rows[:, :-1]).any())


def _raise_first_fault(rows, K: int, q: int) -> None:
    """Raise SetRuleError for the first fault of the (indices, coefficients)
    rows, in wire order; return if there is none."""
    for k, (indices, coeffs) in enumerate(rows):
        seen = set()
        for j, i in enumerate(indices):
            if not 1 <= i <= K:
                raise SetRuleError(f"index {i!r} outside [1, {K}]", k, j, "index", i)
            if i in seen:
                raise SetRuleError("repeated index inside a query set", k, j, "repeat", i)
            seen.add(i)
        for j, c in enumerate(coeffs):
            if not 1 <= c < q:
                text = f"coefficient {c!r} is not a nonzero scalar mod {q}"
                raise SetRuleError(text, k, j, "coefficient", c)


def decode_answer(answer: Answer, state: DecoderState) -> FieldElement:
    """Recover X_W = a * A[demand_slot] + b * Y mod q, the one linear step of
    every scheme of both models, as one expression on word rows; only the
    demand slot's row of the answer is read."""
    Y, slot = state.scenario.Y, state.demand_slot
    demand = 0
    if slot is not None:
        if not 0 <= slot < len(answer.words):
            raise ProtocolError(f"demand slot {slot!r} not present in the answer")
        demand = answer.words[slot].astype(np.int64)
    row = (state.a * demand + state.b * np.array(Y.coeffs, np.int64)) % Y.params.q
    return FieldElement(Y.params, tuple(row.tolist()))


def canonical_fingerprint(query) -> tuple:
    """What the privacy analysis conditions on: the transmitted index sets with
    element order, set order, and coefficients stripped away."""
    return fingerprint_of(query.idx)


def fingerprint_of(index_sets) -> tuple:
    """canonical_fingerprint of bare index sets, such as one query's row of
    draw_structures: rows of ints, or an (n, s) int64 array."""
    if isinstance(index_sets, np.ndarray):
        index_sets = index_sets.tolist()
    return tuple(sorted(tuple(sorted(indices)) for indices in index_sets))
