"""The query layer of both models, written once.

Both models run one scheme: the client sends index sets with nonzero
base-field coefficients, the server returns one coefficient-weighted sum of
messages per set, and the client recovers X_W = a * A[slot] + b * Y from one
downloaded element A[slot] and its side information Y.  Only the random
structure of the sets differs, so each model module holds only its own
rules, and PROTOCOLS, the one place that picks a module by model, reads two:

    draw_structures(W, S, K, rng)    the (T, n, s) int64 index sets of T >= 1 queries for
                                     (T,) demands and (T, M) supports, in transmitted order,
                                     and the (T,) demand slots (None when no set is sent);
                                     rng is a Random or a draws interpreter, mutants included
    check_sizes(case_tag, sizes, K)  the shape rules on a case tag and set sizes (ShapeError)

build_query runs draw_structures at T = 1, then attach_coefficients over the
same draws.RandomDraws; answer_query, like the server's parser, runs
check_sizes and check_set_arrays, then model.answer_words; decode_answer
computes X_W as one expression on word rows.
"""

from dataclasses import dataclass
from random import Random

import numpy as np

from . import protocol_csi2, protocol_rp
from .draws import draws_from
from .errors import ParameterError, ProtocolError, SetRuleError, ShapeError
from .field import FieldElement
from .model import MODEL_I, MODEL_II, Database, Scenario, answer_words

PROTOCOLS = {MODEL_I: protocol_rp, MODEL_II: protocol_csi2}


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
    """Build one query for the given scenario: its model's draw_structures at
    T = 1, the first model's check_partition on the drawn sets, then
    attach_coefficients over the same draws."""
    protocol = PROTOCOLS.get(scenario.model)
    if protocol is None:
        raise ParameterError(f"unknown model {scenario.model!r}")
    d, S = draws_from(rng), np.array([scenario.S], np.int64)
    sets, slots = protocol.draw_structures(np.array([scenario.W], np.int64), S, K, d)
    if scenario.model == MODEL_I:
        protocol_rp.check_partition(sets[0], K, S.shape[1])
        case_tag = 0
    else:
        case_tag = protocol_csi2.case_for(K, S.shape[1])
    slot = None if slots is None else int(slots[0])
    return attach_coefficients(sets[0], slot, case_tag, S[0], scenario, d)


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


def answer_query(db: Database, query: Query) -> Answer:
    """The server's calls on a query: its model's check_sizes,
    check_set_arrays, and the answer kernel."""
    protocol = PROTOCOLS.get(query.model)
    if protocol is None:
        raise ShapeError(f"unknown model {query.model!r}", "case")
    protocol.check_sizes(query.case_tag, query.sizes, db.K)
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


# The benchmark (perfbench/run.py) times build_query, answer_query and
# decode_answer as attributes of each model module, so both modules hold the
# one functions.  The loop goes when ROADMAP item 2 moves the benchmark here.
for _module in PROTOCOLS.values():
    _module.build_query, _module.answer_query = build_query, answer_query
    _module.decode_answer = decode_answer
