"""Partition-protocol construction, decoding, and duplicate-class statistics."""
from collections import Counter
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from pircsi import (
    Answer,
    Database,
    FieldParams,
    MODEL_I,
    ParameterError,
    ProtocolError,
    QuerySet,
    audit_exact,
    audit_montecarlo,
    sample_scenario,
)
from pircsi.audit import _Enumeration
from pircsi.draws import RandomDraws
from pircsi.protocols import (
    answer_query,
    build_query,
    canonical_fingerprint,
    decode_answer,
)
from pircsi.pmf import partition_rounds, rp_distribution

from conftest import answer_of, count_bound, message, query_of


def _build(db, K, M, seed):
    rng = Random(seed)
    scenario = sample_scenario(db, M, MODEL_I, rng)
    query, state = build_query(scenario, K, rng)
    return scenario, query, state, rng


def _duplicated(query):
    counts = Counter(i for qs in query.sets for i in qs.indices)
    return {i for i, c in counts.items() if c == 2}


# ------------------------------------------------------------------ structure


@pytest.mark.parametrize("K,M", [(3, 1), (5, 1), (5, 2), (6, 2), (7, 2), (8, 3), (9, 4)])
def test_partition_structure(gf3, K, M):
    db = Database.random(gf3, K, Random(0))
    n, l = partition_rounds(K, M)
    for seed in range(30):
        scenario, query, state, _ = _build(db, K, M, seed)
        assert len(query.sets) == n
        assert all(len(qs.indices) == M + 1 for qs in query.sets)
        counts = Counter(i for qs in query.sets for i in qs.indices)
        assert set(counts) == set(range(1, K + 1))
        assert sorted(counts.values()).count(2) == l
        assert max(counts.values()) <= 2
        # the demand set carries exactly {W}+S with the true coefficients, and
        # the decoder strips Y and divides by W's coefficient: a = c^(-1), b = -a
        demand = query.sets[state.demand_slot]
        want = dict(zip(scenario.S, scenario.C))
        want[scenario.W] = pow(state.a, -1, 3)
        assert sorted(zip(demand.indices, demand.coeffs)) == sorted(want.items())
        assert state.b == -state.a % 3


def test_single_set_when_support_plus_demand_covers(gf3):
    # K=3, M=2: one set holding all three indices, no partition randomness
    db = Database.random(gf3, 3, Random(4))
    scenario, query, state, _ = _build(db, 3, 2, 1)
    assert len(query.sets) == 1
    assert sorted(query.sets[0].indices) == [1, 2, 3]
    assert state.demand_slot == 0


def test_perfect_partition_when_l_is_zero(gf3):
    db = Database.random(gf3, 4, Random(4))
    for seed in range(25):
        scenario, query, state, _ = _build(db, 4, 1, seed)
        assert sorted(len(qs.indices) for qs in query.sets) == [2, 2]
        assert not _duplicated(query)
        demand = set(query.sets[state.demand_slot].indices)
        assert demand == {scenario.W, *scenario.S}


def test_coefficients_are_nonzero_scalars(gf9):
    db = Database.random(gf9, 7, Random(2))
    for seed in range(20):
        _, query, _, _ = _build(db, 7, 2, seed)
        for qs in query.sets:
            assert all(1 <= c <= 2 for c in qs.coeffs)


def test_build_is_seed_deterministic(gf3):
    db = Database.random(gf3, 6, Random(1))
    a = _build(db, 6, 2, 123)
    b = _build(db, 6, 2, 123)
    assert a[1] == b[1] and a[2] == b[2]


# ----------------------------------------------------------- class statistics


def _duplicate_class(query, scenario):
    dups = _duplicated(query)
    assert len(dups) <= 1
    if not dups:
        return (0, 0)
    dup = dups.pop()
    if dup == scenario.W:
        return (0, 0)
    return (1, 0) if dup in scenario.S else (0, 1)


def test_duplicate_class_frequencies_k5_m1(gf3):
    # oracle: rp_distribution(5,1) = 1/5, 2/5, 2/5
    db = Database.random(gf3, 5, Random(3))
    trials = 40_000
    rng = Random(31)
    counts = Counter()
    for _ in range(trials):
        scenario = sample_scenario(db, 1, MODEL_I, rng)
        query, _ = build_query(scenario, 5, rng)
        counts[_duplicate_class(query, scenario)] += 1
    table = rp_distribution(5, 1).table
    assert set(counts) == set(table)
    for cls, p in table.items():
        assert abs(counts[cls] - trials * float(p)) < count_bound(trials, float(p))


def test_two_set_partitions_redraw_outside_duplicates(gf3):
    # K=5, M=2 has n=2: an outside index cannot appear twice across two
    # sets when one of them is the demand set, so the class pmf gives outside
    # repeats no weight: 1/5, 4/5.
    db = Database.random(gf3, 5, Random(3))
    trials = 30_000
    rng = Random(7)
    counts = Counter()
    for _ in range(trials):
        scenario = sample_scenario(db, 2, MODEL_I, rng)
        query, _ = build_query(scenario, 5, rng)
        cls = _duplicate_class(query, scenario)
        assert cls[1] == 0, "outside duplicate in a two-set query"
        counts[cls] += 1
    table = rp_distribution(5, 2).table
    assert table == {(0, 0): Fraction(1, 5), (1, 0): Fraction(4, 5)}
    for cls, p in table.items():
        assert abs(counts[cls] - trials * float(p)) < count_bound(trials, float(p))


# -------------------------------------------------------------------- decode


@pytest.mark.parametrize("q,m", [(3, 1), (5, 1), (3, 2), (7, 2)])
def test_decode_recovers_the_demand(q, m):
    params = FieldParams(q, m)
    rng = Random(q * 10 + m)
    for K in (2, 4, 5, 7, 9):
        db = Database.random(params, K, rng)
        for M in range(0, K, 2):
            scenario = sample_scenario(db, M, MODEL_I, rng)
            query, state = build_query(scenario, K, rng)
            answer = answer_query(db, query)
            assert decode_answer(answer, state) == message(db, scenario.W)


def _gf_rank(rows, q):
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0])
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] % q), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, q)
        mat[rank] = [(x * inv) % q for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] % q:
                f = mat[i][c]
                mat[i] = [(x - f * y) % q for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_demand_lies_in_the_span_of_answers_and_side_information(gf3):
    # independent recoverability witness: over GF(q) the demand unit vector
    # must be a linear combination of the answer rows and the Y row
    K, q = 7, 3
    db = Database.random(gf3, K, Random(6))
    for M in (1, 2, 3):
        for seed in range(15):
            scenario, query, state, _ = _build(db, K, M, seed)
            rows = []
            for qs in query.sets:
                row = [0] * K
                for i, c in zip(qs.indices, qs.coeffs):
                    row[i - 1] = (row[i - 1] + c) % q
                rows.append(row)
            y_row = [0] * K
            for i, c in zip(scenario.S, scenario.C):
                y_row[i - 1] = c
            e_w = [0] * K
            e_w[scenario.W - 1] = 1
            base = _gf_rank(rows + [y_row], q)
            assert _gf_rank(rows + [y_row, e_w], q) == base


def test_corrupted_demand_answer_changes_the_decode(gf9):
    db = Database.random(gf9, 6, Random(5))
    scenario, query, state, _ = _build(db, 6, 1, 9)
    answer = answer_query(db, query)
    good = decode_answer(answer, state)
    words = answer.words.copy()
    words[state.demand_slot, 0] = (words[state.demand_slot, 0] + 1) % 3
    assert decode_answer(Answer(gf9, words), state) != good
    # other slots never feed the decoder
    words = answer.words.copy()
    other = (state.demand_slot + 1) % len(words)
    if other != state.demand_slot:
        words[other, 0] = (words[other, 0] + 1) % 3
        assert decode_answer(Answer(gf9, words), state) == good


def test_answer_hand_value(gf3):
    # X = (1, 2); 2*X_1 + 1*X_2 = 4 = 1 in GF(3)
    db = Database(gf3, [[1], [2]])
    query = query_of([((1, 2), (2, 1))])
    answer = answer_query(db, query)
    assert answer.values == (gf3.element((1,)),)


# -------------------------------------------------------------- fingerprints


def test_fingerprints_strip_order_and_coefficients(gf3):
    db = Database.random(gf3, 4, Random(2))
    seen = set()
    for seed in range(80):
        _, query, _, _ = _build(db, 4, 1, seed)
        seen.add(canonical_fingerprint(query))
    assert seen == {
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    }


def test_ordered_fingerprint_sees_the_set_order(gf3):
    db = Database.random(gf3, 4, Random(2))
    ordered = set()
    canonical = set()
    for seed in range(120):
        _, query, _, _ = _build(db, 4, 1, seed)
        ordered.add(tuple(tuple(sorted(qs.indices)) for qs in query.sets))
        canonical.add(canonical_fingerprint(query))
    # both orders of each pairing occur, so ordered forms outnumber canonical
    assert len(ordered) == 6 and len(canonical) == 3


# ------------------------------------------------------------------- errors


def test_answer_validation(gf3):
    db = Database.random(gf3, 4, Random(0))
    bad = query_of([((1, 1), (1, 1)), ((2, 3), (1, 1))])
    with pytest.raises(ProtocolError):
        answer_query(db, bad)
    bad = query_of([((1, 5), (1, 1)), ((2, 3), (1, 1))])
    with pytest.raises(ProtocolError):
        answer_query(db, bad)
    bad = query_of([((1, 2), (1, 0)), ((3, 4), (1, 1))])
    with pytest.raises(ProtocolError):
        answer_query(db, bad)


def test_decode_validation(gf3):
    db = Database.random(gf3, 4, Random(0))
    _, query, state, _ = _build(db, 4, 1, 3)
    answer = answer_query(db, query)
    short = answer_of(gf3, answer.values[:0])
    with pytest.raises(ProtocolError):
        decode_answer(short, state)


def test_queryset_pairing_is_enforced():
    with pytest.raises(ParameterError):
        QuerySet((1, 2), (1,))


# ------------------------------------------------------------ partition guard

# A tail split with one construction fault, and the partition guard's text
# for it.  At I(12,2) the nine outside indices always split into three
# blocks; the split is the batch one, a (T, 3, 3) array of every trial's
# blocks, and each fault is planted in every trial.
GUARD_TEXTS = {
    "duplicated-and-dropped": "built sets that do not cover the database",
    "repeated-in-a-set": "built a set with a repeated index",
    "one-index-thrice": "built sets with the wrong repeat budget",
    "wrong-size": "built a set of the wrong size",
}


def _broken_split(split, fault):
    def broken(self, seq, size):
        blocks = split(self, seq, size)
        if fault == "duplicated-and-dropped":  # block 0 swaps its first index for block 1's
            blocks[:, 0, 0] = blocks[:, 1, 0]
        elif fault == "repeated-in-a-set":
            blocks[:, 0, 1] = blocks[:, 0, 0]
        elif fault == "one-index-thrice":
            blocks[:, 0, 0] = blocks[:, 2, 0] = blocks[:, 1, 0]
        else:  # every block one index short
            blocks = blocks[:, :, 1:]
        return blocks

    return broken


def _build_one(gf3):
    scenario = sample_scenario(Database.random(gf3, 12, Random(0)), 2, MODEL_I, Random(1))
    return build_query(scenario, 12, Random(2))


@pytest.mark.parametrize("fault", sorted(GUARD_TEXTS))
@pytest.mark.parametrize("caller", ["build_query", "audit_montecarlo", "audit_exact"])
def test_the_partition_guard_refuses_a_broken_split(monkeypatch, gf3, caller, fault):
    # The guard runs once per query in build_query, on each chunk's stack of
    # drawn structures in the screen, and on the first leaf of each
    # fingerprint in the exact auditor, which interprets split itself.  A
    # block of the wrong size is refused where the draw assembles the sets.
    interpreter = _Enumeration if caller == "audit_exact" else RandomDraws
    monkeypatch.setattr(interpreter, "split", _broken_split(interpreter.split, fault))
    run = {
        "build_query": lambda: _build_one(gf3),
        "audit_montecarlo": lambda: audit_montecarlo(MODEL_I, 12, 2, 20, Random(0)),
        "audit_exact": lambda: audit_exact(MODEL_I, 12, 2),
    }[caller]
    with pytest.raises(ProtocolError, match=f"^{GUARD_TEXTS[fault]}$"):
        run()
