"""Second-model protocol: case routing, constructions, and decode formulas."""
from random import Random

import pytest

from pircsi import (
    Database,
    FieldParams,
    MODEL_II,
    ParameterError,
    ProtocolError,
    Scenario,
    WireParseError,
    sample_scenario,
    wire,
)
from pircsi.protocol_csi2 import (
    CASE_DISJOINT,
    CASE_FULL,
    CASE_OVERLAP,
    CASE_SINGLE,
    CASE_TRIVIAL,
    answer_query,
    build_query,
    case_for,
    decode_answer,
    download_cost,
)

from conftest import answer_of, count_bound, message, query_of


def _round_trip(db, M, seed):
    rng = Random(seed)
    scenario = sample_scenario(db, M, MODEL_II, rng)
    query, state = build_query(scenario, db.K, rng)
    answer = answer_query(db, query)
    return scenario, query, state, answer, decode_answer(answer, state)


# ------------------------------------------------------------------- routing


def test_case_routing():
    assert case_for(5, 1) == CASE_TRIVIAL
    assert case_for(2, 2) == CASE_SINGLE  # M=2 wins over M=K
    assert case_for(9, 2) == CASE_SINGLE
    assert case_for(8, 3) == CASE_DISJOINT
    assert case_for(8, 4) == CASE_DISJOINT  # 2M = K sits on the boundary
    assert case_for(8, 5) == CASE_OVERLAP
    assert case_for(7, 4) == CASE_OVERLAP
    assert case_for(8, 7) == CASE_OVERLAP
    assert case_for(3, 3) == CASE_FULL
    assert case_for(8, 8) == CASE_FULL
    with pytest.raises(ParameterError):
        case_for(5, 0)
    with pytest.raises(ParameterError):
        case_for(5, 6)


def test_download_cost_by_case():
    assert download_cost(5, 1) == 0
    assert download_cost(5, 2) == 1
    assert download_cost(8, 3) == 2
    assert download_cost(7, 4) == 2
    assert download_cost(5, 5) == 1


# --------------------------------------------------------------------- cases


def test_trivial_case_sends_nothing(gf9):
    db = Database.random(gf9, 5, Random(8))
    for seed in range(20):
        scenario, query, state, answer, decoded = _round_trip(db, 1, seed)
        assert query.sets == () and query.case_tag == CASE_TRIVIAL
        assert answer.values == ()
        assert decoded == message(db, scenario.W)


def test_single_probe_case(gf3):
    K, trials = 4, 40_000
    db = Database.random(gf3, K, Random(8))
    rng = Random(21)
    hits = 0
    partners = 0
    for _ in range(trials):
        scenario = sample_scenario(db, 2, MODEL_II, rng)
        query, state = build_query(scenario, K, rng)
        assert query.case_tag == CASE_SINGLE
        assert len(query.sets) == 1 and len(query.sets[0].indices) == 1
        probe = query.sets[0].indices[0]
        assert probe in scenario.S
        if probe == scenario.W:
            hits += 1
        else:
            partners += 1
        answer = answer_query(db, query)
        assert decode_answer(answer, state) == message(db, scenario.W)
    # the demand itself is probed with probability exactly 1/K
    assert abs(hits - trials / K) < count_bound(trials, 1 / K)
    assert partners == trials - hits


def test_disjoint_cover_case(gf3):
    K, M, trials = 8, 3, 20_000
    db = Database.random(gf3, K, Random(1))
    rng = Random(33)
    with_demand = 0
    for _ in range(trials):
        scenario = sample_scenario(db, M, MODEL_II, rng)
        query, state = build_query(scenario, K, rng)
        assert query.case_tag == CASE_DISJOINT
        sizes = [len(qs.indices) for qs in query.sets]
        assert sizes == [M - 1, M - 1]
        known = query.sets[state.demand_slot]
        rest = set(scenario.S) - {scenario.W}
        assert sorted(known.indices) == sorted(rest)
        own = dict(zip(scenario.S, scenario.C))
        assert all(c == own[i] for i, c in zip(known.indices, known.coeffs))
        cover = query.sets[1 - state.demand_slot]
        assert set(cover.indices).isdisjoint(rest)
        if scenario.W in cover.indices:
            with_demand += 1
        answer = answer_query(db, query)
        assert decode_answer(answer, state) == message(db, scenario.W)
    # cover includes the demand with probability 2(M-1)/K = 1/2 here
    assert abs(with_demand - trials / 2) < count_bound(trials, 0.5)


def test_overlap_cover_case():
    params = FieldParams(5)
    K, M, trials = 5, 3, 20_000
    db = Database.random(params, K, Random(2))
    rng = Random(34)
    with_demand = 0
    for _ in range(trials):
        scenario = sample_scenario(db, M, MODEL_II, rng)
        query, state = build_query(scenario, K, rng)
        assert query.case_tag == CASE_OVERLAP
        sizes = [len(qs.indices) for qs in query.sets]
        assert sizes == [M, M]
        known = query.sets[state.demand_slot]
        assert sorted(known.indices) == sorted(scenario.S)
        own = dict(zip(scenario.S, scenario.C))
        for i, c in zip(known.indices, known.coeffs):
            if i == scenario.W:
                # fresh coefficient, never the true one; the decoder divides
                # by the difference
                assert c != own[i] and (c - own[i]) * state.a % 5 == 1
            else:
                assert c == own[i]
        cover = set(query.sets[1 - state.demand_slot].indices)
        outside = set(range(1, K + 1)) - set(scenario.S)
        assert outside <= cover
        assert len(cover & set(scenario.S)) == 2 * M - K
        if scenario.W in cover:
            with_demand += 1
        answer = answer_query(db, query)
        assert decode_answer(answer, state) == message(db, scenario.W)
    # the demand joins the cover with probability 1 - 2(K-M)/K = 1/5 here
    assert abs(with_demand - trials / 5) < count_bound(trials, 0.2)


def test_full_support_case():
    params = FieldParams(5, 2)
    K = 4
    db = Database.random(params, K, Random(3))
    for seed in range(25):
        scenario, query, state, answer, decoded = _round_trip(db, K, seed)
        assert query.case_tag == CASE_FULL
        assert len(query.sets) == 1
        qs = query.sets[0]
        assert sorted(qs.indices) == list(range(1, K + 1))
        own = dict(zip(scenario.S, scenario.C))
        for i, c in zip(qs.indices, qs.coeffs):
            if i == scenario.W:
                assert c != own[i]
            else:
                assert c == own[i]
        assert decoded == message(db, scenario.W)


@pytest.mark.parametrize("q,m", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_decode_recovers_across_all_cases(q, m):
    params = FieldParams(q, m)
    rng = Random(q + m)
    for K in (2, 3, 5, 8):
        db = Database.random(params, K, rng)
        for M in range(1, K + 1):
            scenario = sample_scenario(db, M, MODEL_II, rng)
            query, state = build_query(scenario, K, rng)
            answer = answer_query(db, query)
            assert decode_answer(answer, state) == message(db, scenario.W)


@pytest.mark.parametrize("K,M", [(8, 2), (8, 3), (8, 5), (8, 8), (1000, 600)])
def test_a_support_out_of_sorted_order_still_decodes(K, M):
    # attach_coefficients finds each index's own coefficient by index, not by
    # position in a sorted S.
    db = Database.random(FieldParams(7), K, Random(K + M))
    rng = Random(M)
    for _ in range(40 if K < 100 else 3):
        drawn = sample_scenario(db, M, MODEL_II, rng)
        S, C = drawn.S[::-1], drawn.C[::-1]  # the same side information, S descending
        scenario = Scenario(drawn.W, S, C, drawn.Y, MODEL_II)
        query, state = build_query(scenario, K, rng)
        own = dict(zip(S, C))
        sent = query.sets[state.demand_slot]
        assert all(c == own[i] for i, c in zip(sent.indices, sent.coeffs) if i != scenario.W)
        assert decode_answer(answer_query(db, query), state) == message(db, scenario.W)


def test_build_is_seed_deterministic(gf3):
    db = Database.random(gf3, 7, Random(5))
    a = _round_trip(db, 4, 77)
    b = _round_trip(db, 4, 77)
    assert a[1] == b[1] and a[4] == b[4]


# ------------------------------------------------------------------- errors


def test_build_rejects_wrong_model(gf3):
    from pircsi import MODEL_I

    db = Database.random(gf3, 5, Random(0))
    scenario = sample_scenario(db, 2, MODEL_I, Random(1))
    with pytest.raises(ParameterError):
        build_query(scenario, 5, Random(2))


def test_answer_validation(gf3):
    db = Database.random(gf3, 6, Random(0))
    with pytest.raises(ProtocolError):
        answer_query(db, query_of([], MODEL_II, 99))
    # single-probe arity is one set of one index
    bad = query_of([((1, 2), (1, 1))], MODEL_II, CASE_SINGLE)
    with pytest.raises(ProtocolError):
        answer_query(db, bad)
    # paired cases need equal sizes; only a payload can carry unequal ones
    blob = bytes.fromhex(
        "0202" "0200"
        "0200" "0100000002000000" "01000100"
        "0100" "03000000" "0100"
    )
    with pytest.raises(WireParseError, match="paired sets must have equal sizes") as info:
        wire.decode_query(blob, gf3, db.K)
    assert info.value.offset == 4
    # full support means the whole database
    bad = query_of([((1, 2, 3), (1, 1, 1))], MODEL_II, CASE_FULL)
    with pytest.raises(ProtocolError):
        answer_query(db, bad)


def test_decode_validation(gf3):
    db = Database.random(gf3, 8, Random(0))
    scenario, query, state, answer, _ = _round_trip(db, 4, 5)
    with pytest.raises(ProtocolError):
        decode_answer(answer_of(gf3, ()), state)
