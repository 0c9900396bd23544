"""The shared answer kernel: equivalence with a word-by-word reference, the
int64 accumulation bound, and the exact rejection of malformed sets."""
import struct
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pircsi import (
    CASE_DISJOINT,
    CASE_FULL,
    Database,
    FieldParams,
    MODEL_I,
    MODEL_II,
    ProtocolError,
    protocol_csi2,
    protocol_rp,
    sample_scenario,
)

from conftest import query_of

FIELDS = [(3, 1), (5, 2), (257, 4), (65521, 3)]


def _reference(messages, qs, q):
    """sum(c * x) mod q, word by word, over the caller's own message list."""
    words = [0] * len(messages[0])
    for i, c in zip(qs.indices, qs.coeffs):
        for k, x in enumerate(messages[i - 1]):
            words[k] += c * x
    return tuple(w % q for w in words)


def _check_against_reference(model, field, K, M, seed):
    params = FieldParams(*field)
    rng = Random(seed)
    messages = [tuple(rng.randrange(params.q) for _ in range(params.m)) for _ in range(K)]
    db = Database(params, messages)
    protocol = protocol_rp if model == MODEL_I else protocol_csi2
    scenario = sample_scenario(db, M, model, rng)
    query, state = protocol.build_query(scenario, K, rng)
    answer = protocol.answer_query(db, query)
    assert len(answer.values) == len(query.sets)
    for qs, got in zip(query.sets, answer.values):
        assert got.params == params
        assert got.coeffs == _reference(messages, qs, params.q)
        assert all(type(w) is int for w in got.coeffs)
    decoded = protocol.decode_answer(answer, state)
    assert decoded == params.element(messages[scenario.W - 1])
    assert all(type(w) is int for w in decoded.coeffs)


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    model=st.sampled_from([MODEL_I, MODEL_II]),
    K=st.integers(2, 14),
    data=st.data(),
)
def test_property_kernel_matches_the_reference(field, model, K, data):
    M = data.draw(st.integers(0, K - 1) if model == MODEL_I else st.integers(1, K))
    _check_against_reference(model, field, K, M, data.draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("M", range(1, 9))
def test_every_second_model_case_matches_the_reference(field, M):
    # K = 8: M = 1 trivial (no sets), 2 single probe, 3-4 disjoint, 5-7 overlap, 8 full
    _check_against_reference(MODEL_II, field, 8, M, seed=M)


def test_extreme_values_stay_exact():
    # Every word and coefficient is q - 1 = 65,520 and one set holds all
    # 65,535 indices: (q-1)^2 = 1 mod q, so the answer is 65,535 mod q = 14.
    q, K = 65521, 65535
    db = Database.from_bytes(struct.pack("<III", q, 1, K) + struct.pack("<H", q - 1) * K)
    everything = [(range(1, K + 1), [q - 1] * K)]
    expect = (db.params.element((14,)),)
    assert protocol_rp.answer_query(db, query_of(everything)).values == expect
    full = query_of(everything, MODEL_II, CASE_FULL)
    assert protocol_csi2.answer_query(db, full).values == expect


def test_database_words_are_read_only():
    params = FieldParams(5, 2)
    for db in (
        Database(params, np.zeros((4, 2), np.int64)),
        Database.random(params, 4, Random(1)),
        Database.from_bytes(bytearray(Database.random(params, 4, Random(1)).to_bytes())),
    ):
        assert db.words.shape == (4, 2)
        with pytest.raises(ValueError):
            db.words[0, 0] = 1
        with pytest.raises(ValueError):
            db.words.flags.writeable = True


# ------------------------------------------------------------------ rejection

K = 5
GOOD = [((1, 2, 3), (1, 2, 3)), ((3, 4, 5), (4, 1, 2))]

# (indices, coefficients) of a faulty set of three, and the exact message.
FAULTS = [
    pytest.param((1, 1, 2), (1, 1, 1), "repeated index inside a query set", id="repeat"),
    pytest.param((0, 1, 2), (1, 1, 1), "index 0 outside [1, 5]", id="index-0"),
    pytest.param((1, 6, 2), (1, 1, 1), "index 6 outside [1, 5]", id="index-K+1"),
    pytest.param((1, 2, 3), (1, 0, 1), "coefficient 0 is not a nonzero scalar mod 5", id="coeff-0"),
    pytest.param((1, 2, 3), (1, 1, 5), "coefficient 5 is not a nonzero scalar mod 5", id="coeff-q"),
]


@pytest.fixture(scope="module")
def db():
    return Database.random(FieldParams(5), K, Random(3))


@pytest.mark.parametrize("indices,coeffs,message", FAULTS)
def test_rejection_text_in_a_lone_set(db, indices, coeffs, message):
    query = query_of([(indices, coeffs)])
    with pytest.raises(ProtocolError) as info:
        protocol_rp.answer_query(db, query)
    assert str(info.value) == message


@pytest.mark.parametrize("indices,coeffs,message", FAULTS)
def test_rejection_text_in_the_last_of_several_sets(db, indices, coeffs, message):
    query = query_of([*GOOD, (indices, coeffs)])
    with pytest.raises(ProtocolError) as info:
        protocol_rp.answer_query(db, query)
    assert str(info.value) == message
    pair = query_of([GOOD[0], (indices, coeffs)], MODEL_II, CASE_DISJOINT)
    with pytest.raises(ProtocolError) as info:
        protocol_csi2.answer_query(db, pair)
    assert str(info.value) == message


def test_first_fault_in_set_order_is_named(db):
    query = query_of([GOOD[0], ((1, 2, 3), (1, 0, 1)), ((0, 1, 2), (1, 1, 1))])
    with pytest.raises(ProtocolError, match=r"^coefficient 0 is not"):
        protocol_rp.answer_query(db, query)


def test_bool_entries_count_as_ints(db):
    # bool is an int subclass, so True stands for 1 as it always has
    query = query_of([((True, 2), (2, True))])
    plain = query_of([((1, 2), (2, 1))])
    assert protocol_rp.answer_query(db, query) == protocol_rp.answer_query(db, plain)
