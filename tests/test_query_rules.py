"""The query rules are checked once and agree across layers: the wire decoder
rejects exactly the payloads whose sets answer_query rejects, at the slot it
names, and a served fetch checks its sets once on each side."""
import struct
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pircsi import (
    Database,
    FieldParams,
    MODEL_I,
    MODEL_II,
    ParameterError,
    ProtocolError,
    SetRuleError,
    ShapeError,
    WireParseError,
    protocol_csi2,
    protocol_rp,
    sample_scenario,
    wire,
)
from pircsi.protocol_csi2 import CASE_DISJOINT, CASE_TAGS, case_shape

from conftest import message, query_of

FIELDS = [(3, 1), (5, 2), (257, 4)]
FAULTS = [
    "none", "index", "repeat", "coefficient-0", "coefficient-q", "size", "count", "empty", "case"
]


def _pack(model_byte, case, sets, m):
    """The payload of (indices, coefficients) pairs, and the byte offset of
    every index and coefficient slot, keyed (set, slot, is-coefficient), and
    of every set's size field, keyed (set, "size")."""
    blob = bytearray(struct.pack("<BBH", model_byte, case, len(sets)))
    offsets = {}
    for k, (indices, coeffs) in enumerate(sets):
        offsets[k, "size"] = len(blob)
        blob += struct.pack("<H", len(indices))
        for j, i in enumerate(indices):
            offsets[k, j, False] = len(blob)
            blob += struct.pack("<I", i)
        for j, c in enumerate(coeffs):
            offsets[k, j, True] = len(blob)
            blob += struct.pack(f"<{m}H", c, *[0] * (m - 1))
    return bytes(blob), offsets


@st.composite
def _queries_with_a_fault(draw):
    q, m = draw(st.sampled_from(FIELDS))
    K = draw(st.integers(2, 10))
    model = draw(st.sampled_from([MODEL_I, MODEL_II]))
    if model == MODEL_I:
        case, n, size = 0, draw(st.integers(1, 4)), draw(st.integers(1, K))
    else:
        case = draw(st.sampled_from(CASE_TAGS))
        n, size = case_shape(case, K)
        size = size or draw(st.integers(1, K))
    sets = [
        (list(draw(st.permutations(range(1, K + 1)))[:size]),
         [draw(st.integers(1, q - 1)) for _ in range(size)])
        for _ in range(n)
    ]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "case":
        # a first-model query with a second-model case, or an unknown case
        case = draw(st.integers(1, 4) if model == MODEL_I else st.integers(5, 255))
    elif sets and fault != "none":
        k = draw(st.integers(0, len(sets) - 1))
        indices, coeffs = sets[k]
        j = draw(st.integers(0, len(indices) - 1))
        if fault == "index":
            indices[j] = draw(st.sampled_from([0, K + 1, 2**32 - 1]))
        elif fault == "repeat" and j > 0:
            indices[j] = indices[draw(st.integers(0, j - 1))]
        elif fault.startswith("coefficient"):
            coeffs[j] = 0 if fault == "coefficient-0" else q
        elif fault == "size":
            indices.append(draw(st.integers(1, K)))
            coeffs.append(1)
        elif fault == "count" and draw(st.booleans()):
            sets.pop(k)
        elif fault == "count":
            sets.append(sets[k])
        elif fault == "empty":
            indices.clear()
            coeffs.clear()
    elif fault == "count":
        sets.append(([1], [1]))
    return FieldParams(q, m), K, model, case, sets


@settings(max_examples=400, deadline=None)
@given(_queries_with_a_fault())
def test_property_the_decoder_rejects_exactly_what_answer_query_rejects(drawn):
    params, K, model, case, sets = drawn
    blob, offsets = _pack(1 if model == MODEL_I else 2, case, sets, params.m)
    db = Database.random(params, K, Random(0))
    protocol = protocol_rp if model == MODEL_I else protocol_csi2

    try:
        parsed, parse_error = wire.decode_query(blob, params, K), None
    except WireParseError as exc:
        parsed, parse_error = None, exc
    sizes = [len(indices) for indices, _ in sets]
    if len(set(sizes)) > 1:
        # A query's arrays cannot hold sets of different sizes; answer_query
        # would refuse them at its first call that reads sets, check_sizes.
        with pytest.raises(ShapeError) as refused:
            protocol.check_sizes(case, sizes, K)
        query, answer, answer_error = None, None, refused.value
    else:
        query = query_of(sets, model, case)
        try:
            answer, answer_error = protocol.answer_query(db, query), None
        except ProtocolError as exc:
            answer, answer_error = None, exc

    assert (parse_error is None) == (answer_error is None), (parse_error, answer_error)
    if answer_error is None:
        assert parsed == query
        assert protocol.answer_query(db, parsed) == answer
    elif isinstance(answer_error, SetRuleError):
        slot = (answer_error.set_no, answer_error.slot, answer_error.what == "coefficient")
        assert parse_error.offset == offsets[slot]
    else:
        assert isinstance(answer_error, ShapeError)
        # a bad case is refused at the case byte; an empty set is framing to
        # the decoder, reported at its size field
        empty = [offsets[k, "size"] for k, (indices, _) in enumerate(sets) if not indices]
        expected = (1,) if answer_error.part == "case" else (empty[:1] or (2, 4))
        assert parse_error.offset in expected
    # The encoder refuses only queries the server would reject; it sends the
    # same bytes otherwise.
    if query is None:
        return
    try:
        assert wire.encode_query(query, params) == blob
    except ParameterError:
        assert answer_error is not None


@pytest.mark.parametrize("model,case,n", [(MODEL_I, 0, 1), (MODEL_II, CASE_DISJOINT, 2)])
def test_empty_sets_are_refused_by_every_layer(gf3, model, case, n):
    # a first-model query of one empty set and a disjoint-case query of two
    sets = [((), ())] * n
    query = query_of(sets, model, case)
    protocol = protocol_rp if model == MODEL_I else protocol_csi2
    with pytest.raises(ShapeError, match="empty query set") as refused:
        protocol.answer_query(Database.random(gf3, 4, Random(0)), query)
    assert refused.value.part == "size"
    with pytest.raises(ParameterError, match="set 0 is empty"):
        wire.encode_query(query, gf3)
    blob, _ = _pack(1 if model == MODEL_I else 2, case, sets, gf3.m)
    with pytest.raises(WireParseError, match="empty query set") as parsed:
        wire.decode_query(blob, gf3, 4)
    assert parsed.value.offset == 4


@pytest.mark.parametrize("model,M", [(MODEL_I, 2), (MODEL_II, 3)])
def test_each_answer_query_refuses_the_other_models_query(gf3, model, M):
    rng = Random(19)
    db = Database.random(gf3, 8, rng)
    own, other = (protocol_rp, protocol_csi2) if model == MODEL_I else (protocol_csi2, protocol_rp)
    query, _ = own.build_query(sample_scenario(db, M, model, rng), db.K, rng)
    own.answer_query(db, query)
    with pytest.raises(ShapeError, match=f"got {model!r}") as refused:
        other.answer_query(db, query)
    assert refused.value.part == "case"


@pytest.mark.parametrize("model,M", [(MODEL_I, 2), (MODEL_II, 3)])
def test_a_served_fetch_checks_its_sets_once_on_each_side(gf9, monkeypatch, model, M):
    callers = []
    real = protocol_rp.check_set_arrays

    def counting(*args):
        callers.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        return real(*args)

    for module in (protocol_rp, wire):
        monkeypatch.setattr(module, "check_set_arrays", counting)
    rng = Random(18)
    db = Database.random(gf9, 8, rng)
    protocol = protocol_rp if model == MODEL_I else protocol_csi2
    scenario = sample_scenario(db, M, model, rng)
    query, state = protocol.build_query(scenario, db.K, rng)
    with wire.PirServer(db, port=0) as server:
        answer = wire.fetch(server.address, query, db.params)
    assert protocol.decode_answer(answer, state) == message(db, scenario.W)
    # the client's encode, then the server's parse; the answer step checks nothing
    assert callers == [("encode_query", "fetch"), ("decode_query", "_serve")]


def test_sets_of_different_sizes_are_refused(gf3):
    """No model's shape admits sets of different sizes, and a query's arrays
    cannot hold them, so only a payload carries them: the decoder refuses
    it at the first set's size, whatever its entries."""
    for model, case, sets, text in [
        (MODEL_I, 0, [((1, 2, 3), (1, 2, 1)), ((2,), (1,))], "first-model sets must share"),
        (MODEL_I, 0, [((1, 2, 3), (1, 2, 1)), ((4, 4), (1, 1))], "first-model sets must share"),
        (MODEL_II, CASE_DISJOINT, [((1,), (1,)), ((4, 5), (1, 3))], "paired sets must have equal"),
    ]:
        blob, _ = _pack(1 if model == MODEL_I else 2, case, sets, gf3.m)
        with pytest.raises(WireParseError, match=f"^{text}") as refused:
            wire.decode_query(blob, gf3, 5)
        assert refused.value.offset == 4


@pytest.mark.parametrize(
    "model,K,M,q,m,shape",
    [
        pytest.param(MODEL_I, 100, 9, 3, 1, (10, 10), id="I-100-9-GF3"),
        pytest.param(MODEL_I, 1000, 9, 257, 4, (100, 10), id="I-1000-9-GF257^4"),
        pytest.param(MODEL_II, 1000, 600, 257, 4, (2, 600), id="II-1000-600-GF257^4"),
        pytest.param(MODEL_II, 8, 1, 5, 2, (0, None), id="II-no-set"),
        pytest.param(MODEL_II, 8, 2, 5, 2, (1, 1), id="II-single-probe"),
    ],
)
def test_encode_query_writes_the_layout_of_the_pack_oracle(model, K, M, q, m, shape):
    params = FieldParams(q, m)
    rng = Random(K + M)
    db = Database.random(params, K, rng)
    protocol = protocol_rp if model == MODEL_I else protocol_csi2
    query, _ = protocol.build_query(sample_scenario(db, M, model, rng), K, rng)
    sizes = {len(qs.indices) for qs in query.sets}
    assert (len(query.sets), sizes.pop() if sizes else None) == shape
    sets = [(qs.indices, qs.coeffs) for qs in query.sets]
    blob, _ = _pack(1 if model == MODEL_I else 2, query.case_tag, sets, m)
    assert wire.encode_query(query, params) == blob
