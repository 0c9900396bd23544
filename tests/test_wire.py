"""Golden byte vectors, framing, total decoding, and the loopback server."""
import errno
import io
import socket
import struct
import threading
import time
import tracemalloc
from contextlib import ExitStack
from random import Random

import numpy as np
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
    Query,
    WireParseError,
    answer_query,
    build_query,
    decode_answer,
    field,
    protocol_csi2,
    sample_scenario,
    wire,
)

from conftest import answer_of, message, query_of


# ------------------------------------------------------------ golden vectors


def test_frame_golden():
    assert wire.encode_frame(wire.MSG_QUERY, b"ab") == bytes.fromhex("0102000000") + b"ab"
    stream = io.BytesIO(bytes.fromhex("0102000000") + b"ab")
    assert wire._read_frame(stream) == (wire.MSG_QUERY, b"ab")
    assert wire._read_frame(stream) is None  # the peer hung up


def test_model_one_query_golden(gf3):
    # model 01, case 00, n=1, size=3, indices 3,1,2 as u32, coeffs 1,2,2 as u16
    query = query_of([((3, 1, 2), (1, 2, 2))])
    blob = wire.encode_query(query, gf3)
    assert blob == bytes.fromhex(
        "0100" "0100" "0300" "030000000100000002000000" "010002000200"
    )
    assert len(blob) == 24
    assert wire.decode_query(blob, gf3, 3) == query


def test_model_two_query_golden(gf3):
    trivial = query_of([], MODEL_II, protocol_csi2.CASE_TRIVIAL)
    assert wire.encode_query(trivial, gf3) == bytes.fromhex("02000000")

    probe = query_of([((2,), (2,))], MODEL_II, protocol_csi2.CASE_SINGLE)
    blob = wire.encode_query(probe, gf3)
    assert blob == bytes.fromhex("0201" "0100" "0100" "02000000" "0200")
    assert wire.decode_query(blob, gf3, 4) == probe


def test_answer_golden(gf9):
    # count u16, then m=2 u16 words per element, low degree first
    answer = answer_of(gf9, (gf9.element((2, 1)), gf9.element((1, 0))))
    blob = wire.encode_answer(answer)
    assert blob == bytes.fromhex("0200" "02000100" "01000000")
    assert wire.decode_answer(blob, gf9) == answer


def test_hello_golden(gf9):
    blob = wire.encode_hello(gf9, 6)
    assert blob == struct.pack("<III", 3, 2, 6)
    params, K = wire.decode_hello(blob)
    assert params == gf9 and K == 6


def test_hello_for_long_messages_returns_at_once():
    params, K = wire.decode_hello(struct.pack("<III", 257, 6, 40))
    assert (params.q, params.m, params.element_bytes, K) == (257, 6, 12, 40)
    # the longest message one answer frame can carry, and one word more
    widest = (wire.MAX_FRAME_BYTES - 2) // 2
    assert wire.decode_hello(struct.pack("<III", 3, widest, 1))[0].m == widest
    with pytest.raises(WireParseError) as info:
        wire.decode_hello(struct.pack("<III", 3, widest + 1, 1))
    assert info.value.offset == 4


def test_hello_refuses_a_q_beyond_16_bits_before_testing_it(monkeypatch):
    # Trial division of 2^32 - 5, the largest 32-bit prime, took milliseconds.
    tested = []
    monkeypatch.setattr(field, "_is_prime", lambda n: tested.append(n) or True)
    with pytest.raises(WireParseError) as info:
        wire.decode_hello(struct.pack("<III", 2**32 - 5, 1, 8))
    assert info.value.offset == 0
    assert "q must fit in 16 bits" in str(info.value)
    assert tested == []


# ---------------------------------------------------------------- frame edge


def test_frame_errors():
    # A stream that ends inside a frame is a peer that hung up.
    assert wire._read_frame(io.BytesIO(b"\x01\x02\x00")) is None  # short header
    assert wire._read_frame(io.BytesIO(bytes.fromhex("0105000000") + b"ab")) is None  # short payload
    # The frame type is the handler's to refuse (test_unknown_frame_type_yields_error).
    assert wire._read_frame(io.BytesIO(bytes.fromhex("0900000000"))) == (0x09, b"")
    huge = struct.pack("<BI", wire.MSG_QUERY, wire.MAX_FRAME_BYTES + 1)
    with pytest.raises(WireParseError) as info:
        wire._read_frame(io.BytesIO(huge + b"ab"))
    assert info.value.offset == 1


def test_parse_errors_carry_byte_offsets(gf3):
    query = query_of([((3, 1, 2), (1, 2, 2))])
    blob = wire.encode_query(query, gf3)
    for cut in range(len(blob)):
        with pytest.raises(WireParseError) as info:
            wire.decode_query(blob[:cut], gf3, 3)
        assert 0 <= info.value.offset <= cut
        assert "byte" in str(info.value)


@pytest.mark.parametrize(
    "payload,text",
    [
        (b"", "truncated model byte (at byte 0)"),
        (b"\x09", "unknown model byte 9 (at byte 0)"),  # named before the missing case byte
        (b"\x01", "truncated case byte (at byte 1)"),
        (b"\x02\x00", "truncated set count (at byte 2)"),
        (b"\x01\x00\x01", "truncated set count (at byte 2)"),
    ],
)
def test_decode_query_names_a_truncated_head(gf3, payload, text):
    with pytest.raises(WireParseError) as info:
        wire.decode_query(payload, gf3, 3)
    assert str(info.value) == text


@pytest.mark.parametrize("payload", [b"", b"\x01"])
def test_decode_answer_names_a_truncated_count(gf3, payload):
    with pytest.raises(WireParseError) as info:
        wire.decode_answer(payload, gf3)
    assert str(info.value) == "truncated element count (at byte 0)"


@pytest.mark.parametrize(
    "mangle,offset_hint",
    [
        (lambda b: b"\x03" + b[1:], 0),  # unknown model
        (lambda b: b[:1] + b"\x07" + b[2:], 1),  # first-model case must be 0
        (lambda b: b[:6] + b"\x00\x00\x00\x00" + b[10:], 6),  # index 0
        (lambda b: b[:6] + b"\x09\x00\x00\x00" + b[10:], 6),  # index > K
        (lambda b: b[:10] + b[6:10] + b[14:], 10),  # repeated index
        (lambda b: b[:18] + b"\x00\x00" + b[20:], 18),  # zero coefficient
        (lambda b: b[:18] + b"\x03\x00" + b[20:], 18),  # coefficient >= q
        (lambda b: b + b"\x00", 24),  # trailing bytes
    ],
)
def test_decode_query_rejects_mangled_payloads(gf3, mangle, offset_hint):
    query = query_of([((3, 1, 2), (1, 2, 2))])
    blob = wire.encode_query(query, gf3)
    with pytest.raises(WireParseError) as info:
        wire.decode_query(mangle(blob), gf3, 3)
    assert info.value.offset == offset_hint


def test_decode_query_rejects_nonscalar_coefficients(gf9):
    # m=2 coefficient encodings must keep the high word zero
    query = query_of([((1, 2), (1, 2))])
    blob = wire.encode_query(query, gf9)
    bad = blob[:-2] + b"\x01\x00"
    with pytest.raises(WireParseError) as info:
        wire.decode_query(bad, gf9, 2)
    assert "scalar" in str(info.value)


def _three_set_gf25_query():
    # GF(5^2): every coefficient takes two u16 words.  Each set is 18 bytes
    # (size, two u32 indices, two 4-byte coefficients) after a 4-byte head,
    # so the third set's size sits at 40, its indices at 42 and 46, and its
    # coefficients at 50 and 54.
    params = FieldParams(5, 2)
    sets = [((1, 2), (1, 2)), ((3, 4), (3, 4)), ((5, 6), (1, 2))]
    return params, wire.encode_query(query_of(sets), params)


@pytest.mark.parametrize(
    "at,patch,offset,text",
    [
        pytest.param(42, struct.pack("<I", 7), 42, "index 7 outside [1, 6]", id="bad-index"),
        pytest.param(46, struct.pack("<I", 5), 46, "repeated index 5", id="repeat"),
        pytest.param(50, struct.pack("<H", 0), 50, "coefficient 0 outside", id="zero-coeff"),
        pytest.param(56, struct.pack("<H", 1), 54, "not a base-field scalar", id="high-word"),
    ],
)
def test_decode_query_reports_the_slot_in_the_third_set(at, patch, offset, text):
    params, blob = _three_set_gf25_query()
    assert len(blob) == 58
    with pytest.raises(WireParseError) as info:
        wire.decode_query(blob[:at] + patch + blob[at + len(patch) :], params, 6)
    assert info.value.offset == offset
    assert text in str(info.value)


def test_decode_answer_reports_the_bad_element_offset():
    params = FieldParams(5, 2)
    answer = answer_of(params, [params.element((j, j + 1)) for j in range(3)])
    blob = wire.encode_answer(answer)
    assert wire.decode_answer(blob, params) == answer
    # the last element starts at 2 + 2 * 4 = 10; plant 5 in its high word
    bad = blob[:12] + struct.pack("<H", 5)
    with pytest.raises(WireParseError) as info:
        wire.decode_answer(bad, params)
    assert info.value.offset == 10
    assert "out of range" in str(info.value)
    # a bad element is named before a short run is reported as truncated
    with pytest.raises(WireParseError) as info:
        wire.decode_answer(b"\x04\x00" + bad[2:], params)
    assert info.value.offset == 10
    with pytest.raises(WireParseError) as info:
        wire.decode_answer(b"\x04\x00" + blob[2:], params)
    assert info.value.offset == 14 and "truncated" in str(info.value)


@pytest.mark.parametrize(
    "coeffs,slot",
    [((4, 1), 0), ((1, -2), 1), ((3, 1), 0), ((1, 0), 1), ((1, 2**16 + 1), 1), ((1, 1 - 2**16), 1)],
)
def test_encode_query_refuses_coefficients_outside_the_field(gf3, coeffs, slot):
    # They were once reduced mod q, so the server answered another query; the
    # last two would pass as 1 through the frame's u16 cast.
    query = query_of([((1, 2), (1, 2)), ((3, 4), coeffs)])
    with pytest.raises(ParameterError) as info:
        wire.encode_query(query, gf3)
    assert f"coefficient {coeffs[slot]!r} in set 1, slot {slot} " in str(info.value)
    assert "[1, 2]" in str(info.value)


@pytest.mark.parametrize(
    "indices,slot,rule",
    [
        pytest.param((0, 4), 0, "is not an integer in [1, 4294967295]", id="zero"),
        pytest.param((3, -1), 1, "is not an integer in [1, 4294967295]", id="negative"),
        pytest.param((2**32, 4), 0, "is not an integer in [1, 4294967295]", id="2^32"),
        pytest.param((4, 4), 1, "repeats an earlier index of its set", id="repeat"),
    ],
)
def test_encode_query_refuses_bad_indices(gf3, indices, slot, rule):
    # They once went out (0, a repeat) or escaped as a bare struct.error.
    query = query_of([((1, 2), (1, 2)), (indices, (1, 1))])
    with pytest.raises(ParameterError) as info:
        wire.encode_query(query, gf3)
    assert str(info.value) == f"index {indices[slot]!r} in set 1, slot {slot} {rule}"


@pytest.mark.parametrize("case_tag", [300, -1])
def test_encode_query_refuses_a_case_tag_outside_the_byte(gf3, case_tag):
    # It once escaped as a bare struct.error.
    with pytest.raises(ParameterError) as info:
        wire.encode_query(query_of([], MODEL_II, case_tag), gf3)
    assert f"case tag {case_tag}" in str(info.value)


@pytest.mark.parametrize("m", [1024, 20_000])
def test_encode_query_refuses_a_payload_over_the_frame_cap_before_building_it(m):
    # One set of the indices 1..65,535: at m = 1024 its payload of 134 MB
    # was once built in full (a 403 MB peak) only for encode_frame to
    # refuse it, and at m = 20,000 it escaped as a bare ValueError.
    params = FieldParams(3, m)
    idx = np.arange(1, 0x10000, dtype=np.int64).reshape(1, -1)
    query = Query(idx, np.ones_like(idx))
    length = 4 + 2 + 0xFFFF * (4 + 2 * m)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError) as info:
            wire.encode_query(query, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"payload of {length} bytes exceeds the frame cap"
    assert peak < 4 << 20


def test_decode_query_rejects_bad_shapes(gf3):
    # unequal set sizes in a first-model query
    blob = bytes.fromhex(
        "0100" "0200"
        "0200" "0100000002000000" "01000100"
        "0100" "03000000" "0100"
    )
    with pytest.raises(WireParseError):
        wire.decode_query(blob, gf3, 3)
    # second-model case tag out of range, and a first-model query with case 1:
    # check_sizes refuses both, at the case byte
    with pytest.raises(WireParseError) as info:
        wire.decode_query(bytes.fromhex("02090000"), gf3, 3)
    assert info.value.offset == 1
    blob = wire.encode_query(query_of([((3, 1, 2), (1, 2, 2))]), gf3)
    with pytest.raises(WireParseError) as info:
        wire.decode_query(blob[:1] + b"\x01" + blob[2:], gf3, 3)
    assert info.value.offset == 1
    # single-probe case with two sets
    blob = bytes.fromhex("0201" "0200" "0100" "01000000" "0100" "0100" "02000000" "0100")
    with pytest.raises(WireParseError):
        wire.decode_query(blob, gf3, 3)
    # empty first-model query
    with pytest.raises(WireParseError):
        wire.decode_query(bytes.fromhex("01000000"), gf3, 3)


def test_widest_set_parses_in_linear_time(gf3):
    # The u16 size field allows 65,535 distinct indices in one set: a
    # 393,222-byte payload, under the frame cap.
    K = 65_535
    indices = list(range(K, 0, -1))
    blob = wire.encode_query(query_of([(indices, [1] * K)]), gf3)
    assert len(blob) == 6 + 6 * K
    t0 = time.perf_counter()
    query = wire.decode_query(blob, gf3, K)
    elapsed = time.perf_counter() - t0
    assert query.sets[0].indices == tuple(indices)
    assert elapsed < 1.0  # a quadratic scan takes tens of seconds here
    # a repeat in the last slot is still found, at that slot's offset
    last = 6 + 4 * (K - 1)
    repeated = blob[:last] + struct.pack("<I", indices[0]) + blob[last + 4 :]
    with pytest.raises(WireParseError) as info:
        wire.decode_query(repeated, gf3, K)
    assert info.value.offset == last
    assert f"repeated index {K} inside a set" in str(info.value)


def test_the_walk_locates_a_fault_in_the_last_of_65535_sets_in_linear_time(gf9):
    # 65,535 one-index sets over GF(9), 10 bytes each: a 655,354-byte
    # payload, under the frame cap.  A high word or a second set size sends
    # it down the set-by-set walk.
    n = 0xFFFF
    blob = wire.encode_query(query_of([((1,), (1,))] * n), gf9)
    assert len(blob) == 4 + 10 * n
    high = blob[:-2] + struct.pack("<H", 1)  # the last coefficient's high word
    wider = blob[:-10] + struct.pack("<HII4H", 2, 1, 2, 1, 0, 1, 0)  # a last set of two
    for payload, offset, text in [
        (high, len(blob) - 4, "coefficient is not a base-field scalar"),
        (wider, 4, "first-model sets must share one size"),
    ]:
        t0 = time.perf_counter()
        with pytest.raises(WireParseError) as info:
            wire.decode_query(payload, gf9, 2)
        assert time.perf_counter() - t0 < 1.0
        assert str(info.value) == f"{text} (at byte {offset})"


def test_random_bytes_never_crash_the_decoder(gf3):
    rng = Random(0)
    for _ in range(20_000):
        blob = rng.randbytes(rng.randrange(0, 60))
        try:
            query = wire.decode_query(blob, gf3, 5)
        except WireParseError:
            continue
        # the rare structurally valid blob must re-encode identically
        assert wire.encode_query(query, gf3) == blob


@st.composite
def _near_valid_payloads(draw):
    """(params, K, payload): a valid query payload over GF(3) or GF(9), of
    either model and possibly of no sets, that one fault may break: a last
    set of another size, a high coefficient word, a set-rule fault, another
    case byte, a cut, or a trailing byte."""
    params = draw(st.sampled_from([FieldParams(3), FieldParams(3, 2)]))
    K, model_byte = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2]))
    size = draw(st.integers(1, K))
    if model_byte == 1:
        case, n = 0, draw(st.integers(0, 3))
    else:
        case = draw(st.sampled_from(protocol_csi2.CASE_TAGS))
        n, fixed = protocol_csi2.case_shape(case, K)
        size = fixed or size
    fault = draw(st.sampled_from(["none", "none", "mixed", "high", "rule", "case", "cut", "trail"]))
    if fault == "case":
        case = draw(st.integers(0, 255))
    blob = bytearray(struct.pack("<BBH", model_byte, case, n))
    for k in range(n):
        last = k == n - 1
        s = size + (fault == "mixed" and last)
        indices = draw(st.permutations(range(1, max(K, s) + 1)))[:s]
        coeffs = [draw(st.integers(1, 2)) for _ in range(s)]
        high = [0] * s
        j = draw(st.integers(0, s - 1))
        if fault == "rule" and last:
            if draw(st.booleans()):
                indices[j] = draw(st.integers(0, K + 1))
            else:
                coeffs[j] = draw(st.sampled_from([0, 3]))
        high[j] = int(fault == "high" and last)
        blob += struct.pack(f"<H{s}I", s, *indices)
        for c, h in zip(coeffs, high):
            blob += struct.pack(f"<{params.m}H", c, *[h] * (params.m - 1))
    if fault == "cut":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif fault == "trail":
        blob.append(draw(st.integers(0, 255)))
    return params, K, bytes(blob)


@settings(max_examples=400, deadline=None)
@given(_near_valid_payloads())
def test_property_an_accepted_payload_is_its_query_encoded(case):
    # One parser: whatever decode_query accepts, by whichever path, is
    # written back byte for byte by encode_query.
    params, K, blob = case
    try:
        query = wire.decode_query(blob, params, K)
    except WireParseError:
        return
    assert wire.encode_query(query, params) == blob


# ---------------------------------------------------------------- round trips


def _random_query(params, K, rng):
    if rng.random() < 0.5:
        M = rng.randrange(0, K)
        db = Database.random(params, K, rng)
        scenario = sample_scenario(db, M, MODEL_I, rng)
    else:
        M = rng.randrange(1, K + 1)
        db = Database.random(params, K, rng)
        scenario = sample_scenario(db, M, MODEL_II, rng)
    query, _ = build_query(scenario, K, rng)
    return query


def test_query_round_trip_both_models():
    rng = Random(42)
    fields = [FieldParams(3), FieldParams(5), FieldParams(3, 2), FieldParams(7, 2)]
    for _ in range(800):
        params = rng.choice(fields)
        K = rng.randrange(2, 9)
        query = _random_query(params, K, rng)
        blob = wire.encode_query(query, params)
        assert wire.decode_query(blob, params, K) == query


def test_answer_round_trip_lengths():
    rng = Random(43)
    for params in (FieldParams(3), FieldParams(5, 2), FieldParams(11, 3)):
        for count in (0, 1, 2, 5):
            rows = [[rng.randrange(params.q) for _ in range(params.m)] for _ in range(count)]
            answer = answer_of(params, list(map(params.element, rows)))
            blob = wire.encode_answer(answer)
            assert len(blob) == 2 + count * params.element_bytes
            assert wire.decode_answer(blob, params) == answer


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2)]), st.integers(2, 8))
def test_property_wire_round_trip(seed, field, K):
    params = FieldParams(*field)
    query = _random_query(params, K, Random(seed))
    blob = wire.encode_query(query, params)
    assert wire.decode_query(blob, params, K) == query


# -------------------------------------------------------------------- server


def test_default_port_env_override(monkeypatch):
    monkeypatch.delenv("PIRCSI_PORT", raising=False)
    assert wire.default_port() == 7641
    monkeypatch.setenv("PIRCSI_PORT", "9999")
    assert wire.default_port() == 9999
    for value in ("", "port", "65536", "+80", "\u00b2"):
        monkeypatch.setenv("PIRCSI_PORT", value)
        with pytest.raises(ParameterError, match="PIRCSI_PORT"):
            wire.default_port()


def test_loopback_round_trip(gf9):
    rng = Random(10)
    db = Database.random(gf9, 6, rng)
    with wire.PirServer(db, port=0) as server:
        params, K = wire.hello(server.address)
        assert params == gf9 and K == 6
        for model, M in ((MODEL_I, 2), (MODEL_II, 3), (MODEL_II, 1)):
            scenario = sample_scenario(db, M, model, rng)
            query, state = build_query(scenario, K, rng)
            answer = wire.fetch(server.address, query, params)
            assert decode_answer(answer, state) == message(db, scenario.W)


def test_fetch_discovers_params_when_omitted(gf3):
    rng = Random(11)
    db = Database.random(gf3, 5, rng)
    with wire.PirServer(db, port=0) as server:
        scenario = sample_scenario(db, 1, MODEL_II, rng)
        query, state = build_query(scenario, 5, rng)
        answer = wire.fetch(server.address, query)
        assert decode_answer(answer, state) == message(db, scenario.W)


def test_server_rejects_invalid_queries_and_keeps_serving(gf3):
    db = Database.random(gf3, 4, Random(12))
    with wire.PirServer(db, port=0) as server:
        bad = query_of([((1, 1), (1, 1)), ((2, 3), (1, 1))])
        with pytest.raises(ProtocolError):
            wire.fetch(server.address, bad, gf3)
        # the next request on a fresh connection still succeeds
        assert wire.hello(server.address) == (gf3, 4)


def test_a_server_on_a_busy_port_raises_the_bind_error(gf3):
    # It once raised AttributeError from server_close, hiding the OSError.
    db = Database.random(gf3, 4, Random(13))
    with wire.PirServer(db, port=0) as server:
        with pytest.raises(OSError) as info:
            wire.PirServer(db, port=server.address[1])
    assert info.value.errno == errno.EADDRINUSE


SERVED_FIELDS = [(3, 1), (5, 2), (257, 4)]
SERVED_K = 12


@pytest.fixture(scope="module")
def served():
    """A running server per field, keyed (q, m), with its database."""
    with ExitStack() as stack:
        running = {}
        for q, m in SERVED_FIELDS:
            db = Database.random(FieldParams(q, m), SERVED_K, Random(q))
            running[q, m] = db, stack.enter_context(wire.PirServer(db, port=0))
        yield running


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(SERVED_FIELDS),
    model=st.sampled_from([MODEL_I, MODEL_II]),
    seed=st.integers(0, 2**32 - 1),
    corruption=st.sampled_from(["none", "byte", "truncate", "append"]),
    data=st.data(),
)
def test_property_the_server_replies_as_the_in_process_path(
    served, field, model, seed, corruption, data
):
    db, server = served[field]
    K = db.K
    M = data.draw(st.integers(0, K - 1) if model == MODEL_I else st.integers(1, K))
    rng = Random(seed)
    query, _ = build_query(sample_scenario(db, M, model, rng), K, rng)
    payload = bytearray(wire.encode_query(query, db.params))
    if corruption == "byte":
        payload[data.draw(st.integers(0, len(payload) - 1))] = data.draw(st.integers(0, 255))
    elif corruption == "truncate":
        del payload[data.draw(st.integers(0, len(payload) - 1)) :]
    elif corruption == "append":
        payload += data.draw(st.binary(min_size=1, max_size=12))
    payload = bytes(payload)

    reply = wire._exchange(server.address, wire.MSG_QUERY, payload)
    try:
        parsed = wire.decode_query(payload, db.params, K)
    except WireParseError as fault:
        assert reply == (wire.MSG_ERROR, str(fault).encode())
    else:
        if corruption == "none":
            assert parsed == query
        expected = wire.encode_answer(answer_query(db, parsed))
        assert wire.encode_frame(*reply) == wire.encode_frame(wire.MSG_ANSWER, expected)


def _read_frame(sock):
    head = b""
    while len(head) < 5:
        chunk = sock.recv(5 - len(head))
        if not chunk:
            return None
        head += chunk
    msg_type, length = struct.unpack("<BI", head)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            return None
        body += chunk
    return msg_type, body


def test_connection_survives_a_parse_error(gf3):
    db = Database.random(gf3, 4, Random(13))
    with wire.PirServer(db, port=0) as server:
        with socket.create_connection(server.address) as sock:
            sock.sendall(wire.encode_frame(wire.MSG_QUERY, b"\xff\xff"))
            msg_type, body = _read_frame(sock)
            assert msg_type == wire.MSG_ERROR
            sock.sendall(wire.encode_frame(wire.MSG_HELLO, b""))
            msg_type, body = _read_frame(sock)
            assert msg_type == wire.MSG_HELLO
            assert wire.decode_hello(body) == (gf3, 4)


@pytest.mark.parametrize("m", [16_383, 20_000])
def test_a_size_field_too_wide_for_a_record_gets_an_error_frame(m, capfd):
    # Over m words the size field 65,535 names a set record of 2 + 4s + 2ms
    # bytes: 2.1 GB, past a C int, at m = 16,383 (once a negative record
    # size) and 2.6 GB at m = 20,000 (once a bare ValueError, which the
    # server printed as a traceback before hanging up without a reply).
    params = FieldParams(3, m)
    payload = bytes.fromhex("01000100ffff")
    with pytest.raises(WireParseError) as info:
        wire.decode_query(payload, params, 2)
    assert str(info.value) == "truncated index (at byte 6)"
    db = Database.random(params, 2, Random(22))
    with wire.PirServer(db, port=0) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(wire.encode_frame(wire.MSG_QUERY, payload))
            assert _read_frame(sock) == (wire.MSG_ERROR, b"truncated index (at byte 6)")
            sock.sendall(wire.encode_frame(wire.MSG_HELLO, b""))  # the connection stays open
            assert _read_frame(sock) == (wire.MSG_HELLO, wire.encode_hello(params, 2))
    assert capfd.readouterr().err == ""


def test_oversized_frame_closes_the_connection(gf3):
    db = Database.random(gf3, 4, Random(14))
    with wire.PirServer(db, port=0) as server:
        with socket.create_connection(server.address) as sock:
            sock.sendall(struct.pack("<BI", wire.MSG_QUERY, wire.MAX_FRAME_BYTES + 1))
            msg_type, _ = _read_frame(sock)
            assert msg_type == wire.MSG_ERROR
            assert _read_frame(sock) is None  # server hung up


def test_client_refuses_an_oversized_reply_before_reading_it():
    # A server that declares one byte over the cap and then sends nothing
    # more: the client must give up on the header, not wait for the body.
    with socket.create_server(("127.0.0.1", 0)) as listener:
        done = threading.Event()

        def declare_and_stall():
            conn, _ = listener.accept()
            with conn:
                conn.recv(64)
                conn.sendall(struct.pack("<BI", wire.MSG_HELLO, wire.MAX_FRAME_BYTES + 1))
                done.wait(15)

        server = threading.Thread(target=declare_and_stall, daemon=True)
        server.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ProtocolError, match="exceeds the frame cap"):
                wire.hello(listener.getsockname())
            assert time.perf_counter() - start < 2
        finally:
            done.set()
            server.join(5)
        assert not server.is_alive()


def test_unknown_frame_type_yields_error(gf3):
    db = Database.random(gf3, 4, Random(15))
    with wire.PirServer(db, port=0) as server:
        with socket.create_connection(server.address) as sock:
            sock.sendall(wire.encode_frame(wire.MSG_ANSWER, b""))
            msg_type, _ = _read_frame(sock)
            assert msg_type == wire.MSG_ERROR


def test_concurrent_clients(gf9):
    db = Database.random(gf9, 8, Random(16))
    failures = []

    def worker(seed):
        try:
            rng = Random(seed)
            for _ in range(3):
                scenario = sample_scenario(db, 2, MODEL_I, rng)
                query, state = build_query(scenario, 8, rng)
                answer = wire.fetch(server.address, query, db.params)
                if decode_answer(answer, state) != message(db, scenario.W):
                    failures.append(seed)
        except Exception as exc:  # noqa: BLE001 - collect everything
            failures.append((seed, exc))

    with wire.PirServer(db, port=0) as server:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not failures


def test_idle_client_is_disconnected(gf3, monkeypatch, capfd):
    monkeypatch.setattr(wire._Handler, "timeout", 0.3)
    db = Database.random(gf3, 4, Random(17))
    with wire.PirServer(db, port=0) as server:
        with socket.create_connection(server.address, timeout=5) as silent:
            start = time.perf_counter()
            assert silent.recv(1) == b""  # the server hung up
            assert time.perf_counter() - start < 3
            # the server still answers the next client
            assert wire.hello(server.address) == (gf3, 4)
    assert "Traceback" not in capfd.readouterr().err


def test_a_client_reset_leaves_nothing_on_stderr(gf3, capfd):
    # socketserver once printed "Exception occurred during processing of
    # request" for a client that reset its connection mid-exchange.
    db = Database.random(gf3, 4, Random(21))
    with wire.PirServer(db, port=0) as server:
        srv = server._server
        for _ in range(5):
            client = socket.create_connection(server.address, timeout=5)
            client.sendall(wire.encode_frame(wire.MSG_HELLO, b"") * 2000)
            # linger 0: close sends a reset, whatever is still unread
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            client.close()
        deadline = time.perf_counter() + 5
        while srv._open:  # each handler has ended, its error handled
            assert time.perf_counter() < deadline, "a reset connection is still open"
            time.sleep(0.01)
        assert wire.hello(server.address) == (gf3, 4)
    wire._drop()
    assert capfd.readouterr().err == ""


# ------------------------------------------------------- kept connections


class _Connections:
    """The (server, client address) of every connection a PirServer's
    handler took up, and of every one whose handler has ended."""

    def __init__(self):
        self.opened = []
        self.closed = []

    def wait_closed(self, entry, seconds=5.0):
        deadline = time.perf_counter() + seconds
        while entry not in self.closed:
            assert time.perf_counter() < deadline, f"{entry} is still open"
            time.sleep(0.01)


@pytest.fixture
def connections(monkeypatch):
    log = _Connections()
    setup, finish = wire._Handler.setup, wire._Handler.finish

    def counted_setup(handler):
        log.opened.append((handler.server, handler.client_address))
        setup(handler)

    def counted_finish(handler):
        finish(handler)
        log.closed.append((handler.server, handler.client_address))

    monkeypatch.setattr(wire._Handler, "setup", counted_setup)
    monkeypatch.setattr(wire._Handler, "finish", counted_finish)
    return log


def _retrieve(db, address, seed, fetches):
    """hello, then fetches first-model retrievals from the calling thread;
    True for each that decodes to the demanded message."""
    rng = Random(seed)
    params, K = wire.hello(address)
    decoded = []
    for _ in range(fetches):
        scenario = sample_scenario(db, 2, MODEL_I, rng)
        query, state = build_query(scenario, K, rng)
        answer = wire.fetch(address, query, params)
        decoded.append(decode_answer(answer, state) == message(db, scenario.W))
    return decoded


def test_each_client_thread_keeps_one_connection(gf9, connections):
    db = Database.random(gf9, 8, Random(20))
    with wire.PirServer(db, port=0) as server, wire.PirServer(db, port=0) as other:
        srv = server._server
        assert _retrieve(db, server.address, 1, 50) == [True] * 50
        assert [s for s, _ in connections.opened] == [srv]  # hello and 50 fetches
        mine = connections.opened[0]

        theirs = []
        worker = threading.Thread(
            target=lambda: theirs.extend(_retrieve(db, server.address, 2, 50))
        )
        worker.start()
        worker.join(30)
        assert not worker.is_alive()
        assert theirs == [True] * 50
        assert [s for s, _ in connections.opened] == [srv, srv]  # its own connection
        assert connections.opened[1] != mine

        # This thread's connection is still the one it opened first.
        assert _retrieve(db, server.address, 3, 5) == [True] * 5
        assert len(connections.opened) == 2 and mine not in connections.closed
        # Speaking to another server closes it: that handler sees the end of
        # its stream while its server still runs.
        assert _retrieve(db, other.address, 4, 5) == [True] * 5
        assert connections.opened[-1][0] is other._server
        connections.wait_closed(mine)


def test_a_connection_the_server_closed_is_replaced(gf3, monkeypatch, connections):
    monkeypatch.setattr(wire._Handler, "timeout", 0.3)
    db = Database.random(gf3, 6, Random(21))
    rng = Random(22)
    with wire.PirServer(db, port=0) as server:
        params, K = wire.hello(server.address)
        connections.wait_closed(connections.opened[0])  # the server hung up on it
        scenario = sample_scenario(db, 1, MODEL_I, rng)
        query, state = build_query(scenario, K, rng)
        answer = wire.fetch(server.address, query, params)
        assert decode_answer(answer, state) == message(db, scenario.W)
        assert len(connections.opened) == 2


def test_a_stopped_server_answers_nothing_more(gf3, monkeypatch):
    db = Database.random(gf3, 6, Random(27))
    rng = Random(28)
    with wire.PirServer(db, port=0) as server:
        address = server.address
        params, K = wire.hello(address)
    scenario = sample_scenario(db, 1, MODEL_I, rng)
    query, _ = build_query(scenario, K, rng)

    # The stopped server hung up on the kept connection and listens no more:
    # the fetch fails as a fresh connection would, after one attempt.
    attempts = []
    create_connection = socket.create_connection

    def counted(*args, **kwargs):
        attempts.append(args[0])
        return create_connection(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted)
    start = time.perf_counter()
    with pytest.raises(ConnectionRefusedError):
        wire.fetch(address, query, params)
    assert time.perf_counter() - start < 2
    assert attempts == [address]


def _scripted_server(listener, db, plans, after):
    """Accept one connection per plan.  On each, read a query frame per step
    and reply: "answer" with the whole answer frame, "half" with its first
    half only, "error" with an ERROR frame, "hello" with a HELLO frame.  Then
    append to after what the connection brings next: None when the client
    closes it."""
    for plan in plans:
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10)
            for step in plan:
                _, payload = _read_frame(conn)
                if step == "error":
                    conn.sendall(wire.encode_frame(wire.MSG_ERROR, b"refused by the script"))
                    continue
                if step == "hello":
                    conn.sendall(wire.encode_frame(wire.MSG_HELLO, wire.encode_hello(db.params, db.K)))
                    continue
                query = wire.decode_query(payload, db.params, db.K)
                body = wire.encode_answer(answer_query(db, query))
                frame = wire.encode_frame(wire.MSG_ANSWER, body)
                conn.sendall(frame if step == "answer" else frame[: len(frame) // 2])
            after.append(_read_frame(conn))


def _run_script(db, plans, client):
    """Run client against a scripted server; returns what each connection
    brought after its plan."""
    after = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        stub = threading.Thread(
            target=_scripted_server, args=(listener, db, plans, after), daemon=True
        )
        stub.start()
        try:
            client(listener.getsockname())
        finally:
            wire._drop()  # the last connection ends, so the script can finish
            stub.join(15)
        assert not stub.is_alive()
    return after


def _one_retrieval(db, rng):
    scenario = sample_scenario(db, 1, MODEL_I, rng)
    query, state = build_query(scenario, db.K, rng)
    return query, lambda answer: decode_answer(answer, state) == message(db, scenario.W)


@pytest.mark.parametrize(
    "first,fault",
    [
        pytest.param("half", TimeoutError, id="stalled-half-answer"),
        pytest.param("hello", ProtocolError, id="wrong-reply-type"),
    ],
)
def test_a_connection_out_of_step_is_never_read_again(gf3, monkeypatch, first, fault):
    monkeypatch.setattr(wire, "_CLIENT_TIMEOUT", 0.3)
    db = Database.random(gf3, 6, Random(23))
    rng = Random(24)

    def client(address):
        query, _ = _one_retrieval(db, rng)
        start = time.perf_counter()
        with pytest.raises(fault):
            wire.fetch(address, query, gf3)
        assert time.perf_counter() - start < 3
        query, decodes = _one_retrieval(db, rng)
        assert decodes(wire.fetch(address, query, gf3))

    # The first connection is closed, not sent the next query; the second
    # fetch gets its own answer on a second connection.
    assert _run_script(db, [[first], ["answer"]], client) == [None, None]


def test_an_error_reply_keeps_the_connection(gf3, monkeypatch):
    monkeypatch.setattr(wire, "_CLIENT_TIMEOUT", 3)
    db = Database.random(gf3, 6, Random(25))
    rng = Random(26)

    def client(address):
        query, _ = _one_retrieval(db, rng)
        with pytest.raises(ProtocolError, match="refused by the script"):
            wire.fetch(address, query, gf3)
        for _ in range(2):
            query, decodes = _one_retrieval(db, rng)
            assert decodes(wire.fetch(address, query, gf3))

    assert _run_script(db, [["error", "answer", "answer"]], client) == [None]
