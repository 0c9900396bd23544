"""Vector arithmetic over GF(q) against hand-derived values and exhaustive axiom sweeps."""
import struct
import time
from itertools import product
from random import Random

import pytest

from pircsi import FieldParams, ParameterError
from pircsi.field import MAX_Q

from conftest import count_bound


# -------------------------------------------------------------- parameters


def test_params_validation():
    for bad_q in (0, 1, 2, 4, 9, 15):
        with pytest.raises(ParameterError):
            FieldParams(bad_q)
    with pytest.raises(ParameterError):
        FieldParams(3, 0)
    with pytest.raises(ParameterError):
        FieldParams(MAX_Q + 1, 1)
    with pytest.raises(ParameterError):
        FieldParams(3, 2.0)
    # a bool is an int to Python, but no field size: m=True once failed
    # later, in to_bytes, with a bare struct.error
    for bad in [(3, True), (True, 1), (True, True)]:
        with pytest.raises(ParameterError):
            FieldParams(*bad)


def test_params_are_immutable_and_hashable():
    params = FieldParams(3, 2)
    with pytest.raises(AttributeError):
        params.q = 5
    assert params == FieldParams(3, 2)
    assert hash(params) == hash(FieldParams(3, 2))
    assert params != FieldParams(5, 2)
    assert params.element_bytes == 4


def test_long_messages_construct_at_once():
    # (q, m) is validated and stored, nothing more: no search grows with m.
    t0 = time.perf_counter()
    params = FieldParams(65521, 4096)
    FieldParams(257, 6)
    assert time.perf_counter() - t0 < 0.05
    assert params.element_bytes == 8192
    e = params.element(range(4096))
    assert e + e.scale(65520) == params.element([0] * 4096)


# ------------------------------------------------------------- frozen values


def test_gf9_hand_arithmetic():
    gf9 = FieldParams(3, 2)
    # (x+2) + (2x+2) = 3x+4 = 1
    assert gf9.element((2, 1)) + gf9.element((2, 2)) == gf9.scalar(1)
    # (2x+1) - (2x+2) = (2x+1) + 2(2x+2) = 6x+5 = 2
    assert gf9.element((1, 2)) + gf9.element((2, 2)).scale(2) == gf9.scalar(2)
    assert gf9.element((1, 2)).scale(2) == gf9.element((2, 1))


def test_sample_splits_one_draw_into_base_q_digits():
    # One randrange(q^m) per element, first coordinate the lowest digit: the
    # database a seed gives depends on exactly this.
    gf27 = FieldParams(3, 3)
    for seed in range(20):
        v = Random(seed).randrange(27)
        assert gf27.sample(Random(seed)).coeffs == (v % 3, v // 3 % 3, v // 9)


def test_byte_encoding_is_little_endian_u16_per_coefficient():
    gf9 = FieldParams(3, 2)
    e = gf9.element((2, 1))
    blob = e.to_bytes()
    assert blob == struct.pack("<2H", 2, 1)
    assert gf9.element((0, 0)).to_bytes() == bytes(4)


# ------------------------------------------------------- vector-space axioms


@pytest.mark.parametrize("q,m", [(3, 1), (5, 1), (3, 2), (5, 2)])
def test_axioms_exhaustive(q, m):
    params = FieldParams(q, m)
    elems = [params.element(v) for v in product(range(q), repeat=m)]
    zero = params.element((0,) * m)
    scalars = range(q)
    for a, b in product(elems, repeat=2):
        assert a + b == b + a
        assert a + zero == a and a.scale(1) == a and a.scale(0) == zero
        assert a + a.scale(-1) == zero
        for c in scalars:
            assert (a + b).scale(c) == a.scale(c) + b.scale(c)
    for a, b, c in product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
    for a in elems:
        for c, d in product(scalars, repeat=2):
            assert a.scale(c + d) == a.scale(c) + a.scale(d)
            assert a.scale(c * d) == a.scale(d).scale(c)


def test_elements_do_not_multiply():
    gf9 = FieldParams(3, 2)
    a, b = gf9.element((1, 2)), gf9.element((0, 1))
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(TypeError):
        a * 1.0
    # scalars act through scale() alone
    with pytest.raises(TypeError):
        a * 2


def test_elements_from_different_fields_never_mix():
    a = FieldParams(3).scalar(1)
    b = FieldParams(5).scalar(1)
    with pytest.raises(ParameterError):
        a + b
    # the same q with another length is another space
    with pytest.raises(ParameterError):
        FieldParams(3, 2).scalar(1) + FieldParams(3, 3).scalar(1)


def test_scalar_multiplication_embeds_the_base_field():
    gf9 = FieldParams(3, 2)
    e = gf9.element((1, 2))
    assert e.scale(2) == gf9.element((2, 1))
    assert gf9.scalar(2) == gf9.scalar(1).scale(2) == gf9.element((2, 0))
    # integer scalars act through Z -> GF(q), so multiples of q annihilate
    assert e.scale(3) == gf9.element((0, 0))
    assert e.scale(4) == e


# ------------------------------------------------------------------ sampling


def test_sampling_covers_gf9():
    params = FieldParams(3, 2)
    rng = Random(1)
    counts = {}
    trials = 18_000
    for _ in range(trials):
        v = params.sample(rng).coeffs
        counts[v] = counts.get(v, 0) + 1
    assert set(counts) == set(product(range(3), repeat=2))
    for c in counts.values():
        assert abs(c - trials / 9) < count_bound(trials, 1 / 9)


def test_sampling_is_seed_deterministic():
    params = FieldParams(5, 2)
    a = [params.sample(Random(13)).coeffs for _ in range(50)]
    b = [params.sample(Random(13)).coeffs for _ in range(50)]
    assert a == b
