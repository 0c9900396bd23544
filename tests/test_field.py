"""Vector arithmetic over GF(q), on word rows through the answer kernel,
against hand-derived values and exhaustive axiom sweeps."""
import struct
import time
from itertools import product

import numpy as np
import pytest

from pircsi import Database, FieldParams, ParameterError
from pircsi.field import MAX_Q
from pircsi.model import answer_words


def _combine(db, *terms):
    """answer_words with one set per row: each term is a column of 1-based
    indices and a coefficient (a column or one int) for it."""
    idx = np.stack([np.broadcast_to(i, np.shape(terms[0][0])) for i, _ in terms], axis=1)
    coef = np.stack([np.broadcast_to(c, idx.shape[0]) for _, c in terms], axis=1)
    return answer_words(db, idx, coef)


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
    # later, in an element encoding, with a bare struct.error
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
    assert params.element(range(4096)).coeffs[-1] == 4095
    db = Database(params, [range(4096)] * 2)
    assert not _combine(db, ([1], 1), ([2], 65520)).any()  # x + (-1)x = 0


# ------------------------------------------------------------------- values


def test_gf9_hand_arithmetic():
    gf9 = FieldParams(3, 2)
    db = Database(gf9, [(2, 1), (2, 2), (1, 2)])  # x+2, 2x+2, 2x+1
    # (x+2) + (2x+2) = 3x+4 = 1
    assert _combine(db, ([1], 1), ([2], 1)).tolist() == [[1, 0]]
    # (2x+1) - (2x+2) = (2x+1) + 2(2x+2) = 6x+5 = 2
    assert _combine(db, ([3], 1), ([2], 2)).tolist() == [[2, 0]]
    assert _combine(db, ([3], 2)).tolist() == [[2, 1]]


def test_byte_encoding_is_little_endian_u16_per_coefficient():
    gf9 = FieldParams(3, 2)
    assert Database(gf9, [(2, 1)]).to_bytes()[12:] == struct.pack("<2H", 2, 1)
    assert Database(gf9, [(0, 0)]).to_bytes()[12:] == bytes(4)


# ------------------------------------------------------- vector-space axioms


@pytest.mark.parametrize("q,m", [(3, 1), (5, 1), (3, 2), (5, 2)])
def test_axioms_exhaustive(q, m):
    # Every vector of GF(q)^m three times over, so that one set can hold a
    # vector two or three times: X_i = X_{N+i} = X_{2N+i} = vectors[i-1].
    vectors = np.array(list(product(range(q), repeat=m)), np.int64)
    N = len(vectors)
    db = Database(FieldParams(q, m), np.vstack([vectors] * 3))
    grid = np.meshgrid(*[np.arange(1, N + 1)] * 3, indexing="ij")
    x, y, z = (g.ravel() + k * N for k, g in enumerate(grid))  # every triple
    vx, vy = vectors[x - 1], vectors[y - N - 1]
    total = _combine(db, (x, 1), (y, 1))
    assert np.array_equal(total, (vx + vy) % q)  # additivity, word by word
    assert np.array_equal(total, _combine(db, (y, 1), (x, 1)))
    triple = _combine(db, (x, 1), (y, 1), (z, 1))
    assert np.array_equal(triple, (total + vectors[z - 2 * N - 1]) % q)  # (x+y)+z
    assert np.array_equal(triple, (vx + _combine(db, (y, 1), (z, 1))) % q)  # x+(y+z)
    assert not _combine(db, (x, 1), (x + N, q - 1)).any()  # x + (-1)x = 0
    for c in range(1, q):
        cx, cy = _combine(db, (x, c)), _combine(db, (y, c))
        assert np.array_equal(cx, c * vx % q)  # scaling, word by word
        assert np.array_equal(_combine(db, (x, c), (y, c)), (cx + cy) % q)  # c(x+y) = cx + cy
        for d in range(1, q):
            dx = _combine(db, (x, d))
            assert np.array_equal(_combine(db, (x, c), (x + N, d)), (cx + dx) % q)
            assert np.array_equal(_combine(db, (x, c * d % q)), c * dx % q)  # (cd)x = c(dx)


def test_elements_do_not_multiply():
    gf9 = FieldParams(3, 2)
    a, b = gf9.element((1, 2)), gf9.element((0, 1))
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(TypeError):
        a * 1.0
    # scalars act on word rows, through the answer kernel
    with pytest.raises(TypeError):
        a * 2


def test_elements_from_different_fields_never_mix():
    # equal coordinates in another field, or of another length, are another value
    assert FieldParams(3).element((1,)) != FieldParams(5).element((1,))
    assert FieldParams(3, 2).element((1, 0)) != FieldParams(3, 3).element((1, 0, 0))
    # and a database refuses another field's rows
    with pytest.raises(ParameterError):
        Database(FieldParams(3, 2), [(1, 0, 0)])
    with pytest.raises(ParameterError):
        Database(FieldParams(3), [(4,)])


def test_scalar_multiplication_embeds_the_base_field():
    gf9 = FieldParams(3, 2)
    db = Database(gf9, [(1, 0), (1, 2)])
    # c * (1, 0) = (c, 0): the base field is the first coordinate
    assert _combine(db, ([1], 2)).tolist() == [[2, 0]]
    assert _combine(db, ([2], 2)).tolist() == [[2, 1]]
    # element() takes integers through Z -> GF(q), so multiples of q vanish
    assert gf9.element((3, 4)) == gf9.element((0, 1))
