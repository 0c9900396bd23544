"""The bulk coefficient draw: RandomDraws.coefficients(q, count) takes count
uniform units mod q from the thread's numpy Generator in one call, with the
values and end state of one Generator.integers(1, q) per value.  A scenario's
C and every coefficient of a query come from it, the demand's too."""
import hashlib
from random import Random

import numpy as np
import pytest
from numpy.random import PCG64, Generator
from scipy.stats import chisquare

from pircsi import (
    Database,
    DecoderState,
    FieldParams,
    MODEL_I,
    MODEL_II,
    Scenario,
    sample_scenario,
    side_information,
)
from pircsi.draws import RandomDraws, _thread
from pircsi.protocol_csi2 import case_for
from pircsi.protocols import PROTOCOLS, attach_coefficients, build_query

from conftest import query_of


def _generator(rng: Random) -> Generator:
    """The Generator a RandomDraws over rng draws from: a PCG64 whose state
    is one getrandbits(128) of rng."""
    bits = PCG64(0)
    state = bits.state
    state["state"]["state"] = rng.getrandbits(128)
    bits.state = state
    return Generator(bits)


@pytest.mark.parametrize("q", [3, 5, 257, 65521])
@pytest.mark.parametrize("count", [0, 1, 2, 90, 990])
def test_the_bulk_draw_matches_the_per_index_loop(q, count):
    for seed in range(20):
        rng, loop = Random(seed), Random(seed)
        bulk = RandomDraws(rng).coefficients(q, count)
        reference = _generator(loop)
        assert bulk.dtype == np.int64
        assert bulk.tolist() == [int(reference.integers(1, q)) for _ in range(count)]
        assert rng.getstate() == loop.getstate()
        assert _thread.bits.state == reference.bit_generator.state


@pytest.mark.parametrize("q", [3, 5, 257, 65521])
def test_coefficients_are_int64_units(q):
    values = RandomDraws(Random(q)).coefficients(q, 20_000)
    assert values.dtype == np.int64 and values.shape == (20_000,)
    assert values.min() >= 1 and values.max() <= q - 1
    if q < 1000:
        assert set(values.tolist()) == set(range(1, q))


@pytest.mark.parametrize("q", [5, 257])
def test_coefficients_are_flat_over_the_units(q):
    draws = 200 * (q - 1)  # 200 expected per unit
    values = RandomDraws(Random(2018)).coefficients(q, draws)
    counts = np.bincount(values, minlength=q)[1:]
    assert chisquare(counts).pvalue >= 1e-4


@pytest.mark.parametrize("model,M", [(MODEL_I, 9), (MODEL_II, 600)])
def test_scenario_coefficients_are_per_index_draws(model, M):
    # (W, S) and then C come from one Generator: W and the support are the
    # head of one permutation of [1, K], W first, and C the next M units.
    db = Database.random(FieldParams(257, 4), 1000, Random(0))
    for seed in range(5):
        rng, loop = Random(seed), Random(seed)
        scenario = sample_scenario(db, M, model, rng)
        reference = _generator(loop)
        drawn = reference.permuted(np.arange(1, 1001)[None], axis=1)[0].tolist()
        support = drawn[1 : M + 1] if model == MODEL_I else drawn[:M]
        assert (scenario.W, scenario.S) == (drawn[0], tuple(sorted(support)))
        assert scenario.C == tuple(int(reference.integers(1, 257)) for _ in range(M))
        assert all(type(c) is int for c in scenario.C)
        assert rng.getstate() == loop.getstate()


def _per_index_build(protocol, scenario, K, rng):
    """build_query one index at a time, in the order the builders draw, all
    from the RandomDraws that drew the structure: the structure, a fresh
    coefficient for every slot of every set in set order, then, where the
    demand set holds W, W's coefficient as the t-th unit other than its own
    c_W (0 outside S) for one t.  The demand set's other slots then take the
    side information's own coefficients."""
    d = RandomDraws(rng)
    sets, slots = protocol.draw_structures(
        np.array([scenario.W]), np.array([scenario.S], np.int64), K, d
    )
    rows = tuple(map(tuple, sets[0].tolist()))  # either model's, as ints
    q, W, slot = scenario.Y.params.q, scenario.W, None if slots is None else int(slots[0])
    own = dict(zip(scenario.S, scenario.C))
    c_W = own.get(W, 0)
    d.coefficients(q, 0)  # sets the Generator's state, even for a query with no sets
    coeffs = [[int(d.coefficients(q, 1)[0]) for _ in indices] for indices in rows]
    demand = rows[slot] if rows else ()
    if W in demand:
        others = [u for u in range(1, q) if u != c_W]
        own[W] = others[int(d.coefficients(len(others) + 1, 1)[0]) - 1]
    if demand:
        coeffs[slot] = [own[i] for i in demand]
    c = own[W] if W in demand else 0
    if demand == (W,) and len(scenario.S) == 2:  # the probe hits W: A = c * X_W
        state = DecoderState(scenario, slot, pow(c, -1, q), 0)
    else:  # A - Y = (c - c_W) * X_W
        a = pow(c - c_W, -1, q)
        state = DecoderState(scenario, slot, a, -a % q)
    sets = list(zip(rows, coeffs))
    case_tag = case_for(K, len(scenario.S)) if scenario.model == MODEL_II else 0
    return query_of(sets, scenario.model, case_tag), state


@pytest.mark.parametrize(
    "model,K,M,field",
    [
        (MODEL_I, 100, 9, (3, 1)),
        (MODEL_I, 1000, 9, (257, 4)),
        (MODEL_II, 1000, 600, (257, 4)),
        (MODEL_II, 100, 30, (3, 1)),
        (MODEL_II, 8, 8, (5, 1)),
        (MODEL_II, 8, 3, (5, 1)),
        (MODEL_II, 4, 2, (5, 1)),
        (MODEL_II, 3, 1, (3, 1)),
    ],
)
def test_build_query_matches_a_per_index_reference(model, K, M, field):
    db = Database.random(FieldParams(*field), K, Random(K))
    protocol = PROTOCOLS[model]
    for seed in range(12):
        scenario = sample_scenario(db, M, model, Random(seed))
        rng, loop = Random(seed), Random(seed)
        built = build_query(scenario, K, rng)
        state = _thread.bits.state
        assert built == _per_index_build(protocol, scenario, K, loop)
        assert rng.getstate() == loop.getstate()
        assert _thread.bits.state == state


class _Pinned:
    """Draws for attach_coefficients: every bulk coefficient 1, and t for the
    one draw of W's coefficient, whose bound it records."""

    def __init__(self, t: int):
        self.t, self.bounds = t, []

    def coefficients(self, q: int, count: int):
        if count == 1:
            self.bounds.append(q)
            return np.array([self.t])
        return np.ones(count, dtype=np.int64)


@pytest.mark.parametrize("q", [3, 5, 257])
def test_the_demand_coefficient_map_is_exact(q):
    # For every own c_W (0 when W lies outside S), the draw t of W's
    # coefficient maps one to one onto the units other than c_W, so a uniform
    # t gives a uniform such unit.
    db = Database.random(FieldParams(q), 3, Random(q))
    for c_W in range(q):
        if c_W:  # the full case: W = 1 inside S = (1, 2, 3)
            S, C, model, idx, case_tag = (1, 2, 3), (c_W, 1, 1), MODEL_II, [[2, 3, 1]], 4
        else:  # the first model: W = 1 outside S = (2,)
            S, C, model, idx, case_tag = (2,), (1,), MODEL_I, [[2, 1]], 0
        scenario = Scenario(1, S, C, side_information(db, S, C), model)
        image = []
        for t in range(1, q - (c_W > 0)):
            d = _Pinned(t)
            query, state = attach_coefficients(np.array(idx), 0, case_tag, np.array(S), scenario, d)
            assert d.bounds == [q - (c_W > 0)]
            (c,) = query.coef[0][query.idx[0] == 1].tolist()
            image.append(c)
            assert (c - c_W) * state.a % q == 1
        assert sorted(image) == [u for u in range(1, q) if u != c_W]


def _build_digest(model: str, K: int, M: int) -> str:
    """sha256 over 50 seeded build_query outputs of the cell: each query's
    index and coefficient rows, case tag, demand slot, and the decoder's a
    and b, over GF(5)."""
    db = Database.random(FieldParams(5), K, Random(K))
    digest = hashlib.sha256()
    for seed in range(50):
        scenario = sample_scenario(db, M, model, Random(seed))
        query, state = PROTOCOLS[model].build_query(scenario, K, Random(seed))
        row = (query.idx.tolist(), query.coef.tolist(), query.case_tag)
        digest.update(repr(row + (state.demand_slot, state.a, state.b)).encode())
    return digest.hexdigest()


# The seeded query stream of both builders, pinned so that a refactor of the
# query layer must leave every index, coefficient and decoder scalar in place.
BUILD_DIGESTS = {
    (MODEL_I, 8, 2): "f062cbf647bd57065bda1406bb16f790a9592e26f1c8047279ae6455588bffca",
    (MODEL_I, 7, 1): "e9591f79d662704d12c06ab7c54dcaec6ef140b8086c8990bbb5a7313aa723ac",
    (MODEL_I, 100, 9): "5a7c288287e0ca72da436369e69bae34aef97752a53ceb38688ee0729a04e7e2",
    (MODEL_I, 12, 0): "2c3e75ac3cd9a9d692ef8f91e735a32942b40e6ae2c7073653ea13ede76612ba",
    (MODEL_I, 10, 9): "04fd0b2c06c557e95c8472907c81f8702e3b402385f8a745fd4291c30158f9a3",
    (MODEL_II, 10, 5): "ac0cb19c0a77e1ad36a3cc425d179bf2524a7fd701dd6c16e407cbd2fbb5c2fd",
    (MODEL_II, 7, 5): "e420c8e710c900a3e3e680511f27534b0a4c3daf493483ef9461d864e824042a",
    (MODEL_II, 4, 2): "a7378e9cb3e308471c92c4e1a18516d4fa06bd37286b0e3ae4171f6a4c4b0910",
    (MODEL_II, 6, 6): "a2cab75fd6cdd39694e7ea39f4ae57a6328284a4f8c6fc9f50f57dfac4eb0ab4",
    (MODEL_II, 5, 1): "9a3ddd4ec07b400dbc9ca18781b8f91b405f727e91a1c03d3bc2f82424199d22",
}


@pytest.mark.parametrize("cell", list(BUILD_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_the_seeded_build_stream_is_pinned(cell):
    assert _build_digest(*cell) == BUILD_DIGESTS[cell]
