"""The bulk coefficient draw: RandomDraws.coefficients(q, count) takes count
uniform units mod q from the thread's numpy Generator in one call, with the
values and end state of one Generator.integers(1, q) per value.  A scenario's
C and a query's fresh coefficients come from it; a single coefficient stays
one randrange(1, q) of the caller's Random."""
from random import Random

import numpy as np
import pytest
from numpy.random import PCG64, Generator
from scipy.stats import chisquare

from pircsi import (
    CASE_DISJOINT,
    Database,
    DecoderState,
    FieldParams,
    MODEL_I,
    MODEL_II,
    protocol_csi2,
    protocol_rp,
    sample_demand,
    sample_scenario,
)
from pircsi.draws import RandomDraws, _thread
from pircsi.field import sample_coefficient

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


def test_one_coefficient_is_one_randrange():
    params = FieldParams(257)
    for seed in range(20):
        one, loop = Random(seed), Random(seed)
        assert sample_coefficient(params, one) == loop.randrange(1, 257)
        assert one.getstate() == loop.getstate()


@pytest.mark.parametrize("model,M", [(MODEL_I, 9), (MODEL_II, 600)])
def test_scenario_coefficients_are_per_index_draws(model, M):
    db = Database.random(FieldParams(257, 4), 1000, Random(0))
    for seed in range(5):
        rng, loop = Random(seed), Random(seed)
        scenario = sample_scenario(db, M, model, rng)
        assert (scenario.W, scenario.S) == sample_demand(1000, M, model, loop)
        reference = _generator(loop)
        assert scenario.C == tuple(int(reference.integers(1, 257)) for _ in range(M))
        assert all(type(c) is int for c in scenario.C)
        assert rng.getstate() == loop.getstate()


def _per_index_build(protocol, scenario, K, rng):
    """build_query one index at a time, in the order the builders draw: the
    structure, the demand's fresh coefficient by randrange (redrawn while it
    equals the side information's own, for the second model), then each
    cover set's coefficients, index by index, from the RandomDraws that drew
    the structure."""
    d = RandomDraws(rng)
    structure = protocol.draw_structure(scenario.W, scenario.S, K, d)
    q = scenario.Y.params.q
    own = dict(zip(scenario.S, scenario.C))
    c_W = own.get(scenario.W)
    if structure.case_tag == CASE_DISJOINT:
        delta = -c_W
    else:
        c = rng.randrange(1, q)
        while c == c_W:
            c = rng.randrange(1, q)
        own[scenario.W] = c
        delta = c if c_W is None else c - c_W
    sets = [
        (indices, [own[i] for i in indices])
        if k == structure.demand_slot
        else (indices, [int(d.coefficients(q, 1)[0]) for _ in indices])
        for k, indices in enumerate(structure.sets)
    ]
    a = pow(delta, -1, q)
    state = DecoderState(scenario, structure.demand_slot, a, -a % q)
    return query_of(sets, scenario.model, structure.case_tag or 0), state


@pytest.mark.parametrize(
    "model,K,M,field",
    [
        (MODEL_I, 100, 9, (3, 1)),
        (MODEL_I, 1000, 9, (257, 4)),
        (MODEL_II, 1000, 600, (257, 4)),
        (MODEL_II, 100, 30, (3, 1)),
        (MODEL_II, 8, 8, (5, 1)),
    ],
)
def test_build_query_matches_a_per_index_reference(model, K, M, field):
    db = Database.random(FieldParams(*field), K, Random(K))
    protocol = protocol_rp if model == MODEL_I else protocol_csi2
    for seed in range(5):
        scenario = sample_scenario(db, M, model, Random(seed))
        rng, loop = Random(seed), Random(seed)
        built = protocol.build_query(scenario, K, rng)
        state = _thread.bits.state
        assert built == _per_index_build(protocol, scenario, K, loop)
        assert rng.getstate() == loop.getstate()
        assert _thread.bits.state == state
