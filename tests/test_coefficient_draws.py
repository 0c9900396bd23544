"""The bulk coefficient draw reads the generator exactly as one
randrange(1, q) per value does, so every seeded scenario and query is the
one the per-index draws gave."""
from random import Random

import pytest

from pircsi import (
    CASE_DISJOINT,
    Database,
    DecoderState,
    FieldParams,
    MODEL_I,
    MODEL_II,
    Query,
    QuerySet,
    protocol_csi2,
    protocol_rp,
    sample_demand,
    sample_scenario,
)
from pircsi.field import sample_coefficient, sample_coefficients


@pytest.mark.parametrize("q", [3, 5, 257, 65521])
@pytest.mark.parametrize("count", [0, 1, 2, 90, 990])
def test_the_bulk_draw_matches_the_per_index_loop(q, count):
    params = FieldParams(q)
    for seed in range(20):
        bulk, loop = Random(seed), Random(seed)
        assert sample_coefficients(params, bulk, count) == [
            loop.randrange(1, q) for _ in range(count)
        ]
        assert bulk.getstate() == loop.getstate()


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
        assert scenario.C == tuple(loop.randrange(1, 257) for _ in range(M))
        assert rng.getstate() == loop.getstate()


def _per_index_build(protocol, scenario, K, rng):
    """build_query with one randrange(1, q) per fresh coefficient, in the
    order the builders draw them: the demand's fresh coefficient (redrawn
    while it equals the side information's own, for the second model), then
    each cover set's, index by index."""
    structure = protocol.draw_structure(scenario.W, scenario.S, K, rng)
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
    sets = tuple(
        QuerySet(indices, tuple(own[i] for i in indices))
        if k == structure.demand_slot
        else QuerySet(indices, tuple(rng.randrange(1, q) for _ in indices))
        for k, indices in enumerate(structure.sets)
    )
    a = pow(delta, -1, q)
    state = DecoderState(scenario, structure.demand_slot, a, -a % q)
    return Query(sets, scenario.model, structure.case_tag or 0), state


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
        assert protocol.build_query(scenario, K, rng) == _per_index_build(
            protocol, scenario, K, loop
        )
        assert rng.getstate() == loop.getstate()
