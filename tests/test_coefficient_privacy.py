"""A server that reads the coefficients cannot find the demand.

Both models send each coefficient as a fresh unit or as some c_i sent once,
and never c_W, so no function of a query, coefficients included, names W
more often than chance.  The auditors read only the index sets; here seeded
builds meet servers that guess W from the coefficients, and each guess must
hit in 1/K of the builds, within 4.5 standard deviations.
"""
import math
from random import Random

import pytest

from pircsi import (
    MODEL_I,
    MODEL_II,
    Database,
    FieldParams,
    protocol_csi2,
    protocol_rp,
    sample_scenario,
)
from pircsi.protocols import PROTOCOLS

BUILDS = 10_000


def _first_unit_one(query) -> int:
    """The first index, in wire order, whose coefficient is 1."""
    hits = query.idx[query.coef == 1]
    return int(hits[0]) if len(hits) else 1


def _repeat_with_matching_coefficients(query) -> int:
    """The first index of the first set that the second set holds under the
    same coefficient."""
    (first, second), (one, two) = query.idx.tolist(), query.coef.tolist()
    other = dict(zip(second, two))
    return next((i for i, c in zip(first, one) if other.get(i) == c), first[0])


def _probe_if_one(query) -> int:
    """The probed index when its coefficient is 1, else another index."""
    ((probe,),), ((c,),) = query.idx.tolist(), query.coef.tolist()
    return probe if c == 1 else 1 + probe % 4


@pytest.mark.parametrize(
    "model,K,M,q,guess",
    [
        pytest.param(MODEL_I, 8, 2, 257, _first_unit_one, id="I-8-2-gf257-first-one"),
        pytest.param(MODEL_II, 7, 5, 3, _repeat_with_matching_coefficients, id="II-7-5-gf3-repeat"),
        pytest.param(MODEL_II, 4, 2, 5, _probe_if_one, id="II-4-2-gf5-probe"),
    ],
)
def test_a_guessing_server_does_not_find_the_demand(model, K, M, q, guess):
    db = Database.random(FieldParams(q), K, Random(K))
    protocol, rng = PROTOCOLS[model], Random(2018)
    hits = 0
    for _ in range(BUILDS):
        scenario = sample_scenario(db, M, model, rng)
        query, _ = protocol.build_query(scenario, K, rng)
        hits += guess(query) == scenario.W
    z = (hits - BUILDS / K) / math.sqrt(BUILDS * (1 / K) * (1 - 1 / K))
    assert abs(z) <= 4.5, f"{hits} hits in {BUILDS} builds, z = {z:.1f}"


def test_both_models_attach_coefficients_by_one_rule():
    assert protocol_csi2.attach_coefficients is protocol_rp.attach_coefficients
