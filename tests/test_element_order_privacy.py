"""A server that reads where each index sits in its set cannot find the demand.

Both models shuffle the elements of every set they send, so the first index
of a transmitted set names W no more often than chance.  The auditors cannot
see this: the exact auditor's fingerprint sorts each set, and the screen's
slot bins see only which set holds an index.  Here seeded builds meet a
server that picks a random transmitted set and names its first index; each
guess must hit in 1/K of the builds, within 4.5 standard deviations.  The
same builds with every shuffle broken (a _Mutant of the production
interpreter, passed to build_query as its rng) must miss that mark by 10.
"""
import math
from random import Random

import pytest

from pircsi import MODEL_I, MODEL_II, Database, FieldParams, sample_scenario
from pircsi.audit import _Mutant
from pircsi.draws import RandomDraws
from pircsi.protocols import build_query

BUILDS = 2_000
CELLS = [(MODEL_I, 8, 2), (MODEL_I, 101, 9), (MODEL_II, 10, 5), (MODEL_II, 8, 3), (MODEL_II, 6, 6)]
# Cells where unshuffled sets still hide W, and why.
BENIGN = {(MODEL_II, 6, 6): "the one set is S = [K] in sorted order, whatever W is"}


def _unshuffled(rng: Random) -> _Mutant:
    return _Mutant(RandomDraws(rng), "shuffle", lambda d, seq: None)


def _first_index_z(model, K, M, interpreter) -> float:
    """The z-score of the guessing server's hits over BUILDS seeded builds."""
    db = Database.random(FieldParams(3), K, Random(K))
    rng, server = Random(2018), Random(1)
    hits = 0
    for _ in range(BUILDS):
        scenario = sample_scenario(db, M, model, rng)
        query, _ = build_query(scenario, K, interpreter(rng))
        hits += int(query.idx[server.randrange(len(query.idx)), 0]) == scenario.W
    return (hits - BUILDS / K) / math.sqrt(BUILDS * (1 / K) * (1 - 1 / K))


@pytest.mark.parametrize("model,K,M", CELLS, ids=lambda v: str(v))
def test_the_first_index_of_a_set_does_not_name_the_demand(model, K, M):
    z = _first_index_z(model, K, M, lambda rng: rng)
    assert abs(z) <= 4.5, f"z = {z:.1f}"


@pytest.mark.parametrize("model,K,M", CELLS, ids=lambda v: str(v))
def test_unshuffled_sets_name_the_demand(model, K, M):
    z = _first_index_z(model, K, M, _unshuffled)
    if (model, K, M) in BENIGN:
        assert abs(z) <= 4.5, f"z = {z:.1f}"
    else:
        assert abs(z) >= 10, f"z = {z:.1f}"
