"""Each query builder is a structure draw followed by a coefficient step.

The structure draw alone decides what the server sees of the index sets, so
build_query must send exactly the sets it draws; the coefficient step must
keep every coefficient a nonzero scalar, keep each side-information
coefficient on its own index, and still decode exactly; the Monte-Carlo
screen must run the structure draw and nothing else; and the structure draw
must follow the law the exact auditor enumerates.
"""
import inspect
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from pircsi import (
    Database,
    FieldParams,
    MODEL_I,
    MODEL_II,
    ParameterError,
    audit_exact,
    audit_montecarlo,
    model,
    pmf,
    protocol_csi2,
    protocol_rp,
    protocols,
    sample_demand,
    sample_scenario,
)
from pircsi import audit
from pircsi.draws import RandomDraws
from pircsi.protocol_csi2 import (
    CASE_DISJOINT,
    CASE_FULL,
    CASE_OVERLAP,
    CASE_SINGLE,
    CASE_TRIVIAL,
    case_for,
)
from pircsi.protocols import PROTOCOLS, fingerprint_of

from conftest import message

# First model: one, two, three, four and five sets, with and without repeats.
MODEL_I_CELLS = [(3, 2), (4, 1), (5, 2), (5, 1), (7, 1), (8, 2), (9, 1), (10, 1), (6, 0)]
# Second model at K=8: every case, both branches of the disjoint and overlap cases.
MODEL_II_CELLS = [(8, 1), (8, 2), (8, 3), (8, 4), (8, 5), (8, 7), (8, 8)]


def _split_matches_build(model_name, K, M, seed):
    db = Database.random(FieldParams(5), K, Random(seed))
    scenario = sample_scenario(db, M, model_name, Random(seed + 1))
    W, S = np.array([scenario.W]), np.array([scenario.S], np.int64)
    sets, slots = PROTOCOLS[model_name].draw_structures(W, S, K, Random(seed + 2))
    query, state = protocols.build_query(scenario, K, Random(seed + 2))
    # drawn as the (n, s) int64 array the query sends
    assert sets.dtype == np.int64 and sets.shape[0] == 1
    assert np.array_equal(query.idx, sets[0])
    assert state.demand_slot == (None if slots is None else slots[0])
    return query, state


@pytest.mark.parametrize("K,M", MODEL_I_CELLS)
def test_first_model_build_sends_the_structure_it_draws(K, M):
    for seed in range(40):
        _split_matches_build(MODEL_I, K, M, seed)


@pytest.mark.parametrize("K,M", MODEL_II_CELLS)
def test_second_model_build_sends_the_structure_it_draws(K, M):
    case = case_for(K, M)
    for seed in range(40):
        query, state = _split_matches_build(MODEL_II, K, M, seed)
        assert query.case_tag == case


@pytest.mark.parametrize(
    "model_name,K,M", [(MODEL_I, 8, 2), (MODEL_I, 5, 0), (MODEL_II, 8, 1), (MODEL_II, 8, 3)]
)
def test_an_empty_batch_is_refused_by_its_trial_count(model_name, K, M):
    W, S = sample_demand(K, M, model_name, Random(0), 0)
    assert W.shape == (0,) and S.shape == (0, M)
    with pytest.raises(ParameterError, match="T=0"):
        PROTOCOLS[model_name].draw_structures(W, S, K, Random(0))


@pytest.mark.parametrize("module", [protocol_rp, protocol_csi2], ids=lambda m: m.__name__)
def test_the_structure_draw_takes_no_knobs(module):
    # A mutant is an interpreter passed as rng (audit._Mutant); the draw
    # itself has no way to be broken on purpose.
    assert list(inspect.signature(module.draw_structures).parameters) == ["W", "S", "K", "rng"]


def test_every_second_model_case_is_covered():
    assert {case_for(K, M) for K, M in MODEL_II_CELLS} == {
        CASE_TRIVIAL, CASE_SINGLE, CASE_DISJOINT, CASE_OVERLAP, CASE_FULL
    }


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(3, 1), (5, 1), (5, 2), (257, 1)]),
    st.integers(2, 12),
    st.sampled_from([MODEL_I, MODEL_II]),
    st.data(),
)
def test_property_coefficients_stay_nonzero_and_with_their_index(field, K, model_name, data):
    q, m = field
    if model_name == MODEL_I:
        M = data.draw(st.integers(0, K - 1), label="M")
    else:
        M = data.draw(st.integers(1, K), label="M")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = Random(seed)
    db = Database.random(FieldParams(q, m), K, rng)
    scenario = sample_scenario(db, M, model_name, rng)
    query, state = protocols.build_query(scenario, K, rng)

    assert all(1 <= c <= q - 1 for qs in query.sets for c in qs.coeffs)
    own = dict(zip(scenario.S, scenario.C))
    c_W = own.get(scenario.W, 0)  # 0: the demand lies outside the support
    if query.sets:
        # The demand set carries each support index's own coefficient, a
        # single probe's partner too, and W a fresh one other than its own.
        demand_set = query.sets[state.demand_slot]
        sent = dict(zip(demand_set.indices, demand_set.coeffs))
        assert set(sent) <= {scenario.W, *scenario.S}
        for i, c in sent.items():
            assert c != c_W if i == scenario.W else c == own[i]
        c = sent.get(scenario.W, 0)
        if set(sent) == {scenario.W} and len(scenario.S) == 2:  # the probe hits W
            assert (c * state.a % q, state.b) == (1, 0)
        else:  # A - Y = (c - c_W) * X_W
            assert (c - c_W) * state.a % q == 1 and (state.a + state.b) % q == 0
    answer = protocols.answer_query(db, query)
    assert protocols.decode_answer(answer, state) == message(db, scenario.W)


# ------------------------------------------------------- the screen's draws


def _counting(calls, name, fn, count=lambda *args, **kwargs: 1):
    def wrapper(*args, **kwargs):
        calls[name] += count(*args, **kwargs)
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("model_name,K,M", [(MODEL_I, 5, 1), (MODEL_I, 8, 2), (MODEL_II, 6, 4)])
def test_the_screen_draws_structures_and_nothing_else(monkeypatch, model_name, K, M):
    # Counts are of structures and demands drawn: each model draws a chunk
    # of trials per draw_structures call, and sample_demand a chunk at a time.
    calls = Counter()
    for name in ("attach_coefficients", "build_query"):
        monkeypatch.setattr(protocols, name, _counting(calls, name, getattr(protocols, name)))
    monkeypatch.setattr(audit, "build_query", _counting(calls, "build_query", audit.build_query))
    for module in (protocol_rp, protocol_csi2):
        structures = _counting(calls, f"{module.__name__}.draw_structures",
                               module.draw_structures, lambda W, *args, **kwargs: len(W))
        monkeypatch.setattr(module, "draw_structures", structures)
    monkeypatch.setattr(model, "side_information", _counting(calls, "side_information", model.side_information))
    monkeypatch.setattr(audit, "sample_scenario", _counting(calls, "sample_scenario", audit.sample_scenario))
    monkeypatch.setattr(Database, "random", _counting(calls, "Database.random", Database.random))
    demands = _counting(calls, "sample_demand", audit.sample_demand, lambda *args: args[-1])
    monkeypatch.setattr(audit, "sample_demand", demands)

    trials = 400
    audit_montecarlo(model_name, K, M, trials, Random(0))
    drawn = f"{PROTOCOLS[model_name].__name__}.draw_structures"
    assert calls == {drawn: trials, "sample_demand": trials}


def test_the_skewed_mutant_screen_builds_its_pmf_once(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(pmf.Cdf, "of", classmethod(_counting(calls, "Cdf.of", pmf.Cdf.of.__func__)))
    audit_montecarlo(MODEL_I, 8, 2, 400, Random(0), mutation="skewed_class_pmf")
    assert calls["Cdf.of"] <= 1


# ---------------------------------------------- builder against enumeration

FAMILY_SIGNIFICANCE = 1e-6
# I(7,1) takes each of the three repeat classes; the second model's cells
# are its disjoint, overlap, single-probe and full cases.  Each cell is
# fitted twice: drawn one trial at a time and as one T-trial batch.
GOF_CELLS = [(MODEL_I, 5, 1, 20_000), (MODEL_I, 7, 1, 25_000), (MODEL_I, 8, 2, 40_000),
             (MODEL_II, 10, 5, 80_000), (MODEL_II, 7, 5, 20_000), (MODEL_II, 6, 2, 5_000),
             (MODEL_II, 6, 6, 2_000)]
FITS_PER_CELL = 2


def _draw_per_trial(model_name, K, M, trials, rng):
    # What every fetch runs: one demand, then one structure, per trial.
    draw = PROTOCOLS[model_name].draw_structures
    for _ in range(trials):
        W, S = sample_demand(K, M, model_name, rng, 1)
        yield fingerprint_of(draw(W, S, K, rng)[0][0]), int(W[0])


def _draw_batch(model_name, K, M, trials, rng):
    # The law the screen samples: every demand in one sample_demand call,
    # then every structure in one draw_structures call.
    draws = RandomDraws(rng)
    W, S = sample_demand(K, M, model_name, draws, trials)
    sets = PROTOCOLS[model_name].draw_structures(W, S, K, draws)[0]
    return zip(map(fingerprint_of, sets), W.tolist())


def _fit_to_the_exact_joint(model_name, K, M, trials, draw):
    # Every (fingerprint, W) pair with nonzero exact probability is one
    # chi-square cell; a pair the enumeration gives probability zero must
    # never be drawn.
    report = audit_exact(model_name, K, M)
    joint = {
        (fp, w): p_fp * p_w
        for fp, p_fp in report.fingerprint_probs.items()
        for w, p_w in enumerate(report.posteriors[fp], start=1)
        if p_w
    }
    seen = Counter(draw(model_name, K, M, trials, Random(0)))
    assert set(seen) <= set(joint), "the builder drew a pair the enumeration excludes"
    cells = sorted(joint)
    expected = [float(joint[c] * trials) for c in cells]
    assert min(expected) >= 5, "too few trials for the chi-square approximation"
    p = chisquare([seen[c] for c in cells], expected).pvalue
    assert p >= FAMILY_SIGNIFICANCE / (len(GOF_CELLS) * FITS_PER_CELL), p


@pytest.mark.parametrize("model_name,K,M,trials", GOF_CELLS, ids=lambda v: str(v))
def test_structure_draw_follows_the_exact_joint(model_name, K, M, trials):
    # At T = 1, with its scalar class choice and one-trial views.
    _fit_to_the_exact_joint(model_name, K, M, trials, _draw_per_trial)


@pytest.mark.parametrize("model_name,K,M,trials", GOF_CELLS, ids=lambda v: str(v))
def test_structure_batch_draw_follows_the_exact_joint(model_name, K, M, trials):
    _fit_to_the_exact_joint(model_name, K, M, trials, _draw_batch)
