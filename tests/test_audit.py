"""Exact and statistical privacy auditors, recoverability, and rate metering.

Both auditors run the builders' own structure draw: the exact auditor
enumerates it for one scenario and relabels that law to every scenario, and
the Monte-Carlo auditor samples it.  The relabelling is checked against an
enumeration of every scenario kept here, and the chi-square fit in
test_structure.py checks the enumeration against the random draw.
"""
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from math import inf, sqrt
from pathlib import Path
from random import Random

import pytest
from scipy.stats import chi2, chisquare

from pircsi import (
    AuditSizeError,
    FieldParams,
    MODEL_I,
    MODEL_II,
    ParameterError,
    audit_exact,
    audit_montecarlo,
    measure_rate,
)
from pircsi import audit
from pircsi.audit import (
    MUTATIONS,
    Bin,
    _chisquare_p,
    audit_recoverability,
    exact_joint,
    scenario_law,
)
from pircsi.protocol_rp import fingerprint_of


# ------------------------------------------------------------------- exact


@pytest.mark.parametrize("K,M", [(4, 1), (5, 1), (6, 1), (6, 2), (6, 5)])
def test_exact_uniform_model_one(K, M):
    report = audit_exact(MODEL_I, K, M)
    assert report.uniform and report.worst_deviation == 0
    assert sum(report.fingerprint_probs.values()) == 1
    flat = Fraction(1, K)
    for posterior in report.posteriors.values():
        assert all(p == flat for p in posterior)


@pytest.mark.parametrize("K,M", [(3, 2), (4, 2), (5, 3), (6, 3), (6, 6)])
def test_exact_uniform_model_two(K, M):
    report = audit_exact(MODEL_II, K, M)
    assert report.uniform and report.worst_deviation == 0
    assert sum(report.fingerprint_probs.values()) == 1


def test_exact_full_support_has_one_fingerprint():
    report = audit_exact(MODEL_II, 6, 6)
    assert len(report.fingerprint_probs) == 1
    (fp,) = report.fingerprint_probs
    assert fp == ((1, 2, 3, 4, 5, 6),)


def test_exact_two_set_redraw_cells_stay_uniform():
    # with two sets the l repeats always sit in the demand set and its partner
    for K, M in [(3, 1), (4, 2), (5, 2), (5, 3), (6, 3), (6, 4)]:
        report = audit_exact(MODEL_I, K, M)
        assert report.uniform, (K, M, report.worst_deviation)


def test_exact_four_set_cell_with_a_repeat_is_flat():
    # K=7, M=1 is the smallest cell with four sets and a repeat.  A sequential
    # completion once over-weighted repeat-free partitions here (worst
    # deviation 8/91); with the repeats in one pair of sets it is flat.
    report = audit_exact(MODEL_I, 7, 1)
    assert report.uniform and report.worst_deviation == 0
    assert report.worst_fingerprint is None
    # and the exact auditor still sees both mutants there
    for mutation, deviation in [("deterministic_extras", Fraction(22, 91)),
                                ("skewed_class_pmf", Fraction(4, 21))]:
        assert audit_exact(MODEL_I, 7, 1, mutation=mutation).worst_deviation == deviation


def test_montecarlo_passes_the_four_set_cell():
    report = audit_montecarlo(MODEL_I, 7, 1, 50_000, Random(2))
    assert report.passed


def test_exact_guard_refuses_oversized_cells():
    # I(14,2) has five sets, and more leaves than the default guard allows
    with pytest.raises(AuditSizeError):
        audit_exact(MODEL_I, 14, 2)
    with pytest.raises(ParameterError):
        audit_exact("III", 4, 1)


def test_exact_guard_counts_second_model_branches():
    # II(14,7) runs to the end without a guard (42,042 fingerprints)
    with pytest.raises(AuditSizeError):
        audit_exact(MODEL_II, 14, 7, row_guard=1)
    # II(6,4) is an overlap cell: C(6,4) * 4 scenarios, and 3 + 3 ways to
    # repeat one or two of the other support indices
    rows = 15 * 4 * (3 + 3)
    assert audit_exact(MODEL_II, 6, 4, row_guard=rows).uniform
    with pytest.raises(AuditSizeError):
        audit_exact(MODEL_II, 6, 4, row_guard=rows - 1)


def test_exact_guard_refuses_large_cells_before_listing_a_choice():
    for model, K, M in [(MODEL_I, 1000, 9), (MODEL_II, 1000, 600)]:
        start = time.perf_counter()
        with pytest.raises(AuditSizeError):
            audit_exact(model, K, M)
        assert time.perf_counter() - start < 1.0


def test_exact_guard_refuses_sets_without_a_64_bit_key():
    # The raised guard admits II(70,35), but its C(70,35) * 35 scenarios
    # could never be listed: C(70, 34) keys overflow int64, so it is refused
    # as soon as its one-scenario law is known
    start = time.perf_counter()
    with pytest.raises(AuditSizeError, match="64 bits"):
        audit_exact(MODEL_II, 70, 35, row_guard=10**30)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_exact_runs_the_mutated_draw(mutation):
    report = audit_exact(MODEL_I, 8, 2, mutation=mutation)
    if mutation == "unshuffled_sets":
        # The fingerprint sorts the sets, so a set-order leak is invisible to
        # the exact auditor; only the Monte-Carlo screen's slot bins see it.
        assert report.uniform and report.worst_fingerprint is None
    else:
        expected = {"deterministic_extras": Fraction(7, 8), "skewed_class_pmf": Fraction(5, 24)}
        assert report.worst_deviation == expected[mutation]
        row = report.posteriors[report.worst_fingerprint]
        assert max(abs(p - Fraction(1, 8)) for p in row) == report.worst_deviation


def test_exact_refuses_an_unknown_mutation():
    for model, K, M in [(MODEL_I, 5, 1), (MODEL_II, 5, 2)]:
        with pytest.raises(ParameterError, match="unknown mutation"):
            audit_exact(model, K, M, mutation="nope")


@pytest.mark.parametrize("K,M,deviations", [(10, 5, (Fraction(9, 10), Fraction(3, 20))),
                                            (7, 5, (Fraction(6, 7), Fraction(1, 42)))])
def test_exact_runs_the_mutated_second_model_draw(K, M, deviations):
    # A mutant replaces one primitive of whichever model's draw it runs
    # under.  As in the first model, the set order is invisible to the
    # order-stripped fingerprint, so unshuffled_sets stays flat here.
    assert audit_exact(MODEL_II, K, M, mutation="unshuffled_sets").uniform
    for mutation, deviation in zip(("deterministic_extras", "skewed_class_pmf"), deviations):
        report = audit_exact(MODEL_II, K, M, mutation=mutation)
        assert not report.uniform and report.worst_deviation == deviation, mutation


def test_exact_names_its_worst_fingerprint():
    # taking the first support index as the repeat leaves some fingerprints
    # explained by one demand only: a deviation of 1 - 1/8
    report = audit_exact(MODEL_I, 8, 2, mutation="deterministic_extras")
    worst = report.worst_fingerprint
    deviation = Fraction(7, 8)
    assert report.worst_deviation == deviation
    assert max(abs(p - Fraction(1, 8)) for p in report.posteriors[worst]) == deviation
    # the first such fingerprint in sorted order
    assert all(
        max(abs(p - Fraction(1, 8)) for p in report.posteriors[fp]) < deviation
        for fp in report.posteriors
        if fp < worst
    )
    assert audit_exact(MODEL_II, 6, 3).worst_fingerprint is None


def _every_scenario_joint(model, K, M, mutation):
    """The reference for the relabelling: the enumerated law of every
    scenario, weighted by the uniform scenario prior."""
    draw = audit._draw(model, K, M, mutation)
    scenarios = [
        (W, S)
        for S in combinations(range(1, K + 1), M)
        for W in range(1, K + 1)
        if (W in S) == (model == MODEL_II)
    ]
    joint = defaultdict(lambda: [Fraction(0)] * K)
    for W, S in scenarios:
        law = scenario_law(draw, W, S, K)
        total = sum(law.values()) * len(scenarios)
        for fp, weight in law.items():
            joint[fp][W - 1] += Fraction(weight, total)
    return dict(joint)


SMALL_CELLS = [(MODEL_I, K, M) for K in range(2, 7) for M in range(K)] + [
    (MODEL_II, K, M) for K in range(2, 7) for M in range(1, K + 1)
]


@pytest.mark.parametrize("model,K,M", SMALL_CELLS, ids=lambda v: str(v))
def test_one_scenario_relabelled_equals_every_scenario_enumerated(model, K, M):
    for mutation in [None, *sorted(MUTATIONS)]:
        joint, D = exact_joint(model, K, M, mutation=mutation)
        relabelled = {fp: [Fraction(x, D) for x in row] for fp, row in joint.items()}
        assert relabelled == _every_scenario_joint(model, K, M, mutation), mutation


# SHA-256 of each cell's canonical report (below), recorded from the rational
# enumeration the integer-weight one replaced: the K<=6 grid of both models
# plus the benchmark's cells.  I(7,1) and I(9,1) were re-recorded when the
# shared-pair draw made them flat; every other digest predates that draw.
# Moving any probability, posterior or verdict changes the digest.
EXACT_DIGESTS = {
    (MODEL_I, 3, 0): "422f5cda07d2bbceb2400bfe18499cdb8caaa9cbac753d8e2b2872724250d088",
    (MODEL_I, 3, 1): "e4c5258509116ed83f29aae57f1d258af1879f0a0045eaaf3344867bdd7c31b1",
    (MODEL_I, 3, 2): "262ff3556005164ebc64181d9dbbb7ab94cef57a12fe092dad09deaecaf37a21",
    (MODEL_I, 4, 0): "5736e51a1f092090055a448cf09a143c9fbdd2a984011991121d5d4556d5b612",
    (MODEL_I, 4, 1): "200d6ad5746847e76625995fad83ee151e912a67b099f20d52a70a38e24faf1e",
    (MODEL_I, 4, 2): "1ba7e2efad07648de6e314a31699b6965d15d7152903ae4a10520b7ad48c7d21",
    (MODEL_I, 4, 3): "9e7d5a450b606b724a4524068ecc1c340645492bdd1af2ab8e601fab4328c400",
    (MODEL_I, 5, 0): "65111b97b395748810b89603a2d066f0b110436f8b4fad590c1e312561c32859",
    (MODEL_I, 5, 1): "8277df485e7e27a8a1e9ca1b04ab818cff3b55549b407fafb6d3276cad728722",
    (MODEL_I, 5, 2): "1d9b9c34c58dc29d6758e1db56263c48f67d85e56c1d11531a36cbd2b52d64d6",
    (MODEL_I, 5, 3): "d68ae3546979cc99c40ef9be6b098be888f20ac7260aa307974d4b7e212f7600",
    (MODEL_I, 5, 4): "6bebc48556081112eee2b3925a60e420add653d7fa0752edb9267f0dbfb619c7",
    (MODEL_I, 6, 0): "da6afcdcadd99e814a42584d7b3509e46b5c3d3625316b449dcc1c50f5013632",
    (MODEL_I, 6, 1): "54c890f1e86aa966dc3e048c737168b83511a08e2d8a030a39dc17b6a82bab9f",
    (MODEL_I, 6, 2): "b6ba9a170c22994791bfd39a822ad6702859a888da9e3b6465491a6f060139fc",
    (MODEL_I, 6, 3): "23ffe663fb6b2b3b3876ed30ec488bcf013bb5bee03a52872ff27f9153b93d99",
    (MODEL_I, 6, 4): "bc6d28c81ca4cdba625dd995e8e8b8b3b2bf15ebab23d00d61c8bd6bfb6ac23b",
    (MODEL_I, 6, 5): "170a9e0c843a3e4cff19c20c954954ecba37c7aaded20b87ca8cf05641634ca4",
    (MODEL_I, 7, 1): "7c78a35d9d7ea3f9671fcdf7cb87b17e8aeb5f31374dbf701349fdf5ed5fdb60",
    (MODEL_I, 8, 2): "ba5cb29dd93fac9662dbcb9034f9e069460be7c8614cffdc041dafb3f0c5d5f7",
    (MODEL_I, 9, 1): "b949ee53980581c31206056c6ab4f81fad2f1cec98cac7f6fedb30fce6ca0737",
    (MODEL_II, 3, 1): "22387b9af8507160b565bc43533508156ca99408e83082780dab732a27628e77",
    (MODEL_II, 3, 2): "77b196a1e027f745e9ffef4cc3e3aad1d49ddbfab6a58154e48023d213526e72",
    (MODEL_II, 3, 3): "77343afc3c75647e15a4a4727d7039f5163c4ed5725cfbab6518e4b099e0a8da",
    (MODEL_II, 4, 1): "f498db3511a499083899d399e3d2b84f4d215318de2a9f9757fe6e08842d4d68",
    (MODEL_II, 4, 2): "cde9cb014cf83878218a570aa9d11e2c191667b18e2310f9c0fa55db7e8024b4",
    (MODEL_II, 4, 3): "c9bd58031d337d8d38fd70720bf06464bcb85d39f28c024d8dfabcacb5eebb96",
    (MODEL_II, 4, 4): "8b8bd9bb7076bf52ec4dccc2756d50770f9c273303fb89a77caa88cbaccc5809",
    (MODEL_II, 5, 1): "48b20c322f81d6ed998cba0702a3450b92b0b6e471a29c793f6c02591937c386",
    (MODEL_II, 5, 2): "1aa7e23dbfdbb49c588e653896e15b7e356b15462ec584072f124259b7ab79e7",
    (MODEL_II, 5, 3): "76dd551064cd1b26a95a7506f8ab9d3897ed99d1cd0ba0d813b24fde903d6881",
    (MODEL_II, 5, 4): "c9c3078c97ba14f50052374d4764f25ff107255c23e6a89667c3920138c44323",
    (MODEL_II, 5, 5): "61304c6d449eee1cf4a64f4a8b64ec2d902baf9cfb5fcb1012722a15211d2102",
    (MODEL_II, 6, 1): "abedf2c139e8c9199c4a848b0b38a44279a63ec8f2dca325bb69b3fe01d871db",
    (MODEL_II, 6, 2): "b89cc711558f3ee63a047519a598d44f1c324550aeba41860666f40e19fbf90d",
    (MODEL_II, 6, 3): "a3ab89dc034f07691c3803f0766909a5f47f1d8068abbdc19fc626f06dbb381b",
    (MODEL_II, 6, 4): "3047b435cc20be61d9f82e4330a3383bc81352e793751b1c727bedf749f38d19",
    (MODEL_II, 6, 5): "bcc14d91ed51b3ac5c1f853680595d7bec2100b839f11e4e38d7dd941d6180b3",
    (MODEL_II, 6, 6): "19859d8882b5a90bcb60f6457f258f5178918f12a8e708eeb8b87405d6479350",
    (MODEL_II, 12, 7): "36067a9e16695e768e74a6dec8995bae52532a169f1601ef86669fd709c7b342",
}


def _ratio(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _canonical(report) -> bytes:
    head = (report.model, report.K, report.M, report.uniform, _ratio(report.worst_deviation))
    lines = [" ".join(map(str, head))]
    for fp in sorted(report.fingerprint_probs):
        row = " ".join(map(_ratio, report.posteriors[fp]))
        lines.append(f"{fp} {_ratio(report.fingerprint_probs[fp])} {row}")
    return "\n".join(lines).encode()


@pytest.mark.parametrize("cell", sorted(EXACT_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_exact_report_matches_its_pinned_digest(cell):
    report = audit_exact(*cell)
    assert hashlib.sha256(_canonical(report)).hexdigest() == EXACT_DIGESTS[cell]


# The same digests for cells that stretch the relabelling, recorded from the
# per-pair relabelling the array one replaced: K > 62 and K > 255, a set of
# all K indices, long overlap sets (II(66,65)), 14,535 fingerprints
# (II(20,3)), 40 singleton sets (I(40,0)), and two mutants on two cells.
WIDE_DIGESTS = {
    (MODEL_II, 100, 2, None): "83fc486f13c0970a35f7c47de0120ef17e404164b45771c6836b353eac190ef1",
    (MODEL_II, 260, 260, None): "4f25fc2f13f2c2d07551abdc7be1521afb81eca7bf9a79735fdcf34206e3f07f",
    (MODEL_II, 66, 65, None): "f364f985e4bfd7677933d3a58bc946e699208d665e3a3baa091e80cf46d5ca2c",
    (MODEL_II, 20, 3, None): "2bb40d59bc7fc68efa4195a1a88334b10c6a3126a9f4694f3429b2c746b86180",
    (MODEL_I, 40, 0, None): "a7343eba94197b58a2d5f14e036701fa8b47ffb38d08a2a332bb5a889181f955",
    (MODEL_I, 8, 2, "deterministic_extras"):
        "1158d1028e17fd6a7f557e72e6b44af6d512cd67488b5827f7ba55be81c6fd6a",
    (MODEL_I, 8, 2, "skewed_class_pmf"):
        "06b34ad0d9ffceeba38ac88178686204bbc1973868016c8cad13750ec54b46d3",
    (MODEL_I, 7, 1, "deterministic_extras"):
        "9917421abe4546767d6149efd5d9b244e87e1c4e782c21fe2dde5eb5194871e0",
    (MODEL_I, 7, 1, "skewed_class_pmf"):
        "bcd0bf18140ba4cbea794de8cd55729d5941e639fa7463f6aeec6d4a81e477fe",
}


@pytest.mark.parametrize("cell", list(WIDE_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_wide_exact_report_matches_its_pinned_digest(cell):
    model, K, M, mutation = cell
    report = audit_exact(model, K, M, mutation=mutation)
    assert hashlib.sha256(_canonical(report)).hexdigest() == WIDE_DIGESTS[cell]


@pytest.mark.parametrize(
    "model,K,M",
    [
        (MODEL_I, 4, 3), (MODEL_I, 5, 2), (MODEL_I, 7, 1), (MODEL_I, 8, 2), (MODEL_I, 9, 1),
        (MODEL_II, 6, 1), (MODEL_II, 6, 2), (MODEL_II, 8, 3), (MODEL_II, 6, 4), (MODEL_II, 6, 6),
    ],
)
def test_integer_weights_sum_to_the_common_denominator(model, K, M):
    # one to five sets in the first model; every second-model case
    joint, D = exact_joint(model, K, M)
    assert all(type(x) is int and x >= 0 for row in joint.values() for x in row)
    assert sum(map(sum, joint.values())) == D


@pytest.mark.parametrize(
    "model,K,M,mutation", [(MODEL_I, 8, 2, None), (MODEL_I, 8, 2, "skewed_class_pmf"),
                           (MODEL_II, 8, 5, None)]
)
def test_relabelling_in_chunks_matches_one_chunk(monkeypatch, model, K, M, mutation):
    # A chunk of one support at a time: 28 chunks at I(8,2), 56 at II(8,5),
    # so both the chunk tallies and their merges run
    whole = exact_joint(model, K, M, mutation=mutation)
    chunks = []
    islice = audit.islice
    monkeypatch.setattr(audit, "islice", lambda *args: chunks.append(args[1]) or islice(*args))
    monkeypatch.setattr(audit, "EXACT_CHUNK_ENTRIES", 1)
    chunked = exact_joint(model, K, M, mutation=mutation)
    assert len(chunks) >= 3 and set(chunks) == {1}
    assert chunked == whole and list(chunked[0]) == list(whole[0]) == sorted(whole[0])


def test_weights_past_63_bits_stay_exact(monkeypatch):
    # Law weights scaled by 2^64 push D past int64: the joint then comes in
    # Python ints, scaled alike, and the report does not move
    cell = (MODEL_I, 7, 1)
    joint, D = exact_joint(*cell, mutation="skewed_class_pmf")
    report = audit_exact(*cell, mutation="skewed_class_pmf")
    law = audit.scenario_law
    monkeypatch.setattr(
        audit, "scenario_law", lambda *a, **kw: {fp: w << 64 for fp, w in law(*a, **kw).items()}
    )
    big, big_D = exact_joint(*cell, mutation="skewed_class_pmf")
    assert big_D == D << 64 and big == {fp: [x << 64 for x in row] for fp, row in joint.items()}
    assert audit_exact(*cell, mutation="skewed_class_pmf") == report


# -------------------------------------------------------------- monte carlo


def test_montecarlo_honest_model_one_passes():
    report = audit_montecarlo(MODEL_I, 5, 1, 20_000, Random(2))
    assert report.passed
    assert report.min_p >= report.significance / report.tests
    assert report.mutation is None


def test_montecarlo_honest_model_two_passes():
    report = audit_montecarlo(MODEL_II, 6, 3, 20_000, Random(2))
    assert report.passed


def test_montecarlo_names_its_worst_bin():
    report = audit_montecarlo(MODEL_I, 5, 1, 20_000, Random(2), mutation="unshuffled_sets")
    worst = report.worst_bin
    # the demand set always goes first, so "index j in slot 0" piles up on W = j
    assert worst.family == "slot" and worst.key[1] == 0
    j = worst.key[0]
    assert max(worst.counts) == worst.counts[j - 1]
    assert chisquare(worst.counts).pvalue == pytest.approx(report.min_p, abs=1e-300)

    report = audit_montecarlo(MODEL_II, 6, 3, 20_000, Random(2))
    worst = report.worst_bin
    assert worst.family in ("fingerprint", "slot") and len(worst.counts) == 6
    assert sum(worst.counts) >= 5 * 6
    assert chisquare(worst.counts).pvalue == pytest.approx(report.min_p, rel=1e-9)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_montecarlo_catches_every_mutation(mutation):
    report = audit_montecarlo(MODEL_I, 5, 1, 20_000, Random(2), mutation=mutation)
    assert not report.passed
    assert report.mutation == mutation


def test_montecarlo_refuses_an_unknown_mutation():
    for model, K, M in [(MODEL_I, 5, 1), (MODEL_II, 5, 2)]:
        with pytest.raises(ParameterError, match="unknown mutation"):
            audit_montecarlo(model, K, M, 1000, Random(0), mutation="nope")


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_montecarlo_catches_every_second_model_mutation(mutation):
    report = audit_montecarlo(MODEL_II, 10, 5, 20_000, Random(0), mutation=mutation)
    assert not report.passed and report.mutation == mutation


@pytest.mark.parametrize("significance", [0, -1, 1, 1.5, float("nan")])
def test_montecarlo_refuses_a_significance_outside_the_unit_interval(significance):
    # At 0 or below every min_p passes, so a leaky draw would pass too.
    with pytest.raises(ParameterError, match="significance"):
        audit_montecarlo(
            MODEL_I, 8, 2, 20_000, Random(0), mutation="unshuffled_sets", significance=significance
        )


def test_montecarlo_needs_enough_trials_per_bin():
    with pytest.raises(AuditSizeError):
        audit_montecarlo(MODEL_I, 8, 2, 30, Random(0))


def _reference_bins(drawn, K: int) -> list:
    """The per-trial binning the array bins replaced, kept as their
    reference: fingerprint_of each trial's sets, and the first set holding
    each index by a loop over the sets, last first.  Every bin in the order
    first met, fingerprint bins first, as ((family, key), counts)."""
    fp_bins = defaultdict(lambda: [0] * K)
    slot_bins = defaultdict(lambda: [0] * K)
    for sets, W in drawn:
        for trial_sets, w in zip(sets.tolist(), (W - 1).tolist()):
            fp_bins[fingerprint_of(trial_sets)][w] += 1
            slot_of = [-1] * K
            for pos in range(len(trial_sets) - 1, -1, -1):
                for i in trial_sets[pos]:
                    slot_of[i - 1] = pos
            for j, pos in enumerate(slot_of, start=1):
                slot_bins[j, pos][w] += 1
    return [((family, key), counts)
            for family, table in (("fingerprint", fp_bins), ("slot", slot_bins))
            for key, counts in table.items()]


def _reference_worst(bins: list, K: int) -> Bin:
    """The first bin with the smallest p-value among those with 5K samples."""
    tested = [(key, counts) for key, counts in bins if sum(counts) >= 5 * K]
    pvalues = [_chisquare_p(counts) for _, counts in tested]
    (family, key), counts = tested[pvalues.index(min(pvalues))]
    return Bin(family, key, tuple(counts))


@pytest.mark.parametrize(
    "model,K,M,mutation",
    [(MODEL_I, 5, 1, None), (MODEL_I, 7, 1, None), (MODEL_I, 8, 2, None),
     *((MODEL_I, 8, 2, name) for name in sorted(MUTATIONS)),
     (MODEL_II, 6, 3, None), (MODEL_II, 10, 5, None), (MODEL_II, 5, 1, None),
     (MODEL_II, 6, 2, None), (MODEL_II, 5, 5, None)],
    ids=str,
)
def test_array_bins_match_the_per_trial_reference(monkeypatch, model, K, M, mutation):
    # Small chunks, so that bins first met in a later chunk are ranked too.
    monkeypatch.setattr(audit, "SCREEN_CHUNK_ENTRIES", 64 * 2 * K)
    drawn, filled = [], []
    add = audit._Bins.add

    def recording(self, sets, W):
        drawn.append((sets.copy(), W.copy()))
        filled.append(self)
        add(self, sets, W)

    monkeypatch.setattr(audit._Bins, "add", recording)
    report = audit_montecarlo(model, K, M, 3_000, Random(4), mutation=mutation)
    assert len(drawn) == -(-3_000 // 64) and len({id(bins) for bins in filled}) == 1
    reference = _reference_bins(drawn, K)
    keys, counts, skipped = filled[0].tested(0)
    assert list(zip(keys, counts)) == reference and skipped == 0
    assert report.worst_bin == _reference_worst(reference, K)


def test_the_screen_works_in_bounded_memory():
    # I(8,2) has 840 reachable fingerprints, so past 100,000 trials the bin
    # tables stop growing: only a draw of all the trials at once could grow.
    peaks = []
    for trials in (100_000, 400_000):
        tracemalloc.start()
        try:
            audit_montecarlo(MODEL_I, 8, 2, trials, Random(0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_the_screen_sorts_each_bin_code_a_bounded_number_of_times(monkeypatch):
    # At I(101,9) nearly every trial meets a new fingerprint, so a table
    # re-sorted after every chunk would sort each code once per later chunk,
    # and the screen's time would grow with the square of its trials.  The
    # merges of each family together may sort at most three times the codes
    # its chunks add.
    added, sorted_codes = Counter(), Counter()
    merge = audit._Family._merge

    def counting_merge(self):
        added[id(self)] += self.pending_size
        sorted_codes[id(self)] += len(self.codes) + self.pending_size
        merge(self)

    monkeypatch.setattr(audit._Family, "_merge", counting_merge)
    trials = 20_000
    assert trials // max(1, audit.SCREEN_CHUNK_ENTRIES // (2 * 101)) >= 10  # many chunks
    audit_montecarlo(MODEL_I, 101, 9, trials, Random(0))
    assert len(added) == 2  # both families
    for family in added:
        assert sorted_codes[family] <= 3 * added[family], (sorted_codes, added)


def _paired_counts(K: int, x: float) -> list:
    """K counts around 10^5 whose Pearson statistic is about x: pairs of
    bins at 10^5 + d and 10^5 - d, and one bin at 10^5 when K is odd."""
    pairs, mean = K // 2, 100_000
    d = round(sqrt(x * mean / (2 * pairs)))
    return [mean + d] * pairs + [mean - d] * pairs + [mean] * (K % 2)


_P_GRID_K = (2, 3, 8, 9, 100, 101, 1000, 1001)
# flat (p near 1), mildly skewed (p near a Bonferroni threshold of 1e-6 over
# the grid's 24 tests) and heavily skewed (p far below 1e-200)
_P_GRID = [
    _paired_counts(K, x)
    for K in _P_GRID_K
    for x in (K / 4, chi2.isf(1e-6 / (3 * len(_P_GRID_K)), K - 1), chi2.isf(1e-250, K - 1))
]


def test_chisquare_p_agrees_with_scipy():
    mine = [_chisquare_p(counts) for counts in _P_GRID]
    ref = [chisquare(counts).pvalue for counts in _P_GRID]
    for counts, p, q in zip(_P_GRID, mine, ref):
        assert p == pytest.approx(q, rel=1e-9, abs=0), (len(counts), q)
    # the grid reaches every regime it names, at every K
    flat, mild, heavy = mine[0::3], mine[1::3], mine[2::3]
    assert max(flat) > 1 - 1e-12 and min(flat) > 0.4
    assert all(1e-8 < p < 1e-7 for p in mild)
    assert all(0 < p < 1e-200 for p in heavy)


@pytest.mark.parametrize("K", _P_GRID_K)
def test_chisquare_p_of_equal_counts_is_one(K):
    assert _chisquare_p([7] * K) == 1.0 == chisquare([7] * K).pvalue
    # one count moved between two bins: the terms sum to 1 + 2^-52 at K=100
    # and K=1000 before the clamp
    nearly = [101, 99] + [100] * (K - 2)
    p = _chisquare_p(nearly)
    assert p <= 1.0 and p == pytest.approx(chisquare(nearly).pvalue, rel=1e-9)


def test_runtime_never_imports_scipy():
    # A fresh interpreter: this file's own scipy import cannot hide a leak.
    script = (
        "import sys; from random import Random\n"
        "import pircsi, pircsi.cli, pircsi.wire\n"
        "from pircsi import MODEL_I, audit_montecarlo\n"
        "audit_montecarlo(MODEL_I, 8, 2, 10_000, Random(0))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------- recoverability


@pytest.mark.parametrize(
    "model,K,M", [(MODEL_I, 6, 2), (MODEL_I, 5, 0), (MODEL_II, 6, 3), (MODEL_II, 4, 4)]
)
def test_recoverability_cells(model, K, M):
    report = audit_recoverability(FieldParams(5, 2), model, K, M, 150, Random(9))
    assert report.passed
    assert report.successes == report.trials == 150


# --------------------------------------------------------------------- rate


def test_rate_frozen_cells():
    rep = measure_rate(MODEL_I, 10, 4)
    assert rep.elements_downloaded == 2
    assert rep.measured_rate == Fraction(1, 2) == rep.capacity
    assert rep.matches_capacity

    rep = measure_rate(MODEL_II, 7, 3)
    assert rep.elements_downloaded == 2 and rep.measured_rate == Fraction(1, 2)

    rep = measure_rate(MODEL_II, 5, 5)
    assert rep.elements_downloaded == 1 and rep.measured_rate == 1

    rep = measure_rate(MODEL_II, 6, 1)
    assert rep.elements_downloaded == 0
    assert rep.measured_rate == inf and rep.capacity == inf
    assert rep.matches_capacity
