"""Acceptance gate: one printed verdict line per criterion.

Run `pytest tests/test_acceptance.py -s` to watch the verdict lines appear;
without -s pytest still enforces every criterion and prints the lines in the
captured output of any failure.

Statistical criteria run with fixed seeds chosen inside the 99% acceptance
mass of the honest protocol, so the verdicts are reproducible bit for bit.
"""
import signal
import time
from fractions import Fraction
from random import Random

import numpy as np

from pircsi import (
    Database,
    FieldParams,
    MODEL_I,
    MODEL_II,
    audit_exact,
    audit_montecarlo,
    capacity,
    measure_rate,
    protocol_csi2,
    protocol_rp,
    sample_scenario,
    wire,
)
from pircsi.audit import audit_recoverability
from pircsi.pmf import case2_pmf, case3_pmf, rp_distribution
from pircsi.protocol_rp import check_partition

from conftest import answer_of, message, query_of


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return line


def test_criterion_1_first_model_capacity_grid():
    start = time.perf_counter()
    bad = []
    for K in range(2, 13):
        for M in range(0, K):
            n = -(-K // (M + 1))
            rep = measure_rate(MODEL_I, K, M)
            if (
                rep.elements_downloaded != n
                or rep.measured_rate != Fraction(1, n)
                or not rep.matches_capacity
            ):
                bad.append((K, M))
            # measure_rate runs seed 0; the count is structural, so other
            # seeds' queries carry the same n sets
            db = Database.random(FieldParams(3), K, Random(K))
            for seed in (1, 2):
                rng = Random(seed)
                scenario = sample_scenario(db, M, MODEL_I, rng)
                if len(protocol_rp.build_query(scenario, K, rng)[0].sets) != n:
                    bad.append((K, M, seed))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    line = _verdict(
        1,
        "first-model download count is ceil(K/(M+1)) and rate equals capacity, 2<=K<=12",
        ok,
        f"{elapsed:.1f}s, 66 cells x 3 seeds",
    )
    assert ok, f"{line} bad={bad}"


def test_criterion_2_second_model_capacity_grid():
    start = time.perf_counter()
    bad = []
    for K in range(2, 13):
        counts = []
        for M in range(1, K + 1):
            rep = measure_rate(MODEL_II, K, M)
            counts.append(rep.elements_downloaded)
            if rep.measured_rate != capacity(MODEL_II, K, M) or not rep.matches_capacity:
                bad.append((K, M))
        expect = [0, 1] if K == 2 else [0, 1] + [2] * (K - 3) + [1]
        if counts != expect:
            bad.append((K, counts))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 5.0
    line = _verdict(
        2,
        "second-model download counts follow (0, 1, 2, ..., 2, 1) with exact capacity match",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok, f"{line} bad={bad}"


def test_criterion_3_recoverability_grid():
    start = time.perf_counter()
    bad = []
    cells = 0
    for q in (3, 5, 7):
        for m in (1, 2):
            params = FieldParams(q, m)
            for K in range(2, 11):
                for M in range(0, K):
                    rep = audit_recoverability(
                        params, MODEL_I, K, M, 200, Random(1000 + cells)
                    )
                    cells += 1
                    if rep.successes != rep.trials:
                        bad.append((q, m, MODEL_I, K, M))
                for M in range(1, K + 1):
                    rep = audit_recoverability(
                        params, MODEL_II, K, M, 200, Random(2000 + cells)
                    )
                    cells += 1
                    if rep.successes != rep.trials:
                        bad.append((q, m, MODEL_II, K, M))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120.0
    line = _verdict(
        3,
        "exact decode on every trial over (q,m) in {3,5,7}x{1,2}, K<=10, both models",
        ok,
        f"{elapsed:.1f}s, {cells} cells x 200 trials, zero tolerance",
    )
    assert ok, f"{line} bad={bad}"


def test_criterion_4_exact_privacy_posteriors():
    start = time.perf_counter()
    bad = []
    cells = 0
    for K in range(2, 13):
        for model, Ms in ((MODEL_I, range(0, K)), (MODEL_II, range(1, K + 1))):
            for M in Ms:
                rep = audit_exact(model, K, M)
                cells += 1
                if not rep.uniform:
                    bad.append((model, K, M, rep.worst_deviation))
    elapsed = time.perf_counter() - start
    ok = not bad
    line = _verdict(
        4,
        "posteriors exactly 1/K on every cell of both models with K<=12 (rational equality)",
        ok,
        f"{elapsed:.1f}s, {cells} cells",
    )
    assert ok, f"{line} bad={bad}"


def _give_up(signum, frame):
    raise TimeoutError("the structure draw did not finish")


def test_criterion_5_large_two_set_draws_finish():
    # Two-set cells with many repeats: the draw makes one class choice and
    # never starts again, so each finishes well inside the bound.  The alarm
    # only stops a draw that would not finish at all.
    bad = []
    previous = signal.signal(signal.SIGALRM, _give_up)
    try:
        for K, M in [(1000, 600), (100, 60), (1001, 999)]:
            S = tuple(range(2, M + 2))
            start = time.perf_counter()
            signal.alarm(10)
            try:
                sets, _ = protocol_rp.draw_structures(np.array([1]), np.array([S]), K, Random(K))
            except TimeoutError:
                bad.append((K, M, "no finish"))
                continue
            finally:
                signal.alarm(0)
            elapsed = time.perf_counter() - start
            check_partition(sets, K, M)
            if elapsed >= 2.0:
                bad.append((K, M, f"{elapsed:.2f}s"))
    finally:
        signal.signal(signal.SIGALRM, previous)
    ok = not bad
    line = _verdict(
        5,
        "Model I draws at I(1000,600), I(100,60) and I(1001,999) finish in under 2 s each",
        ok,
    )
    assert ok, f"{line} bad={bad}"


def test_criterion_6_pmf_normalization():
    bad = []
    for K in range(2, 13):
        for M in range(0, K):
            dist = rp_distribution(K, M)
            if sum(dist.table.values()) != 1:
                bad.append(("classes", K, M))
        for M in range(3, K // 2 + 1):
            if sum(case2_pmf(K, M).values()) != 1:
                bad.append(("disjoint", K, M))
        for M in range(max(2, K // 2 + 1), K):
            if sum(case3_pmf(K, M).values()) != 1:
                bad.append(("overlap", K, M))
    ok = not bad
    line = _verdict(6, "every emitted distribution sums to exactly 1", ok)
    assert ok, f"{line} bad={bad}"


def test_criterion_7_statistical_privacy_and_mutations():
    start = time.perf_counter()
    failures = []
    rep = audit_montecarlo(MODEL_I, 8, 2, 100_000, Random(0))
    if not rep.passed:
        failures.append(("honest", MODEL_I, rep.min_p))
    rep = audit_montecarlo(MODEL_II, 10, 5, 100_000, Random(1))
    if not rep.passed:
        failures.append(("honest", MODEL_II, rep.min_p))
    for name in ("unshuffled_sets", "deterministic_extras", "skewed_class_pmf"):
        rep = audit_montecarlo(MODEL_I, 8, 2, 100_000, Random(0), mutation=name)
        if rep.passed:
            failures.append(("mutation slipped through", name, rep.min_p))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    line = _verdict(
        7,
        "chi-square screen passes honest cells at 1e5 trials and catches all three mutations",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok, f"{line} failures={failures}"


def test_criterion_8_wire_protocol():
    start = time.perf_counter()
    problems = []

    # golden byte vectors
    gf3 = FieldParams(3)
    query = query_of([((3, 1, 2), (1, 2, 2))])
    if wire.encode_query(query, gf3) != bytes.fromhex(
        "01000100" "0300" "030000000100000002000000" "010002000200"
    ):
        problems.append("first-model query golden bytes")
    trivial = query_of([], MODEL_II, protocol_csi2.CASE_TRIVIAL)
    if wire.encode_query(trivial, gf3) != bytes.fromhex("02000000"):
        problems.append("query-free golden bytes")
    gf9 = FieldParams(3, 2)
    answer = answer_of(gf9, [gf9.element((2, 1))])
    if wire.encode_answer(answer) != bytes.fromhex("0100" "02000100"):
        problems.append("answer golden bytes")
    if wire.encode_frame(wire.MSG_HELLO, b"") != bytes.fromhex("0400000000"):
        problems.append("frame golden bytes")

    # 1e4 random query round trips across fields and models
    rng = Random(8)
    fields = [FieldParams(3), FieldParams(5), FieldParams(3, 2), FieldParams(7, 2)]
    for trial in range(10_000):
        params = rng.choice(fields)
        K = rng.randrange(2, 9)
        db = Database.random(params, K, rng)
        if rng.random() < 0.5:
            scenario = sample_scenario(db, rng.randrange(0, K), MODEL_I, rng)
            q, _ = protocol_rp.build_query(scenario, K, rng)
        else:
            scenario = sample_scenario(db, rng.randrange(1, K + 1), MODEL_II, rng)
            q, _ = protocol_csi2.build_query(scenario, K, rng)
        if wire.decode_query(wire.encode_query(q, params), params, K) != q:
            problems.append(f"round trip {trial}")
            break

    # loopback with 8 concurrent clients, end-to-end decode
    import threading

    db = Database.random(FieldParams(5, 2), 9, Random(77))
    errors = []

    def client(seed):
        try:
            crng = Random(seed)
            for _ in range(6):
                model = crng.choice((MODEL_I, MODEL_II))
                if model == MODEL_I:
                    sc = sample_scenario(db, crng.randrange(0, 9), MODEL_I, crng)
                    q, st = protocol_rp.build_query(sc, 9, crng)
                    ans = wire.fetch(server.address, q, db.params)
                    good = protocol_rp.decode_answer(ans, st) == message(db, sc.W)
                else:
                    sc = sample_scenario(db, crng.randrange(1, 10), MODEL_II, crng)
                    q, st = protocol_csi2.build_query(sc, 9, crng)
                    ans = wire.fetch(server.address, q, db.params)
                    good = protocol_csi2.decode_answer(ans, st) == message(db, sc.W)
                if not good:
                    errors.append(seed)
        except Exception as exc:  # noqa: BLE001 - every failure counts
            errors.append((seed, repr(exc)))

    with wire.PirServer(db, port=0) as server:
        threads = [threading.Thread(target=client, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if errors:
        problems.append(f"concurrent clients: {errors}")

    elapsed = time.perf_counter() - start
    ok = not problems
    line = _verdict(
        8,
        "golden vectors, 1e4 serialization round trips, 8-client loopback decode",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok, f"{line} problems={problems}"
