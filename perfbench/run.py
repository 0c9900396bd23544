#!/usr/bin/env python3
"""Loopback retrieval and auditor benchmark for pircsi.

    python3 perfbench/run.py --workload fetch-small --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: the package is imported from the
checkout's src/ directory, and scratch files go under .bench_build/.  The
workloads, metrics and checks are described in perfbench/README.md.

Standard output holds human-readable lines, each metric by name with its
unit, followed by one JSON line with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones, taken from a traced run.
"""

import argparse
import json
import os
import select
import statistics
import struct
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter, perf_counter_ns

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(SRC))
if not (SRC / "pircsi" / "__init__.py").is_file():
    sys.exit(f"perfbench: no pircsi package under {SRC}")
from pircsi import (  # noqa: E402  (the checkout's src/ must be on the path first)
    Database,
    FieldParams,
    ParameterError,
    ProtocolError,
    Scenario,
    WireParseError,
    audit_exact,
    audit_montecarlo,
    canonical_fingerprint,
    case3_pmf,
    protocol_csi2,
    protocol_rp,
    rp_distribution,
    sample_from_pmf,
    sample_scenario,
    wire,
)

END_TO_END = {"setup_s": "s", "p50_ms": "ms"}

EXACT_CELLS = (("I", 8, 2), ("II", 12, 7), ("I", 7, 1), ("I", 9, 1))


def _cell_label(cell) -> str:
    return "-".join(map(str, cell))


PER_LAYER = {
    "pircsi.import_s": "s",
    "field.params_ms": "ms",
    "model.database_load_ms": "ms",
    "model.sample_scenario_us": "us",
    "pmf.sample_from_pmf_us": "us",
    "protocol_rp.build_query_us": "us",
    "protocol_rp.answer_query_us": "us",
    "protocol_rp.decode_answer_us": "us",
    "protocol_csi2.build_query_us": "us",
    "protocol_csi2.answer_query_us": "us",
    "protocol_csi2.decode_answer_us": "us",
    "wire.encode_query_us": "us",
    "wire.decode_query_us": "us",
    "wire.encode_answer_us": "us",
    "wire.decode_answer_us": "us",
    "wire.fetch_us": "us",
    "wire.transport_us": "us",
    "wire.query_frame_bytes": "bytes",
    "wire.answer_frame_bytes": "bytes",
    "audit.montecarlo_trial_us": "us",
    "audit.fingerprint_us": "us",
    "audit.mc_bins_tested": "count",
    "audit.mc_bins_skipped": "count",
    **{f"audit.exact_cell_s.{_cell_label(c)}": "s" for c in EXACT_CELLS},
    "trace.overhead_pct": "%",
}

SETUP_REPEATS = 5  # set-up is timed this often per run; the median is reported
WARMUP_RETRIEVALS = 5  # checked and counted, but not timed
MIN_PHASE_RETRIEVALS = 20  # each phase of a traced fetch run times at least this many


@dataclass(frozen=True)
class FetchWorkload:
    model: str
    K: int
    M: int
    q: int
    m: int

    @property
    def protocol(self):
        return protocol_rp if self.model == "I" else protocol_csi2

    @property
    def elements(self) -> int:
        """Capacity download count from the paper: ceil(K/(M+1)) sets for
        Model I; the overlap case of Model II downloads two elements."""
        return -(-self.K // (self.M + 1)) if self.model == "I" else 2


FETCH_WORKLOADS = {
    "fetch-small": FetchWorkload("I", 100, 9, 3, 1),
    "fetch-many-sets": FetchWorkload("I", 1000, 9, 257, 4),
    "fetch-big-sets": FetchWorkload("II", 1000, 600, 257, 4),
}

# One audit round: an exact audit of each cell in EXACT_CELLS, each preceded
# by an honest Monte-Carlo screen (interleaved, so both kinds of timing sample
# the whole round), then one screen of a builder with a planted defect.
# I(7,1) and I(9,1) are not private (four or more sets with a duplicate), so
# they count as failed operations until the builder is fixed.
AUDIT_CELL = ("I", 8, 2)
MC_TRIALS = 10_000
MUTANT = "unshuffled_sets"
MUTANT_TRIALS = 2_000
# Family significance of each screen.  At the usual 0.01 an honest screen
# would reject about once per hundred calls, and the benchmark makes hundreds;
# 1e-6 still rejects the planted defect with p-values near 1e-85.
SIGNIFICANCE = 1e-6
REPLAY_TRIALS = 2_000  # traced replay of the Monte-Carlo trial body

PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import pircsi\n"
    "pircsi.FieldParams(3)\n"
    "print(time.perf_counter() - t)\n"
)


class RunState:
    """Counts and the first fault seen, shared by both kinds of workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fault = None

    def note_fault(self, fault: str | None) -> None:
        if fault is not None and self.fault is None:
            self.fault = fault


# -- the benchmark's own arithmetic --------------------------------------------


def combine(messages, indices, coeffs, q: int) -> tuple:
    """sum(c * x) mod q, word by word, over the benchmark's copy of the messages."""
    words = [0] * len(messages[0])
    for i, c in zip(indices, coeffs):
        for k, x in enumerate(messages[i - 1]):
            words[k] += c * x
    return tuple(w % q for w in words)


def query_fault(model: str, K: int, M: int, q: int, query, S) -> str | None:
    """Structure the paper requires of a query, checked without the program."""
    sets = query.sets
    for qs in sets:
        if len(set(qs.indices)) != len(qs.indices):
            return "a query set repeats an index"
        if not all(1 <= i <= K for i in qs.indices):
            return "a query index lies outside [1, K]"
        if not all(1 <= c <= q - 1 for c in qs.coeffs):
            return "a query coefficient lies outside [1, q-1]"
    if model == "I":
        n = -(-K // (M + 1))
        if len(sets) != n or any(len(qs.indices) != M + 1 for qs in sets):
            return f"Model I query is not {n} sets of size {M + 1}"
        counts = Counter(i for qs in sets for i in qs.indices)
        if set(counts) != set(range(1, K + 1)):
            return "Model I sets do not cover [K]"
        if max(counts.values()) > 2 or list(counts.values()).count(2) != (M + 1) * n - K:
            return f"Model I query does not use exactly {(M + 1) * n - K} indices twice"
        return None
    if len(sets) != 2 or len(sets[0].indices) != len(sets[1].indices):
        return "overlap query is not two sets of one size"
    if set(S) not in (set(sets[0].indices), set(sets[1].indices)):
        return "neither overlap set is the side-information support"
    return None


def frame_bytes(w: FetchWorkload) -> tuple[int, int]:
    """Query and answer frame sizes from the wire format in the README:
    5-byte frame header; query 4 bytes plus per set 2 + size * (4 + 2m);
    answer 2 bytes plus 2m per element."""
    if w.model == "I":
        sizes = [w.M + 1] * w.elements
    else:
        sizes = [w.M, w.M]
    upload = 5 + 4 + sum(2 + s * (4 + 2 * w.m) for s in sizes)
    return upload, 5 + 2 + 2 * w.m * w.elements


def encode_database(q: int, m: int, messages) -> bytes:
    """Database file: q, m, K as u32 little-endian, then m u16 words per message."""
    body = b"".join(struct.pack(f"<{m}H", *x) for x in messages)
    return struct.pack("<III", q, m, len(messages)) + body


# -- processes ------------------------------------------------------------------


class ServerProcess:
    """perfbench/server.py in a child process, stopped by closing its stdin."""

    def __init__(self, db_path: Path, cpu: int | None):
        pin = [] if cpu is None else [str(cpu)]
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(db_path), *pin],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("benchmark server did not report ready")
            self.info = json.loads(line)
        except BaseException:
            self.stop()
            raise
        self.address = ("127.0.0.1", self.info["port"])

    def stop(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        print(f"server pid {self.proc.pid} stopped")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def start_server(db_path: Path, cpu: int | None):
    """Start the server SETUP_REPEATS times, timing each start from spawn to
    the client's decoded HELLO reply.  The last server keeps running."""
    times, infos, server = [], [], None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        t0 = perf_counter()
        server = ServerProcess(db_path, cpu)
        try:
            params, K = wire.hello(server.address)
        except BaseException:
            server.stop()
            raise
        times.append(perf_counter() - t0)
        infos.append(server.info)
    return server, params, K, times, infos


# -- fetch workloads ------------------------------------------------------------


class FetchSession:
    """One closed-loop client: the next query goes out only after the previous
    answer is decoded and checked."""

    def __init__(self, w, messages, address, params, seed_tag, tracer, replay_db):
        self.w = w
        self.messages = messages
        self.address = address
        self.params = params
        self.rng_inputs = Random(f"{seed_tag}/scenarios")
        self.rng_queries = Random(f"{seed_tag}/queries")
        self.tracer = tracer
        self.replay_db = replay_db
        self.layer = "protocol_rp" if w.model == "I" else "protocol_csi2"
        self.table = rp_distribution(w.K, w.M).table if w.model == "I" else case3_pmf(w.K, w.M)
        self.frames = frame_bytes(w)
        self.state = RunState()

    def scenario(self) -> Scenario:
        w, rng = self.w, self.rng_inputs
        S = tuple(sorted(rng.sample(range(1, w.K + 1), w.M)))
        C = tuple(rng.randrange(1, w.q) for _ in S)
        if w.model == "I":
            support = set(S)
            W = rng.randrange(1, w.K + 1)
            while W in support:
                W = rng.randrange(1, w.K + 1)
        else:
            W = rng.choice(S)
        Y = self.params.element(combine(self.messages, S, C, w.q))
        return Scenario(W=W, S=S, C=C, Y=Y, model=w.model)

    def retrieve(self, traced: bool) -> int | None:
        """One retrieval; returns its latency in ns, or None if it failed."""
        w, tracer = self.w, self.tracer
        span = tracer.span if traced else (lambda name: nullcontext())
        scenario = self.scenario()
        self.state.attempted += 1
        if traced:
            tracer.new_request()
        try:
            with span("retrieval"):
                t0 = perf_counter_ns()
                with span(f"{self.layer}.build_query"):
                    query, state = w.protocol.build_query(scenario, w.K, self.rng_queries)
                with span("wire.fetch"):
                    answer = wire.fetch(self.address, query, self.params)
                with span(f"{self.layer}.decode_answer"):
                    value = w.protocol.decode_answer(answer, state)
                t1 = perf_counter_ns()
        except (ProtocolError, WireParseError, ParameterError, OSError) as exc:
            self.state.failed += 1
            print(f"retrieval failed: {exc}", file=sys.stderr)
            return None
        self.state.note_fault(self.check(scenario, query, answer, value))
        if traced:
            self.replay(query, answer)
        return t1 - t0

    def check(self, scenario, query, answer, value) -> str | None:
        w = self.w
        fault = query_fault(w.model, w.K, w.M, w.q, query, scenario.S)
        if fault:
            return fault
        if len(answer.values) != w.elements:
            return f"answer holds {len(answer.values)} elements, capacity count is {w.elements}"
        for qs, got in zip(query.sets, answer.values):
            if got.coeffs != combine(self.messages, qs.indices, qs.coeffs, w.q):
                return "an answer element differs from sum(c * x) mod q"
        if value.coeffs != self.messages[scenario.W - 1]:
            return "decoded value differs from the demanded message"
        return None

    def replay(self, query, answer) -> None:
        """Time the server's side of this retrieval in-process, plus one pmf
        draw of the kind the builder makes."""
        w, p, span = self.w, self.params, self.tracer.span
        with span("pmf.sample_from_pmf"):
            sample_from_pmf(self.table, self.rng_queries)
        with span("wire.encode_query"):
            payload = wire.encode_query(query, p)
        with span("wire.decode_query"):
            parsed = wire.decode_query(payload, p, w.K)
        with span(f"{self.layer}.answer_query"):
            again = w.protocol.answer_query(self.replay_db, parsed)
        with span("wire.encode_answer"):
            body = wire.encode_answer(again)
        with span("wire.decode_answer"):
            wire.decode_answer(body, p)
        if again != answer:
            self.state.note_fault("replayed answer differs from the served one")
        if (5 + len(payload), 5 + len(body)) != self.frames:
            self.state.note_fault("frame sizes differ from the wire format")


def run_fetch(name: str, w: FetchWorkload, seed: int, seconds: float, trace: bool, server_cpu):
    rng = Random(f"{name}/{seed}/database")
    messages = [tuple(rng.randrange(w.q) for _ in range(w.m)) for _ in range(w.K)]
    db_path = WORK / f"{name}-{seed}-{os.getpid()}.db"
    db_path.write_bytes(encode_database(w.q, w.m, messages))
    try:
        server, params, K, setups, infos = start_server(db_path, server_cpu)
        with server:
            if K != w.K or (params.q, params.m) != (w.q, w.m):
                raise RuntimeError(f"server announced q={params.q} m={params.m} K={K}")
            tracer = Tracer() if trace else None
            replay_db = Database.load(db_path) if trace else None
            session = FetchSession(w, messages, server.address, params, f"{name}/{seed}", tracer, replay_db)
            for _ in range(WARMUP_RETRIEVALS):
                session.retrieve(traced=False)
            plain, traced = [], []
            t_start = perf_counter()
            untraced_until = seconds / 2 if trace else seconds
            while len(plain) < MIN_PHASE_RETRIEVALS or perf_counter() - t_start < untraced_until:
                _append(plain, session.retrieve(traced=False))
            while trace and (len(traced) < MIN_PHASE_RETRIEVALS or perf_counter() - t_start < seconds):
                _append(traced, session.retrieve(traced=True))
    finally:
        db_path.unlink(missing_ok=True)

    up, down = session.frames
    qps = len(plain) * 1e9 / sum(plain)
    p50_ms = statistics.median(plain) / 1e6
    tail_pct, tail_ms = _tail(plain)
    report = {
        "fetch_qps": (qps, "retrievals/s"),
        "fetch_p50_ms": (p50_ms, "ms"),
        f"fetch_tail_ms (p{tail_pct} of {len(plain)})": (tail_ms, "ms"),
        "upload_bytes": (up, "bytes/retrieval"),
        "download_bytes": (down, "bytes/retrieval"),
    }
    e2e = {"setup_s": statistics.median(setups), "p50_ms": p50_ms}
    if not trace:
        return session.state, report, e2e

    layers = _layer_means(tracer)
    fetch_ns = tracer.durations("wire.fetch")
    server_side = [
        tracer.durations(n)
        for n in ("wire.encode_query", "wire.decode_query", f"{session.layer}.answer_query",
                  "wire.encode_answer", "wire.decode_answer")
    ]
    transport = [fetch_ns[r] - sum(d[r] for d in server_side) for r in fetch_ns]
    layers["wire.transport_us"] = statistics.fmean(transport) / 1e3
    layers["pircsi.import_s"] = statistics.median(i["import_s"] for i in infos)
    layers["model.database_load_ms"] = statistics.median(i["load_ms"] for i in infos)
    layers["field.params_ms"] = _median_ms(lambda: FieldParams(w.q, w.m))
    layers["wire.query_frame_bytes"], layers["wire.answer_frame_bytes"] = up, down
    layers["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1) * 100
    tracer.write(WORK / f"spans-{name}-seed{seed}.jsonl")
    return session.state, report, layers


def _append(samples: list, latency: int | None) -> None:
    if latency is not None:
        samples.append(latency)


def _tail(samples_ns: list) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it, and
    the latency there in ms: p99 from 1,000 samples on.  A phase holds at
    least MIN_PHASE_RETRIEVALS samples, so the percentile is at least 50."""
    pct = 100 - -(-1000 // len(samples_ns))
    return pct, statistics.quantiles(samples_ns, n=100, method="inclusive")[pct - 1] / 1e6


def _layer_means(tracer: Tracer) -> dict:
    """Mean self time per span, in the unit each per-layer name carries."""
    out = {}
    for name, (count, ns) in tracer.self_times().items():
        if name + "_us" in PER_LAYER:
            out[name + "_us"] = ns / count / 1e3
        elif PER_LAYER.get(name) == "s":  # exact-cell spans carry the metric name
            out[name] = ns / count / 1e9
    return out


def _median_ms(build) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        build()
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


# -- audit workload ---------------------------------------------------------------


def exact_fault(report, K: int) -> tuple[str | None, bool]:
    """Properties every exact report must have, and whether the cell is flat.

    The demand is uniform a priori, so summing P(fingerprint) * P(W=w |
    fingerprint) over fingerprints must give 1/K for every w: a wrongly
    weighted enumeration breaks this even where each row is normalised."""
    probs, posteriors = report.fingerprint_probs, report.posteriors
    flat_value = Fraction(1, K)
    if sum(probs.values()) != 1:
        return "fingerprint probabilities do not sum to 1", False
    if any(len(row) != K or sum(row) != 1 for row in posteriors.values()):
        return "a posterior row does not sum to 1 over K demands", False
    for w in range(K):
        if sum(probs[fp] * row[w] for fp, row in posteriors.items()) != flat_value:
            return f"demand {w + 1} has prior {flat_value} but its posteriors average otherwise", False
    flat = all(x == flat_value for row in posteriors.values() for x in row)
    return None, flat


def run_audit(seed: int, seconds: float, trace: bool):
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=ROOT, capture_output=True, check=True, timeout=120
        )
        setups.append(perf_counter() - t0)
        imports.append(float(out.stdout))

    state = RunState()
    tracer = Tracer() if trace else None
    mc = {False: [0, 0], True: [0, 0]}  # traced? -> [trials, ns]
    exact_passes, round_ns, bins = [], [], []
    t_start = perf_counter()
    rounds = 0
    # Whole rounds only, so the failed share is the same in every run.  A traced
    # run spends its first round untraced, to measure the tracing overhead.
    while rounds < 1 + trace or perf_counter() - t_start < seconds:
        traced = trace and rounds > 0
        span = tracer.span if traced else (lambda name: nullcontext())
        rng = Random(f"audit/{seed}/{rounds}")
        rounds += 1

        exact_ns, mc_before = 0, mc[traced][1]
        for cell in EXACT_CELLS:
            state.attempted += 1
            with span("audit.montecarlo"):
                t0 = perf_counter_ns()
                rep = audit_montecarlo(*AUDIT_CELL, MC_TRIALS, rng, significance=SIGNIFICANCE)
                mc[traced][1] += perf_counter_ns() - t0
            mc[traced][0] += MC_TRIALS
            bins.append((rep.tests, rep.skipped_bins))
            if not (rep.passed and rep.tests >= 1):
                state.failed += 1

            state.attempted += 1
            with span(f"audit.exact_cell_s.{_cell_label(cell)}"):
                t0 = perf_counter_ns()
                rep = audit_exact(*cell)
                exact_ns += perf_counter_ns() - t0
            fault, flat = exact_fault(rep, cell[1])
            state.note_fault(fault)
            if not flat:
                state.failed += 1
        exact_passes.append(exact_ns)
        round_ns.append(exact_ns + mc[traced][1] - mc_before)

        state.attempted += 1
        mutant = audit_montecarlo(
            *AUDIT_CELL, MUTANT_TRIALS, rng, mutation=MUTANT, significance=SIGNIFICANCE
        )
        if mutant.passed:
            state.failed += 1

        if traced:
            state.note_fault(_replay_trials(tracer, rng))

    mc_rate = {k: trials * 1e9 / ns for k, (trials, ns) in mc.items() if ns}
    exact_s = statistics.median(exact_passes) / 1e9
    report = {
        "mc_trials_per_s": (mc_rate[False], "trials/s"),
        f"exact_audit_s (median of {len(exact_passes)})": (exact_s, "s"),
    }
    e2e = {"setup_s": statistics.median(setups), "p50_ms": statistics.median(round_ns) / 1e6}
    if not trace:
        return state, report, e2e

    layers = _layer_means(tracer)
    traced_mc = tracer.self_times()["audit.montecarlo"]
    layers["audit.montecarlo_trial_us"] = traced_mc[1] / 1e3 / (traced_mc[0] * MC_TRIALS)
    layers["audit.mc_bins_tested"] = statistics.median(b[0] for b in bins)
    layers["audit.mc_bins_skipped"] = statistics.median(b[1] for b in bins)
    layers["pircsi.import_s"] = statistics.median(imports)
    layers["field.params_ms"] = _median_ms(lambda: FieldParams(3))
    layers["trace.overhead_pct"] = (mc_rate[False] / mc_rate[True] - 1) * 100
    tracer.write(WORK / f"spans-audit-seed{seed}.jsonl")
    return state, report, layers


def _replay_trials(tracer: Tracer, rng: Random) -> str | None:
    """The Monte-Carlo trial body, replayed with a span around each call."""
    model, K, M = AUDIT_CELL
    db = Database.random(FieldParams(3), K, rng)
    table = rp_distribution(K, M).table
    span = tracer.span
    for _ in range(REPLAY_TRIALS):
        tracer.new_request()
        with span("audit.trial"):
            with span("model.sample_scenario"):
                scenario = sample_scenario(db, M, model, rng)
            with span("protocol_rp.build_query"):
                query, _ = protocol_rp.build_query(scenario, K, rng)
            with span("audit.fingerprint"):
                canonical_fingerprint(query)
        with span("pmf.sample_from_pmf"):
            sample_from_pmf(table, rng)
        fault = query_fault(model, K, M, 3, query, scenario.S)
        if fault:
            return fault
    return None


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*FETCH_WORKLOADS, "audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Client and server each get a core of their own when there are two.  Left
    # to the scheduler they sometimes share one, and the median latency of a
    # one-second window then moves by up to a third.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[1] if len(cpus) > 1 else None
    os.sched_setaffinity(0, {cpus[0]})
    WORK.mkdir(parents=True, exist_ok=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.workload == "audit":
        state, report, metrics = run_audit(args.seed, args.seconds, bool(args.trace))
    else:
        w = FETCH_WORKLOADS[args.workload]
        state, report, metrics = run_fetch(
            args.workload, w, args.seed, args.seconds, bool(args.trace), server_cpu
        )

    for name, (value, unit) in report.items():
        print(f"{name} {value} {unit}")
    units = PER_LAYER if args.trace else END_TO_END
    values = {name: metrics.get(name, 0) for name in units}
    for name, unit in units.items():
        print(f"{name} {values[name]} {unit}")
    print(f"attempted {state.attempted} failed {state.failed}")
    if state.fault:
        print(f"check failed: {state.fault}", file=sys.stderr)
    result = {
        "correct": state.fault is None,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
