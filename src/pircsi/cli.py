"""Operator front end: demos, audits, sweeps, and the client/server pair.

Every subcommand is deterministic for a fixed flag set and seed, so
transcripts can be diffed across runs and machines.  Exit codes follow the
CI convention: 0 all checks passed, 1 a check failed, 2 bad usage.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction
from random import Random

from . import __version__, protocol_csi2, wire
from .audit import (
    DEFAULT_ROW_GUARD,
    MUTATIONS,
    audit_exact,
    audit_montecarlo,
    measure_rate,
)
from .errors import AuditSizeError, ParameterError, ProtocolError
from .field import FieldParams
from .model import MODEL_I, MODEL_II, Database, sample_scenario
from .pmf import case2_pmf, case3_pmf, partition_rounds, rp_distribution
from .protocols import answer_query, build_query, decode_answer

_CASE_NAMES = {
    protocol_csi2.CASE_TRIVIAL: "no-query",
    protocol_csi2.CASE_SINGLE: "single-probe",
    protocol_csi2.CASE_DISJOINT: "disjoint-cover",
    protocol_csi2.CASE_OVERLAP: "overlap-cover",
    protocol_csi2.CASE_FULL: "full-support",
}


def _rat(value) -> str:
    # Fraction formats as "a/b" or "a"; the query-free cell has infinite rate.
    return "inf" if value == float("inf") else str(Fraction(value))


def _rat_pair(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _format_element(row) -> str:
    """A message's word row (a sequence of ints, first coordinate lowest) as
    a polynomial in x, or as its one word when m = 1."""
    if len(row) == 1:
        return str(row[0])
    terms = []
    for power in range(len(row) - 1, -1, -1):
        c = row[power]
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        else:
            x = "x" if power == 1 else f"x^{power}"
            terms.append(x if c == 1 else f"{c}{x}")
    return "+".join(terms) if terms else "0"


@contextmanager
def _open_out(path: str | None):
    if path not in (None, "-"):
        with open(path, "w", newline="") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, as `| head` does
        with open(os.devnull, "w") as null:  # the rest, and the flush at exit, go nowhere
            os.dup2(null.fileno(), sys.stdout.fileno())


def _emit_json(payload: dict, path: str | None) -> None:
    with _open_out(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------- transcripts


def _print_scenario(scenario, fh) -> None:
    coeffs = " ".join(f"c_{i}={c}" for i, c in zip(scenario.S, scenario.C))
    support = "{" + ",".join(str(i) for i in scenario.S) + "}"
    print(
        f"scenario: demand W={scenario.W}, support S={support}, "
        f"coefficients {coeffs}, side information Y={_format_element(scenario.Y.coeffs)}",
        file=fh,
    )


def _print_query(query, fh) -> None:
    n = len(query.idx)
    if not n:
        print("query: none (the side information alone yields the demand)", file=fh)
        return
    label = f"{_CASE_NAMES[query.case_tag]}, " if query.model == MODEL_II else ""
    print(f"query ({label}{n} set{'s' if n != 1 else ''}):", file=fh)
    for pos, (indices, coeffs) in enumerate(zip(query.idx.tolist(), query.coef.tolist()), 1):
        combo = " + ".join(f"{c}*X_{i}" for i, c in zip(indices, coeffs))
        print(f"  set {pos}: {combo}", file=fh)


def _print_reveal(query, state, fh) -> None:
    W = state.scenario.W
    if not len(query.idx):
        print("reveal: nothing sent, nothing to hide", file=fh)
    elif query.model == MODEL_II and query.case_tag == protocol_csi2.CASE_SINGLE:
        probe = int(query.idx[0, 0])
        hit = "the demand itself" if probe == W else "its partner in S"
        print(f"reveal: probe covers index {probe} ({hit})", file=fh)
    else:
        # W's coefficient in the demand set; the disjoint case leaves W out.
        slot = state.demand_slot
        fresh = dict(zip(query.idx[slot].tolist(), query.coef[slot].tolist())).get(W)
        print(
            f"reveal: decoding uses slot {slot + 1}"
            + (f", fresh coefficient {fresh}" if fresh is not None else ""),
            file=fh,
        )


def _report(db: Database, query, answer, state, reveal: bool, head, *, both_parties: bool) -> int:
    """Decode the answer and decide the exit code (0 when decoding recovered
    the demand), so a reader that leaves early (`| head`) cannot change it;
    then print head(fh), the query, the answer, the reveal line if asked for,
    the decoded demand and the verdict through _open_out.  The demand's index
    is named only under reveal or when one process plays both parties (demo),
    which also prints the database's copy."""
    W = state.scenario.W
    decoded = decode_answer(answer, state)
    stored = db.words[W - 1].tolist()
    ok = list(decoded.coeffs) == stored
    with _open_out(None) as fh:
        head(fh)
        _print_query(query, fh)
        count = len(answer.words)
        print(f"answer: {count} element{'s' if count != 1 else ''}", file=fh)
        for pos, row in enumerate(answer.words.tolist(), start=1):
            print(f"  A_{pos} = {_format_element(row)}", file=fh)
        if reveal:
            _print_reveal(query, state, fh)
        demand = f"X_{W}" if reveal or both_parties else "X_W"
        print(f"decoded  {demand} = {_format_element(decoded.coeffs)}", file=fh)
        if both_parties:
            print(f"database X_{W} = {_format_element(stored)}", file=fh)
        print(f"result: {'PASS' if ok else 'FAIL'}", file=fh)
    return 0 if ok else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    rng = Random(args.seed)
    db = Database.random(FieldParams(args.q, args.ext), args.k, rng)
    scenario = sample_scenario(db, args.m, args.model, rng)
    query, state = build_query(scenario, args.k, rng)
    answer = answer_query(db, query)

    def head(fh) -> None:
        cell = f"model {args.model}  K={args.k}  M={args.m}  field GF({args.q}^{args.ext})"
        print(f"{cell}  seed={args.seed}", file=fh)
        print("database:", file=fh)
        for i, row in enumerate(db.words.tolist(), start=1):
            print(f"  X_{i} = {_format_element(row)}", file=fh)
        _print_scenario(scenario, fh)

    return _report(db, query, answer, state, args.reveal, head, both_parties=True)


# --------------------------------------------------------------------- audits


def _fingerprint_json(report) -> list:
    rows = []
    for fp in sorted(report.posteriors):
        rows.append(
            {
                "sets": [list(s) for s in fp],
                "probability": _rat(report.fingerprint_probs[fp]),
                "posterior": [_rat(p) for p in report.posteriors[fp]],
            }
        )
    return rows


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.exact:
        try:
            report = audit_exact(
                args.model, args.k, args.m, row_guard=args.row_guard, mutation=args.mutation
            )
        except AuditSizeError as exc:
            raise AuditSizeError(f"{exc}; rerun with --mc for a statistical audit") from None
        worst = report.worst_fingerprint
        payload = {
            "mode": "exact",
            "model": report.model,
            "K": report.K,
            "M": report.M,
            "uniform": report.uniform,
            "worst_deviation": _rat(report.worst_deviation),
            "worst_fingerprint": None if worst is None else [list(s) for s in worst],
            "fingerprints": _fingerprint_json(report),
        }
        _emit_json(payload, args.out)
        return 0 if report.uniform else 1
    if args.mc:
        report = audit_montecarlo(
            args.model,
            args.k,
            args.m,
            args.trials,
            Random(args.seed),
            mutation=args.mutation,
            significance=args.significance,
        )
        payload = {
            "mode": "mc",
            "model": report.model,
            "K": report.K,
            "M": report.M,
            "seed": args.seed,
            "trials": report.trials,
            "mutation": report.mutation,
            "significance": report.significance,
            "tests": report.tests,
            "skipped_bins": report.skipped_bins,
            "min_p": report.min_p,
            "passed": report.passed,
            "worst_bin": asdict(report.worst_bin),
        }
        _emit_json(payload, args.out)
        return 0 if report.passed else 1
    if args.mutation is not None:
        raise ParameterError("--mutation applies to --exact and --mc, not --rate")
    report = measure_rate(args.model, args.k, args.m)
    payload = {
        "mode": "rate",
        "model": report.model,
        "K": report.K,
        "M": report.M,
        "elements_downloaded": report.elements_downloaded,
        "measured_rate": _rat(report.measured_rate),
        "capacity": _rat(report.capacity),
        "matches_capacity": report.matches_capacity,
    }
    _emit_json(payload, args.out)
    return 0 if report.matches_capacity else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Every cell is measured before a row is written, so a reader that
    # leaves early (`| head`) cannot cut the check short.
    reports = [
        measure_rate(args.model, K, M)
        for K in range(args.k_min, args.k_max + 1)
        for M in (range(0, K) if args.model == MODEL_I else range(1, K + 1))
    ]
    with _open_out(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["model", "K", "M", "elements_downloaded", "measured_rate", "capacity", "equal"]
        )
        for rep in reports:
            rates = _rat(rep.measured_rate), _rat(rep.capacity)
            equal = "true" if rep.matches_capacity else "false"
            writer.writerow([rep.model, rep.K, rep.M, rep.elements_downloaded, *rates, equal])
    return 0 if all(rep.matches_capacity for rep in reports) else 1


# ----------------------------------------------------------------------- pmf


def _cmd_pmf_dump(args: argparse.Namespace) -> int:
    K, M = args.k, args.m
    if args.dist == "classes":
        dist = rp_distribution(K, M)
        n, l = partition_rounds(K, M)
        payload = {
            "distribution": "classes",
            "K": K,
            "M": M,
            "rounds": n,
            "duplicates": l,
            "support": [
                {"s": s, "r": r, "p": _rat_pair(p)} for (s, r), p in sorted(dist.table.items())
            ],
        }
    elif args.dist == "disjoint":
        table = case2_pmf(K, M)
        payload = {
            "distribution": "disjoint",
            "K": K,
            "M": M,
            "support": [{"r": r, "p": _rat_pair(p)} for r, p in sorted(table.items())],
        }
    else:
        table = case3_pmf(K, M)
        payload = {
            "distribution": "overlap",
            "K": K,
            "M": M,
            "support": [{"s": s, "p": _rat_pair(p)} for s, p in sorted(table.items())],
        }
    _emit_json(payload, args.out)
    return 0


# ------------------------------------------------------------------- network


def _cmd_serve(args: argparse.Namespace) -> int:
    port = args.port if args.port is not None else wire.default_port()
    db = Database.load(args.db)
    print(
        f"serving K={db.K} messages over GF({db.params.q}^{db.params.m}) "
        f"on {args.host}:{port}",
        file=sys.stderr,
        flush=True,
    )
    try:
        wire.serve(db, args.host, port)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    # The database file stands in for however the client came by its side
    # information; query bytes depend only on (W, S, C) and the seed.
    host, port = args.addr or ("127.0.0.1", wire.default_port())
    db = Database.load(args.db)
    remote_params, remote_k = wire.hello((host, port))
    if remote_params != db.params or remote_k != db.K:
        print("error: server database does not match the local copy", file=sys.stderr)
        return 2
    rng = Random(args.seed)
    scenario = sample_scenario(db, args.m, args.model, rng)
    query, state = build_query(scenario, db.K, rng)
    answer = wire.fetch((host, port), query, db.params)

    def head(fh) -> None:
        print(f"server {host}:{port}  GF({db.params.q}^{db.params.m})  K={db.K}", file=fh)
        if args.reveal:  # otherwise print only what the server sees, and the decoded value
            _print_scenario(scenario, fh)

    return _report(db, query, answer, state, args.reveal, head, both_parties=False)


def _cmd_db_gen(args: argparse.Namespace) -> int:
    params = FieldParams(args.q, args.ext)
    db = Database.random(params, args.k, Random(args.seed))
    size = db.save(args.out)
    print(f"wrote {args.out}: K={args.k} messages over GF({args.q}^{args.ext}), {size} bytes")
    return 0


# -------------------------------------------------------------------- parser


def _port(text: str) -> int:
    try:
        return wire.parse_port(text)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, _port(port)


def _add_field_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", type=int, default=3, help="base-field characteristic (default 3)")
    sub.add_argument("--ext", type=int, default=1, help="extension degree (default 1)")


def _add_cell_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=(MODEL_I, MODEL_II), required=True)
    sub.add_argument("--k", type=int, required=True, help="number of database messages")
    sub.add_argument("--m", type=int, required=True, help="side-information support size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pircsi",
        description="Private information retrieval with coded side information.",
    )
    parser.add_argument("--version", action="version", version=f"pircsi {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run one protocol round end to end, locally")
    _add_cell_flags(demo)
    _add_field_flags(demo)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--reveal",
        action="store_true",
        help="annotate which query set decodes the demand (off by default; the "
        "plain transcript shows exactly what the server sees)",
    )
    demo.set_defaults(func=_cmd_demo)

    audit = commands.add_parser("audit", help="privacy and rate checks, exact or statistical")
    _add_cell_flags(audit)
    mode = audit.add_mutually_exclusive_group(required=True)
    exact_help = "enumerate the builder's structure draw for one scenario, relabelled to all"
    mode.add_argument("--exact", action="store_true", help=exact_help)
    mode.add_argument("--mc", action="store_true", help="chi-square screen over sampled queries")
    mode.add_argument("--rate", action="store_true", help="count downloads and compare to capacity")
    audit.add_argument("--seed", type=int, default=0, help="Monte-Carlo sampling seed (--mc)")
    audit.add_argument("--trials", type=int, default=100_000)
    audit.add_argument("--significance", type=float, default=0.01)
    mutation_help = "a deliberately broken structure draw of either model (--exact, --mc)"
    audit.add_argument("--mutation", choices=sorted(MUTATIONS), default=None, help=mutation_help)
    guard_help = "--exact exits 2 once scenarios times draw leaves would exceed this"
    audit.add_argument("--row-guard", type=int, default=DEFAULT_ROW_GUARD, help=guard_help)
    audit.add_argument("--out", default=None, help="report path (default stdout)")
    audit.set_defaults(func=_cmd_audit)

    sweep = commands.add_parser("sweep", help="rate-vs-capacity table over a K range")
    sweep.add_argument("--model", choices=(MODEL_I, MODEL_II), required=True)
    sweep.add_argument("--k-min", type=int, default=2)
    sweep.add_argument("--k-max", type=int, default=12)
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    pmf = commands.add_parser("pmf", help="inspect the query distributions")
    pmf_sub = pmf.add_subparsers(dest="pmf_command", required=True)
    dump = pmf_sub.add_parser("dump", help="emit one distribution as JSON")
    dump.add_argument(
        "--dist",
        choices=("classes", "disjoint", "overlap"),
        required=True,
        help="classes: repeat-class pmf; disjoint/overlap: cover-size pmfs",
    )
    dump.add_argument("--k", type=int, required=True)
    dump.add_argument("--m", type=int, required=True)
    dump.add_argument("--out", default=None)
    dump.set_defaults(func=_cmd_pmf_dump)

    serve = commands.add_parser("serve", help="answer queries from a database file")
    serve.add_argument("--db", required=True, help="database file from 'db gen'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_port, default=None, help="default: $PIRCSI_PORT, else 7641"
    )
    serve.set_defaults(func=_cmd_serve)

    fetch = commands.add_parser("fetch", help="retrieve one message from a running server")
    fetch.add_argument("--db", required=True, help="local database copy (source of Y)")
    addr_help = "HOST:PORT (default: 127.0.0.1:$PIRCSI_PORT, else 127.0.0.1:7641)"
    fetch.add_argument("--addr", type=_addr, default=None, help=addr_help)
    fetch.add_argument("--model", choices=(MODEL_I, MODEL_II), required=True)
    fetch.add_argument("--m", type=int, required=True, help="side-information support size")
    fetch.add_argument("--seed", type=int, default=0)
    fetch.add_argument(
        "--reveal",
        action="store_true",
        help="also print the scenario (W, S, C) and which query set decodes the demand "
        "(off by default; the plain transcript names no index the server cannot see)",
    )
    fetch.set_defaults(func=_cmd_fetch)

    dbcmd = commands.add_parser("db", help="database file utilities")
    db_sub = dbcmd.add_subparsers(dest="db_command", required=True)
    gen = db_sub.add_parser("gen", help="write a random database file")
    gen.add_argument("--k", type=int, required=True)
    _add_field_flags(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_db_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AuditSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
