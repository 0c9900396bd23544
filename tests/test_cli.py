"""Command surface: exit codes, transcript determinism, and report schemas."""
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from pircsi import Database, FieldParams, wire
from pircsi.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entry_point_version():
    out = subprocess.run(
        [sys.executable, "-m", "pircsi.cli", "--version"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "pircsi 0.1.0"


def test_a_report_cut_short_by_its_reader_keeps_its_exit_code():
    # II(12,7)'s exact report is 4.27 MB, far more than a pipe holds, so the
    # reader closes the pipe while the report is still being written, as
    # `| head -c 10` does.  The audit passed, so the command exits 0, silently.
    argv = [sys.executable, "-m", "pircsi.cli", "audit", "--exact", "--model", "II",
            "--k", "12", "--m", "7"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(60) == 0
    assert head == b'{\n  "mode"' and err == b""


def test_a_demo_cut_short_by_its_reader_keeps_its_exit_code():
    # I(3000,9)'s transcript is 76 kB, more than a pipe holds, so the reader
    # closes the pipe while it is still being written, as `| head -c 10`
    # does.  The round decoded, so the command exits 0, silently.
    argv = [sys.executable, "-m", "pircsi.cli", "demo", "--model", "I", "--k", "3000",
            "--m", "9"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(60) == 0
    assert head == b"model I  K" and err == b""


def test_a_fetch_whose_reader_left_keeps_its_exit_code(tmp_path):
    # The reader closes the pipe before the fetch prints a byte; the round
    # decoded, so the command exits 0, silently.
    path = tmp_path / "messages.db"
    Database.random(FieldParams(3), 50, Random(0)).save(path)
    with wire.PirServer(Database.load(path), port=0) as server:
        addr = f"{server.address[0]}:{server.address[1]}"
        argv = [sys.executable, "-m", "pircsi.cli", "fetch", "--db", str(path), "--addr", addr,
                "--model", "I", "--m", "4"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(60) == 0
    assert err == b""


# ---------------------------------------------------------------------- demo


def test_demo_transcript_is_deterministic(capsys):
    args = ("demo", "--model", "I", "--k", "5", "--m", "1", "--q", "3", "--seed", "7")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "result: PASS" in out1
    assert "query (3 sets):" in out1


def test_demo_single_element_answer(capsys):
    code, out, _ = _run(capsys, "demo", "--model", "II", "--k", "4", "--m", "2")
    assert code == 0
    assert "answer: 1 element\n" in out


def test_demo_query_free_case(capsys):
    code, out, _ = _run(capsys, "demo", "--model", "II", "--k", "3", "--m", "1")
    assert code == 0
    assert "query: none" in out
    assert "answer: 0 elements" in out


def test_demo_reveal_flag(capsys):
    code, out, _ = _run(
        capsys, "demo", "--model", "I", "--k", "6", "--m", "1", "--seed", "2", "--reveal"
    )
    assert code == 0
    assert "reveal: decoding uses slot" in out
    code, out, _ = _run(capsys, "demo", "--model", "I", "--k", "6", "--m", "1", "--seed", "2")
    assert "reveal" not in out


GOLDEN = Path(__file__).parent / "golden"

# One demo cell per reveal line the decoder can produce: the first model, each
# second-model case, both single-probe outcomes, and an extension field.
REVEAL_CELLS = {
    "I-5-1-seed7": ("--model", "I", "--k", "5", "--m", "1", "--seed", "7"),
    "II-3-1-trivial": ("--model", "II", "--k", "3", "--m", "1", "--seed", "0"),
    "II-4-2-probe-demand": ("--model", "II", "--k", "4", "--m", "2", "--seed", "1"),
    "II-4-2-probe-partner": ("--model", "II", "--k", "4", "--m", "2", "--seed", "0"),
    "II-8-3-disjoint": ("--model", "II", "--k", "8", "--m", "3", "--seed", "0"),
    "II-7-5-overlap": ("--model", "II", "--k", "7", "--m", "5", "--seed", "0"),
    "II-6-6-full": ("--model", "II", "--k", "6", "--m", "6", "--seed", "0"),
    "II-5-3-gf25": ("--model", "II", "--k", "5", "--m", "3", "--q", "5", "--ext", "2", "--seed", "0"),
}


@pytest.mark.parametrize("name", sorted(REVEAL_CELLS))
def test_demo_reveal_transcript_is_pinned(capsys, name):
    code, out, _ = _run(capsys, "demo", *REVEAL_CELLS[name], "--reveal")
    assert code == 0
    assert out == (GOLDEN / f"reveal_{name}.txt").read_text()


def test_demo_invalid_parameters_exit_two(capsys):
    code, out, err = _run(capsys, "demo", "--model", "I", "--k", "8", "--m", "9")
    assert code == 2
    assert "M=9" in err and "K=8" in err


def test_demo_extension_field(capsys):
    code, out, _ = _run(
        capsys, "demo", "--model", "II", "--k", "5", "--m", "3", "--q", "5", "--ext", "2"
    )
    assert code == 0 and "result: PASS" in out


# --------------------------------------------------------------------- audit


def test_audit_exact_uniform_cell(capsys):
    code, out, _ = _run(capsys, "audit", "--exact", "--model", "II", "--k", "4", "--m", "2")
    assert code == 0
    report = json.loads(out)
    assert report["uniform"] is True
    assert report["worst_deviation"] == "0"
    assert all(fp["posterior"] == ["1/4"] * 4 for fp in report["fingerprints"])


def test_audit_exact_four_set_cell_exits_zero(capsys):
    base = ("audit", "--exact", "--model", "I", "--k", "7", "--m", "1")
    code, out, _ = _run(capsys, *base)
    assert code == 0
    report = json.loads(out)
    assert report["uniform"] is True
    assert report["worst_deviation"] == "0"

    code, out, _ = _run(capsys, *base, "--mutation", "skewed_class_pmf")
    assert code == 1
    assert json.loads(out)["worst_deviation"] == "4/21"


def test_audit_exact_runs_the_mutated_builder(capsys):
    base = ("audit", "--exact", "--model", "I", "--k", "8", "--m", "2")
    code, out, _ = _run(capsys, *base)
    assert code == 0
    assert json.loads(out)["worst_fingerprint"] is None

    code, out, _ = _run(capsys, *base, "--mutation", "deterministic_extras")
    assert code == 1
    report = json.loads(out)
    assert report["uniform"] is False and report["worst_deviation"] == "7/8"
    # a deviation of 7/8 from 1/8: the fingerprint names its demand outright
    worst = next(fp for fp in report["fingerprints"] if fp["sets"] == report["worst_fingerprint"])
    assert sorted(worst["posterior"]) == ["0"] * 7 + ["1"]


def test_audit_rate_refuses_a_mutation(capsys):
    code, out, err = _run(
        capsys, "audit", "--rate", "--model", "I", "--k", "8", "--m", "2",
        "--mutation", "deterministic_extras",
    )
    assert code == 2 and out == ""
    assert "--mutation" in err


def test_audit_exact_oversized_cell_guides_to_mc(capsys):
    code, out, err = _run(capsys, "audit", "--exact", "--model", "I", "--k", "14", "--m", "2")
    assert code == 2
    assert "--mc" in err


def test_audit_exact_oversized_second_model_cell_guides_to_mc(capsys):
    code, out, err = _run(
        capsys, "audit", "--exact", "--model", "II", "--k", "14", "--m", "7", "--row-guard", "1"
    )
    assert code == 2 and out == ""
    assert "--mc" in err


def test_audit_exact_refuses_sets_without_a_64_bit_key(capsys):
    # II(70,35) under a raised guard: its 630 fingerprints enumerate at once,
    # but C(70, 34) sets of 34 indices cannot be keyed in int64
    code, out, err = _run(capsys, "audit", "--exact", "--model", "II", "--k", "70", "--m", "35",
                          "--row-guard", str(10**30))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "--mc" in err


def test_audit_mc_names_its_worst_bin(capsys):
    code, out, _ = _run(capsys, "audit", "--mc", "--model", "I", "--k", "5", "--m", "1",
                        "--trials", "20000", "--seed", "2", "--mutation", "unshuffled_sets")
    assert code == 1
    worst = json.loads(out)["worst_bin"]
    assert set(worst) == {"family", "key", "counts"}
    assert worst["family"] == "slot" and worst["key"][1] == 0
    assert len(worst["counts"]) == 5

    code, out, _ = _run(capsys, "audit", "--mc", "--model", "II", "--k", "4", "--m", "2",
                        "--trials", "4000", "--seed", "2")
    report = json.loads(out)
    assert code == 0 and sum(report["worst_bin"]["counts"]) >= 20
    if report["worst_bin"]["family"] == "fingerprint":
        assert all(isinstance(s, list) for s in report["worst_bin"]["key"])


@pytest.mark.parametrize("significance", ["0", "-1", "1", "1.5", "nan"])
def test_audit_mc_out_of_range_significance_exits_two(capsys, significance):
    code, out, err = _run(capsys, "audit", "--mc", "--model", "I", "--k", "8", "--m", "2",
                          "--trials", "2000", "--mutation", "unshuffled_sets",
                          "--significance", significance)
    assert code == 2 and out == ""
    assert err.startswith("error: significance") and err.count("\n") == 1


@pytest.mark.parametrize("mode,flag,value", [("--mc", "--trials", "0"), ("--mc", "--trials", "-4"),
                                             ("--exact", "--row-guard", "0")])
def test_audit_counts_below_one_exit_two(capsys, mode, flag, value):
    code, out, err = _run(capsys, "audit", mode, "--model", "I", "--k", "8", "--m", "2",
                          flag, value)
    assert code == 2 and out == ""
    name = flag[2:].replace("-", "_")
    assert err == f"error: {name} must be at least 1, got {value}\n"


def test_audit_mc_honest_and_mutated(capsys):
    base = ("audit", "--mc", "--model", "I", "--k", "5", "--m", "1",
            "--trials", "20000", "--seed", "2")
    code, out, _ = _run(capsys, *base)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["mutation"] is None

    code, out, _ = _run(capsys, *base, "--mutation", "unshuffled_sets")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and report["mutation"] == "unshuffled_sets"


def test_audit_rate_cell(capsys):
    code, out, _ = _run(capsys, "audit", "--rate", "--model", "I", "--k", "10", "--m", "4")
    assert code == 0
    report = json.loads(out)
    assert report["elements_downloaded"] == 2
    assert report["measured_rate"] == "1/2" == report["capacity"]
    assert report["matches_capacity"] is True


# SHA-256 of the whole `audit --exact --model I` report, byte for byte: a
# private cell, whose posterior rows are all flat, and a mutant whose rows are not.
EXACT_REPORT_DIGESTS = {
    ("--k", "9", "--m", "1"): "51074a407dae77f58820471fdfceb68ff845457c45a192695448304ea335d4c7",
    ("--k", "7", "--m", "1", "--mutation", "skewed_class_pmf"): (
        "0b109ca36a8c4cec600a3693557f5c929825a279802b6b9041318ac2e88a51ca"
    ),
}


@pytest.mark.parametrize("cell", list(EXACT_REPORT_DIGESTS), ids=" ".join)
def test_audit_exact_report_bytes_are_pinned(tmp_path, capsys, cell):
    path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "audit", "--exact", "--model", "I", *cell, "--out", str(path))
    assert code == ("--mutation" in cell) and out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXACT_REPORT_DIGESTS[cell]


def test_audit_writes_report_files(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "audit", "--exact", "--model", "II", "--k", "5", "--m", "2",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text())
    assert report["mode"] == "exact" and report["uniform"] is True


# --------------------------------------------------------------------- sweep


def test_sweep_model_one(capsys):
    code, out, _ = _run(capsys, "sweep", "--model", "I", "--k-min", "2", "--k-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "model,K,M,elements_downloaded,measured_rate,capacity,equal"
    assert len(lines) == 1 + sum(K for K in range(2, 7))
    assert all(line.endswith(",true") for line in lines[1:])


def test_sweep_model_two_rate_pattern(capsys):
    code, out, _ = _run(capsys, "sweep", "--model", "II", "--k-min", "12", "--k-max", "12")
    assert code == 0
    rates = [line.split(",")[4] for line in out.strip().splitlines()[1:]]
    assert rates == ["inf", "1"] + ["1/2"] * 9 + ["1"]


def test_a_sweep_cut_short_by_its_reader_still_checks_every_cell():
    # The sweep's last cell is made to miss capacity.  Its 820 rows are more
    # than stdout's buffer holds, and the reader closes the pipe before any
    # arrives, so a sweep that measured as it wrote would stop at the first
    # flush and never reach that cell.
    script = (
        "import dataclasses, sys\n"
        "from pircsi import cli\n"
        "measure = cli.measure_rate\n"
        "def last_cell_misses(model, K, M):\n"
        "    rep = measure(model, K, M)\n"
        "    miss = (K, M) == (40, 39)\n"
        "    return dataclasses.replace(rep, matches_capacity=False) if miss else rep\n"
        "cli.measure_rate = last_cell_misses\n"
        "sys.exit(cli.main(['sweep', '--model', 'I', '--k-min', '1', '--k-max', '40']))\n"
    )
    argv = [sys.executable, "-c", script]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(60) == 1
    assert err == b""


def test_sweep_empty_range(capsys):
    code, out, _ = _run(capsys, "sweep", "--model", "I", "--k-min", "9", "--k-max", "3")
    assert code == 0
    assert out.strip() == "model,K,M,elements_downloaded,measured_rate,capacity,equal"


# ----------------------------------------------------------------------- pmf


def test_pmf_dump_classes(capsys):
    code, out, _ = _run(capsys, "pmf", "dump", "--dist", "classes", "--k", "5", "--m", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["rounds"] == 3 and payload["duplicates"] == 1
    assert "normalizer" not in payload
    table = {(row["s"], row["r"]): (row["p"]["num"], row["p"]["den"]) for row in payload["support"]}
    assert table == {(0, 0): ("1", "5"), (0, 1): ("2", "5"), (1, 0): ("2", "5")}


def test_pmf_dump_cover_distributions(capsys):
    code, out, _ = _run(capsys, "pmf", "dump", "--dist", "disjoint", "--k", "8", "--m", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["support"] == [
        {"r": 1, "p": {"num": "1", "den": "2"}},
        {"r": 2, "p": {"num": "1", "den": "2"}},
    ]
    code, out, _ = _run(capsys, "pmf", "dump", "--dist", "overlap", "--k", "5", "--m", "3")
    assert code == 0
    payload = json.loads(out)
    assert {row["s"]: row["p"]["num"] for row in payload["support"]} == {0: "1", 1: "4"}


def test_pmf_dump_invalid_cell_exits_two(capsys):
    code, out, err = _run(capsys, "pmf", "dump", "--dist", "disjoint", "--k", "5", "--m", "3")
    assert code == 2
    assert "case 2" in err


# ------------------------------------------------------------------- network


def test_db_gen_and_load(tmp_path, capsys):
    path = tmp_path / "messages.db"
    code, out, _ = _run(
        capsys, "db", "gen", "--k", "6", "--q", "3", "--ext", "2",
        "--seed", "4", "--out", str(path),
    )
    assert code == 0
    assert "36 bytes" in out  # 12-byte header + 6 elements of 4 bytes
    db = Database.load(path)
    assert db.K == 6 and db.params == FieldParams(3, 2)
    # same seed, same file
    path2 = tmp_path / "again.db"
    _run(capsys, "db", "gen", "--k", "6", "--q", "3", "--ext", "2",
         "--seed", "4", "--out", str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_fetch_against_live_server(tmp_path, capsys):
    path = tmp_path / "messages.db"
    _run(capsys, "db", "gen", "--k", "7", "--q", "5", "--ext", "1",
         "--seed", "1", "--out", str(path))
    db = Database.load(path)
    with wire.PirServer(db, port=0) as server:
        addr = f"{server.address[0]}:{server.address[1]}"
        code, out, _ = _run(
            capsys, "fetch", "--db", str(path), "--addr", addr,
            "--model", "II", "--m", "3", "--seed", "6",
        )
        assert code == 0
        assert "result: PASS" in out
        code, out, _ = _run(
            capsys, "fetch", "--db", str(path), "--addr", addr,
            "--model", "I", "--m", "2", "--seed", "6", "--reveal",
        )
        assert code == 0 and "reveal:" in out


def test_fetch_names_no_index_without_reveal(tmp_path, capsys):
    path = tmp_path / "messages.db"
    _run(capsys, "db", "gen", "--k", "9", "--q", "5", "--ext", "2",
         "--seed", "3", "--out", str(path))
    db = Database.load(path)
    with wire.PirServer(db, port=0) as server:
        addr = f"{server.address[0]}:{server.address[1]}"
        for model, m in (("I", 0), ("I", 2), ("I", 4), ("II", 1), ("II", 3), ("II", 9)):
            for seed in range(3):
                argv = ("fetch", "--db", str(path), "--addr", addr,
                        "--model", model, "--m", str(m), "--seed", str(seed))
                code, out, _ = _run(capsys, *argv)
                assert code == 0 and out.endswith("result: PASS\n")
                assert not any(line.startswith(("scenario:", "reveal:"))
                               for line in out.splitlines())
                decoded = [line for line in out.splitlines() if line.startswith("decoded")]
                assert len(decoded) == 1 and not re.search(r"X_\d", decoded[0])
                # --reveal adds the client's secrets back
                code, out, _ = _run(capsys, *argv, "--reveal")
                assert code == 0 and "\nscenario: demand W=" in out
                assert re.search(r"^decoded  X_\d+ = ", out, re.M)


def test_fetch_rejects_mismatched_database(tmp_path, capsys):
    local = tmp_path / "local.db"
    served = tmp_path / "served.db"
    _run(capsys, "db", "gen", "--k", "5", "--q", "3", "--out", str(local))
    _run(capsys, "db", "gen", "--k", "6", "--q", "3", "--out", str(served))
    db = Database.load(served)
    with wire.PirServer(db, port=0) as server:
        addr = f"{server.address[0]}:{server.address[1]}"
        code, out, err = _run(
            capsys, "fetch", "--db", str(local), "--addr", addr,
            "--model", "II", "--m", "2",
        )
        assert code == 2
        assert "does not match" in err


def test_fetch_reports_connection_failures(tmp_path, capsys):
    path = tmp_path / "messages.db"
    _run(capsys, "db", "gen", "--k", "5", "--q", "3", "--out", str(path))
    code, out, err = _run(
        capsys, "fetch", "--db", str(path), "--addr", "127.0.0.1:1",
        "--model", "II", "--m", "2",
    )
    assert code == 1
    assert err.startswith("error:")


def test_serve_on_a_busy_port_reports_the_bind_error(tmp_path, capsys):
    path = tmp_path / "messages.db"
    _run(capsys, "db", "gen", "--k", "5", "--q", "3", "--out", str(path))
    with wire.PirServer(Database.load(path), port=0) as server:
        code, _, err = _run(capsys, "serve", "--db", str(path), "--port", str(server.address[1]))
    assert code == 1
    assert "error: " in err and "Address already in use" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "70000", "-1", "123456"])
def test_a_bad_port_variable_is_one_error_line(tmp_path, capsys, monkeypatch, value):
    # serve and fetch read $PIRCSI_PORT when they run; other commands never do.
    path = tmp_path / "messages.db"
    _run(capsys, "db", "gen", "--k", "5", "--q", "3", "--out", str(path))
    monkeypatch.setenv("PIRCSI_PORT", value)
    for argv in (("serve",), ("fetch", "--model", "I", "--m", "1")):
        code, out, err = _run(capsys, *argv, "--db", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: PIRCSI_PORT: expected a port in [0, 65535]")
        assert err.count("\n") == 1 and "Traceback" not in err
    code, _, err = _run(capsys, "demo", "--model", "I", "--k", "4", "--m", "1")
    assert code == 0 and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("fetch", "--db", "none.db", "--addr", "127.0.0.1:99115", "--model", "I", "--m", "1"),
        ("fetch", "--db", "none.db", "--addr", "127.0.0.1:65536", "--model", "I", "--m", "1"),
        ("serve", "--db", "none.db", "--port", "70000"),
        ("serve", "--db", "none.db", "--port", "65536"),
    ],
)
def test_ports_outside_16_bits_are_usage_errors(capsys, argv):
    # The socket layer once took 99115 as 99115 - 65536 = 33579.
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert "expected a port in [0, 65535]" in capsys.readouterr().err
