"""The production interpreter of the draw primitives: a query is fixed by the
caller's seeded Random alone, whatever thread or process builds it, and the
numpy Generator stream its shuffles and coefficients read is pinned."""
import os
import subprocess
import sys
import threading
from bisect import bisect_right
from pathlib import Path
from random import Random

import numpy as np
import pytest
from scipy.stats import chisquare

from pircsi import (
    Database,
    FieldParams,
    MODEL_I,
    MODEL_II,
    build_query,
    sample_scenario,
    wire,
)
from pircsi.draws import RandomDraws, _thread
from pircsi.pmf import rp_distribution

SRC = Path(__file__).resolve().parent.parent / "src"
CELLS = [(MODEL_I, 100, 9), (MODEL_II, 100, 70), (MODEL_I, 12, 2), (MODEL_I, 1000, 9),
         (MODEL_II, 4, 2)]


def _queries(seed: int) -> list[bytes]:
    """The encoded queries of CELLS over GF(257^4), built from Random(seed)."""
    params, out = FieldParams(257, 4), []
    for model, K, M in CELLS:
        db = Database.random(params, K, Random(K))
        rng = Random(seed)
        for _ in range(3):
            query, _ = build_query(sample_scenario(db, M, model, rng), K, rng)
            out.append(wire.encode_query(query, params))
    return out


def test_queries_built_in_threads_equal_those_built_in_turn():
    seeds = range(1, 5)  # more threads than cores
    alone = {seed: _queries(seed) for seed in seeds}
    built = {}
    threads = [threading.Thread(target=lambda s=s: built.update({s: _queries(s)})) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside every draw
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert built == alone


def test_a_fresh_process_builds_the_same_query():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from test_draws import _queries\n"
        "print(b''.join(_queries(5)).hex())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(SRC), str(Path(__file__).parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert bytes.fromhex(done.stdout.strip()) == b"".join(_queries(5))


class _Counting(Random):
    """A Random that counts its getrandbits(128) calls: one per Generator state."""

    states = 0

    def getrandbits(self, k):
        self.states += k == 128
        return super().getrandbits(k)


def test_a_query_sets_the_thread_generator_state_once():
    # One RandomDraws serves the structure draw and the coefficients, so a
    # query sets the Generator's state once, and a scenario's C once more.
    params = FieldParams(257, 4)
    for model, K, M in CELLS + [(MODEL_II, 8, 8), (MODEL_II, 8, 3), (MODEL_II, 3, 1)]:
        db = Database.random(params, K, Random(K))
        rng = _Counting(1)
        scenario = sample_scenario(db, M, model, rng)
        assert rng.states == 1
        build_query(scenario, K, rng)
        assert rng.states == 2, (model, K, M)


# list(range(10)) shuffled as RandomDraws shuffles, and ten coefficients mod
# 257 drawn as RandomDraws.coefficients draws them, each by the Generator of a
# PCG64(0) whose state is then set to STATE; taken under numpy 2.4.
STATE = 20181011 << 64 | 20181011
PINNED_SHUFFLE = [1, 3, 5, 6, 9, 4, 8, 0, 2, 7]
PINNED_COEFFICIENTS = [213, 2, 77, 219, 138, 30, 131, 88, 49, 195]


def _pinned_generator(value: int = STATE):
    from numpy.random import PCG64, Generator

    bits = PCG64(0)
    state = bits.state
    state["state"]["state"] = value
    bits.state = state
    return Generator(bits)


def test_numpy_generator_stream_is_pinned():
    items = list(range(10))
    _pinned_generator().shuffle(items)
    coefficients = _pinned_generator().integers(1, 257, size=10).tolist()
    assert (items, coefficients) == (PINNED_SHUFFLE, PINNED_COEFFICIENTS), (
        "numpy's Generator(PCG64) shuffle or integers stream changed: every "
        "seeded scenario and query, and so the reveal transcripts in "
        "tests/golden/, depend on it; re-record them and the pinned values together"
    )


def test_the_server_and_set_up_never_load_numpy_random(tmp_path):
    # numpy.random takes about 20 ms to import; only a query draw loads it.
    path = tmp_path / "k8.db"
    Database.random(FieldParams(5, 2), 8, Random(0)).save(path)
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import pircsi\n"
        "pircsi.Database.load(sys.argv[2])\n"
        "loaded = [m for m in sys.modules if m == 'numpy.random' or m.split('.')[0] == 'scipy']\n"
        "print(loaded)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", script, str(SRC), str(path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("k", [1, 3, 16, 25])
def test_sample_of_rows_is_uniform(k):
    # One call samples every row of a (T, n) pool: each row's k items are
    # distinct and come from that row, and each output position holds each
    # of the row's items equally often, as does the sample as a whole.
    n, trials = 30, 6000
    pool = 1000 * np.arange(trials)[:, None] + np.arange(100, 100 + n)
    picked = RandomDraws(Random(2018)).sample(pool, k)
    assert picked.dtype == np.int64 and picked.shape == (trials, k)
    column = picked - 1000 * np.arange(trials)[:, None] - 100  # each item's place in its row
    assert ((0 <= column) & (column < n)).all()
    assert (np.diff(np.sort(column, axis=1), axis=1) > 0).all()
    at = np.zeros((k, n), dtype=np.int64)  # at[j, i]: the row's item i drawn into position j
    np.add.at(at, (np.arange(k), column), 1)
    tests = [at.sum(axis=0), *at]
    pvalues = [chisquare(counts).pvalue for counts in tests]
    assert min(pvalues) >= 1e-4 / len(tests), min(pvalues)


@pytest.mark.parametrize("count", [1, 2, 50])
def test_a_batch_of_classes_is_the_inverse_cdf_of_per_trial_draws(count):
    # choose(cdf, count) takes one integers(0, denominator) per trial from
    # the thread's Generator, its state one getrandbits(128) of the Random,
    # and bisects the cumulative masses.
    cdf = rp_distribution(8, 2).cdf
    for seed in range(10):
        rng, loop = Random(seed), Random(seed)
        drawn = RandomDraws(rng).choose(cdf, count)
        reference = _pinned_generator(loop.getrandbits(128))
        units = [int(reference.integers(0, cdf.denom)) for _ in range(count)]
        expected = [bisect_right(cdf.cumulative, u) for u in units]
        assert drawn.tolist() == expected
        assert _thread.bits.state == reference.bit_generator.state
    one = rp_distribution(12, 2).cdf  # a single class, which every trial takes
    assert RandomDraws(Random(0)).choose(one, count).tolist() == [0] * count
