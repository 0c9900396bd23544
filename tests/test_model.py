"""Database storage, side information, and scenario sampling priors."""
import struct
from itertools import combinations
from random import Random

import numpy as np
import pytest

from pircsi import (
    Database,
    FieldParams,
    MODEL_I,
    MODEL_II,
    ParameterError,
    sample_scenario,
    side_information,
)

from conftest import count_bound


def test_database_basic_access(gf3):
    db = Database(gf3, [[1], [2], [0]])
    assert db.K == 3
    assert db.words.dtype == np.dtype("<u2") and db.words.tolist() == [[1], [2], [0]]


def test_database_rejects_foreign_elements(gf9):
    for words in (
        np.zeros((2, 3), np.int64),  # a wrong column count
        [[0, 3]],  # a word equal to q
        [[-1, 0]],  # a negative word
        np.zeros((0, 2), np.int64),  # zero rows
        np.zeros((2, 2)),  # a float array
    ):
        with pytest.raises(ParameterError):
            Database(gf9, words)


def test_database_bytes_layout(gf3):
    # header is three little-endian u32 (q, m, K), then canonical elements
    db = Database(gf3, [[1], [2]])
    blob = db.to_bytes()
    assert blob[:12] == struct.pack("<III", 3, 1, 2)
    assert blob[12:] == struct.pack("<HH", 1, 2)
    assert len(blob) == 16
    assert Database.from_bytes(blob) == db


def test_database_bytes_round_trip_extension_field():
    params = FieldParams(5, 2)
    db = Database.random(params, 7, Random(3))
    again = Database.from_bytes(db.to_bytes())
    assert again == db and again.params == params


def test_database_bytes_round_trip_long_messages():
    # GF(257^6) announced by a file header builds at once, like any (q, m).
    params = FieldParams(257, 6)
    db = Database.random(params, 5, Random(4))
    blob = db.to_bytes()
    assert len(blob) == 12 + 5 * 12
    again = Database.from_bytes(blob)
    assert again == db and again.params == params


def test_database_from_bytes_rejects_bad_lengths(gf3):
    db = Database(gf3, [[1]])
    blob = db.to_bytes()
    with pytest.raises(ParameterError):
        Database.from_bytes(blob[:-1])
    with pytest.raises(ParameterError):
        Database.from_bytes(blob + b"\x00")
    with pytest.raises(ParameterError):
        Database.from_bytes(b"\x01\x02")


def test_database_bytes_are_pinned():
    # q, m, K as u32 little-endian, then each message's m u16 words in order
    db = Database(FieldParams(257, 2), [(256, 1), (0, 255)])
    assert db.to_bytes() == bytes.fromhex("01010000" "02000000" "02000000" "00010100" "0000ff00")
    assert Database.from_bytes(db.to_bytes()) == db


def test_database_from_bytes_rejects_out_of_range_words():
    blob = bytearray(Database(FieldParams(5), [[4]]).to_bytes())
    blob[12] = 5
    with pytest.raises(ParameterError):
        Database.from_bytes(bytes(blob))


def test_database_random_repeats_for_a_seed():
    params = FieldParams(5, 2)
    db = Database.random(params, 50, Random(13))
    assert db == Database.random(params, 50, Random(13))
    assert db != Database.random(params, 50, Random(14))
    with pytest.raises(ParameterError):
        Database.random(params, 0, Random(13))


def test_database_random_words_are_flat():
    # every word of GF(5^3) is uniform over [0, 5)
    q, m, K = 5, 3, 2000
    counts = np.bincount(Database.random(FieldParams(q, m), K, Random(1)).words.ravel())
    assert len(counts) == q
    for c in counts:
        assert abs(c - K * m / q) < count_bound(K * m, 1 / q)


def test_database_save_load(tmp_path):
    params = FieldParams(7, 2)
    db = Database.random(params, 4, Random(9))
    path = tmp_path / "messages.db"
    assert db.save(path) == path.stat().st_size == 12 + 4 * 2 * 2
    assert Database.load(path) == db


def test_side_information_hand_value(gf3):
    # 2*X_1 + 2*X_2 = 2*1 + 2*2 = 6 = 0 in GF(3)
    db = Database(gf3, [[1], [2], [0]])
    y = side_information(db, [1, 2], [2, 2])
    assert y == gf3.element((0,))


def test_side_information_validation(gf3):
    db = Database(gf3, [[1], [2], [0]])
    with pytest.raises(ParameterError):
        side_information(db, [1, 1], [1, 1])  # repeated index
    with pytest.raises(ParameterError):
        side_information(db, [1, 4], [1, 1])  # out of range
    with pytest.raises(ParameterError):
        side_information(db, [1, 2], [1, 0])  # zero coefficient
    with pytest.raises(ParameterError):
        side_information(db, [1, 2], [1, 3])  # coefficient not reduced
    with pytest.raises(ParameterError):
        side_information(db, [1, 2], [1])  # arity mismatch


@pytest.mark.parametrize(
    "S,C,expected",
    [
        ((np.int64(1), 2), (1, 1), (0,)),  # 1*1 + 1*2 = 3 = 0 in GF(3)
        ((1, 2), (np.int64(1), np.uint8(2)), (2,)),  # 1*1 + 2*2 = 5 = 2
        ((1, 2), (True, 1), "coefficient True is not an integer"),
        ((True, 2), (1, 1), "support index True is not an integer"),
        ((1, 2), (1.0, 1), "coefficient 1.0 is not an integer"),
        ((1, 2), (np.bool_(True), 1), f"coefficient {np.bool_(True)!r} is not an integer"),
        ((1, np.int64(4)), (1, 1), "support index 4 outside [1, 3]"),
        ((1, 2), (1, np.int64(3)), "coefficient 3 is not a nonzero scalar mod 3"),
    ],
)
def test_side_information_takes_numpy_integers_and_refuses_bools(gf3, S, C, expected):
    db = Database(gf3, [[1], [2], [0]])
    if isinstance(expected, tuple):
        assert side_information(db, S, C) == gf3.element(expected)
    else:
        with pytest.raises(ParameterError) as info:
            side_information(db, S, C)
        assert str(info.value) == expected


def test_scenario_consistency(gf9):
    db = Database.random(gf9, 6, Random(11))
    for model in (MODEL_I, MODEL_II):
        for _ in range(40):
            rng = Random(_)
            M = 2 if model == MODEL_I else 3
            sc = sample_scenario(db, M, model, rng)
            assert sc.model == model
            assert sc.S == tuple(sorted(sc.S))
            assert sc.Y == side_information(db, sc.S, sc.C)
            assert (sc.W in sc.S) == (model == MODEL_II)


def test_scenario_validation(gf3):
    db = Database.random(gf3, 4, Random(0))
    with pytest.raises(ParameterError):
        sample_scenario(db, 4, MODEL_I, Random(0))  # complement empty
    with pytest.raises(ParameterError):
        sample_scenario(db, 5, MODEL_I, Random(0))
    with pytest.raises(ParameterError):
        sample_scenario(db, 0, MODEL_II, Random(0))  # demand needs support
    with pytest.raises(ParameterError):
        sample_scenario(db, 5, MODEL_II, Random(0))
    with pytest.raises(ParameterError):
        sample_scenario(db, 1, "III", Random(0))


def test_model_one_prior_is_uniform_over_pairs(gf3):
    # every (W, S) pair with W outside S should appear with probability
    # 1 / (C(K,M) * (K-M))
    K, M, trials = 4, 1, 30_000
    db = Database.random(gf3, K, Random(2))
    pairs = [
        (w, s)
        for s in combinations(range(1, K + 1), M)
        for w in range(1, K + 1)
        if w not in s
    ]
    counts = {pair: 0 for pair in pairs}
    rng = Random(5)
    for _ in range(trials):
        sc = sample_scenario(db, M, MODEL_I, rng)
        counts[(sc.W, sc.S)] += 1
    p = 1.0 / len(pairs)
    for pair in pairs:
        assert abs(counts[pair] - trials * p) < count_bound(trials, p)


def test_model_two_prior_is_uniform_over_pairs(gf3):
    K, M, trials = 5, 2, 30_000
    db = Database.random(gf3, K, Random(2))
    pairs = [
        (w, s) for s in combinations(range(1, K + 1), M) for w in s
    ]
    counts = {pair: 0 for pair in pairs}
    rng = Random(6)
    for _ in range(trials):
        sc = sample_scenario(db, M, MODEL_II, rng)
        counts[(sc.W, sc.S)] += 1
    p = 1.0 / len(pairs)
    for pair in pairs:
        assert abs(counts[pair] - trials * p) < count_bound(trials, p)


def test_support_choice_is_uniform_over_subsets(gf3):
    K, M, trials = 6, 3, 20_000
    db = Database.random(gf3, K, Random(1))
    counts = {s: 0 for s in combinations(range(1, K + 1), M)}
    rng = Random(8)
    for _ in range(trials):
        counts[sample_scenario(db, M, MODEL_I, rng).S] += 1
    p = 1.0 / len(counts)
    for s, c in counts.items():
        assert abs(c - trials * p) < count_bound(trials, p)
