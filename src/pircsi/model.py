"""Problem setup: the message database, the answer kernel over it, and the
client's side information.

A database holds K messages X_1..X_K (indices are 1-based throughout) as one
K×m array of u16 word rows, built from such an array, drawn in one call, or
read from a file.  A scenario fixes the client's state: the demand index W,
the support S of the side information, the nonzero coefficients C aligned
with sorted(S), and the coded side information Y = sum(c_i * X_i), which
answer_words computes on the rows.  Model "I" demands a message from outside
S; model "II" demands one from inside S.
"""

import struct
from dataclasses import dataclass
from random import Random

import numpy as np

from .draws import RandomDraws, draws_from, uniform_words
from .errors import ParameterError
from .field import FieldElement, FieldParams

MODEL_I = "I"
MODEL_II = "II"

_DB_HEADER = struct.Struct("<III")  # q, m, K
_WORD = np.dtype("<u2")  # one coordinate, as in the canonical element encoding


class Database:
    """K messages over a fixed field, held as one read-only K×m array of
    canonical u16 words (row i-1 is X_i).  Immutable once constructed."""

    __slots__ = ("params", "words")

    def __init__(self, params: FieldParams, words):
        """words: a (K, m) integer array, K >= 1, of words in [0, q)."""
        words = np.asarray(words)
        if words.dtype.kind not in "iu":
            raise ParameterError(f"message words must be integers, got {words.dtype}")
        if words.ndim != 2 or words.shape[1] != params.m:
            raise ParameterError(f"messages must be rows of {params.m} words, got {words.shape}")
        if not len(words):
            raise ParameterError("a database holds at least one message")
        if words.min() < 0 or words.max() >= params.q:
            raise ParameterError("coefficient word out of range for this field")
        self.params = params
        # An array over immutable bytes can never be made writeable.
        body = words.astype(_WORD, copy=False).tobytes()
        self.words = np.frombuffer(body, _WORD).reshape(words.shape)

    @property
    def K(self) -> int:
        return len(self.words)

    def __eq__(self, other):
        return (
            isinstance(other, Database)
            and self.params == other.params
            and np.array_equal(self.words, other.words)
        )

    @classmethod
    def random(cls, params: FieldParams, K: int, rng: Random) -> "Database":
        """K uniform messages: all K×m words in one draw (draws.uniform_words)."""
        if K < 1:
            raise ParameterError(f"K must be positive, got {K}")
        return cls(params, uniform_words(params.q, (K, params.m), rng))

    # -- binary file format --------------------------------------------------
    # header: q, m, K as u32 little-endian, then K canonical element encodings.

    def to_bytes(self) -> bytes:
        return _DB_HEADER.pack(self.params.q, self.params.m, self.K) + self.words.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Database":
        if len(data) < _DB_HEADER.size:
            raise ParameterError("database blob shorter than its header")
        q, m, K = _DB_HEADER.unpack_from(data, 0)
        params = FieldParams(q, m)
        expect = _DB_HEADER.size + K * params.element_bytes
        if len(data) != expect:
            raise ParameterError(f"database blob has {len(data)} bytes, expected {expect}")
        return cls(params, np.frombuffer(data, _WORD, offset=_DB_HEADER.size).reshape(K, m))

    def save(self, path) -> int:
        """Write to_bytes() to path; returns the number of bytes written."""
        with open(path, "wb") as fh:
            return fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Database":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def answer_words(db: Database, idx: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The answer kernel of both models: sum(c_j * X_{i_j}) mod q for each
    set, as one gather over the database words, row k holding set k's m
    words as int64.  It checks nothing: idx and coef are (n, s) int64 arrays
    of indices in [1, K], none twice in a row, and coefficients in [1, q-1],
    such as the sets of a query that passed check_set_arrays and its model's
    check_sizes."""
    # Words are below q and coefficients at most q - 1, with q < 2^16, so a
    # set of s < 2^31 terms sums below s * (q-1)^2 < 2^63: int64 holds every
    # sum exactly, and one reduction mod q at the end suffices.
    return np.einsum("nsm,ns->nm", db.words.take(idx - 1, axis=0), coef) % db.params.q


@dataclass(frozen=True)
class Scenario:
    """One client state: demand W, support S (sorted), coefficients C, and Y."""

    W: int
    S: tuple[int, ...]
    C: tuple[int, ...]
    Y: FieldElement
    model: str


def side_information(db: Database, S, C) -> FieldElement:
    """Evaluate sum(c_i * X_i) over the support.  Empty support gives zero.
    Indices and coefficients are Python or numpy integers, not bools."""
    S, C = tuple(S), tuple(C)
    if len(S) != len(C):
        raise ParameterError(f"support size {len(S)} != coefficient count {len(C)}")
    for what, values in (("support index", S), ("coefficient", C)):
        for value in values:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{what} {value!r} is not an integer")
    if len(set(S)) != len(S):
        raise ParameterError("support indices must be distinct")
    q, K = db.params.q, db.K
    for i, c in zip(S, C):
        if not 1 <= i <= K:
            raise ParameterError(f"support index {i} outside [1, {K}]")
        if not 1 <= c < q:
            raise ParameterError(f"coefficient {c} is not a nonzero scalar mod {q}")
    words = answer_words(db, np.array([S], dtype=np.int64), np.array([C], dtype=np.int64))
    return FieldElement(db.params, tuple(words[0].tolist()))


def check_cell(K: int, M: int, model: str) -> None:
    """Raise ParameterError unless the model admits a support of size M
    against K messages: 0 <= M < K for model I, 1 <= M <= K for model II."""
    if model == MODEL_I:
        if not 0 <= M < K:
            raise ParameterError(f"model I needs 0 <= M < K, got M={M}, K={K}")
    elif model == MODEL_II:
        if not 1 <= M <= K:
            raise ParameterError(f"model II needs 1 <= M <= K, got M={M}, K={K}")
    else:
        raise ParameterError(f"unknown model {model!r}")


def sample_demand(K: int, M: int, model: str, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw count uniform demands and supports, one per trial, as a (count,)
    array W and a (count, M) array S: each S uniform over M-subsets of [K]
    (sorted), each W uniform over the complement of S (model I) or over S
    (model II).  This is everything the query's index sets depend on.  rng
    is a random.Random or the RandomDraws of the draws that follow."""
    check_cell(K, M, model)
    # The first index of a uniform ordered draw is uniform given the rest.
    pool = np.arange(1, K + 1)[None].repeat(count, axis=0)
    if model == MODEL_I:
        drawn = draws_from(rng).sample(pool, M + 1)
        return drawn[:, 0], np.sort(drawn[:, 1:], axis=1)
    drawn = draws_from(rng).sample(pool, M)
    return drawn[:, 0], np.sort(drawn, axis=1)


def sample_scenario(db: Database, M: int, model: str, rng: Random) -> Scenario:
    """Draw a uniform scenario: (W, S) as sample_demand's batch of one, then
    C uniform over units (one coefficients draw, as Python ints), both on
    one RandomDraws, and Y = sum(c_i * X_i)."""
    d = RandomDraws(rng)
    W, S = sample_demand(db.K, M, model, d, 1)
    S = tuple(S[0].tolist())
    C = tuple(d.coefficients(db.params.q, M).tolist())
    return Scenario(W=int(W[0]), S=S, C=C, Y=side_information(db, S, C), model=model)
