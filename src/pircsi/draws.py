"""The random choices of a query, and their production interpreter.

Each model's draw is written once over four primitives: choose(cdf) (one
outcome of a pmf.Cdf; choose(cdf, count) gives count outcomes, as their
positions in cdf.outcomes), sample(pool, k) (k distinct items of a sequence,
as a list; RandomDraws gives an int64 array from an array), shuffle(seq) (a
list or a 1-d array, in place) and split(seq, size) (the items of each row
of a 2-d array in blocks of size, which divides the row length).  On a 2-d
array, whose rows are trials, sample, shuffle and split act on each row:
sample gives a (T, k) array, shuffle permutes each row in place, and split
gives a (T, len/size, size) array.  The first model's draw runs on such
arrays, T trials at a time; the second model's draw on lists and 1-d
arrays, one trial at a time, and never splits.  A fifth,
coefficients(q, count), gives count uniform integers in [1, q) as int64:
every coefficient of a query (attach_coefficients) and a scenario's C.
RandomDraws interprets all five in production, and the exact auditor the
first four by enumeration.  uniform_words draws a database's words on the
same Generator.
"""

import threading
from bisect import bisect_right
from random import Random

import numpy as np

# sample draws k < SAMPLE_CUT items with random.sample and larger k with
# Generator.choice.  Per call, on 599 items (Python 3.11, numpy 2.4, 2-vCPU
# VM): random.sample takes 2-4 us at k <= 3, 8 us at k = 10 and 83 us at
# k = 200; Generator.choice takes 7-8 us up to k = 30 and 14 us at k = 200.
# On a 20-item pool they cross at k = 16-20.
SAMPLE_CUT = 16


class RandomDraws:
    """The primitives over a random.Random, which fixes every query in any
    thread or process.  choose(cdf) reads the Random, and so does sample of
    a list or 1-d array below SAMPLE_CUT items (so the second model's small
    queries keep their draws; Generator.choice costs more there).  Every
    other draw reads the thread's numpy Generator, far faster on long lists
    and on arrays of trials: choose(cdf, count), sample from SAMPLE_CUT
    items up and of 2-d arrays, shuffle, split and coefficients.  Its PCG64
    state is one getrandbits(128) of the Random, drawn at the first of them
    and after any other RandomDraws of the thread used it."""

    __slots__ = ("rng",)

    def __init__(self, rng: Random):
        self.rng = rng

    def choose(self, cdf, count=None):
        if count is None:
            return cdf.draw(self.rng)
        # The inverse CDF of count uniform integers below the denominator.
        generator = _thread.generator_for(self)
        if count == 1:  # a scalar draw: the same value and end state, in a third of the time
            return np.array([bisect_right(cdf.cumulative, generator.integers(0, cdf.denom))])
        u = generator.integers(0, cdf.denom, count)
        return np.searchsorted(cdf.cumulative, u, side="right")

    def sample(self, pool, k: int):
        if _rows(pool):  # a uniform ordered k-sample of each row
            return _thread.generator_for(self).permuted(pool, axis=1)[:, :k]
        array = isinstance(pool, np.ndarray)
        if k >= SAMPLE_CUT:
            picks = _thread.generator_for(self).choice(len(pool), k, replace=False)
            return pool[picks] if array else [pool[j] for j in picks.tolist()]
        if array:  # the positions random.sample(pool, k) would take
            return pool[self.rng.sample(range(len(pool)), k)]
        return self.rng.sample(pool, k)

    def shuffle(self, seq) -> None:
        generator = _thread.generator_for(self)
        if _rows(seq):
            generator.permuted(seq, axis=1, out=seq)
        else:
            generator.shuffle(seq)

    def split(self, seq: np.ndarray, size: int) -> np.ndarray:
        return _thread.generator_for(self).permuted(seq, axis=1).reshape(len(seq), -1, size)

    def coefficients(self, q: int, count: int):
        generator = _thread.generator_for(self)
        if count == 1:  # a scalar draw: the same value and end state, in a third of the time
            return np.array([generator.integers(1, q)])
        return generator.integers(1, q, size=count)


def _rows(seq) -> bool:
    """Whether seq is a 2-d array of trials, one per row."""
    return isinstance(seq, np.ndarray) and seq.ndim == 2


class _Thread(threading.local):
    """A thread's Generator and owner: setting its state beats a new one per query."""

    owner = None

    def generator_for(self, owner: RandomDraws):
        if self.owner is not owner:
            if self.owner is None:  # numpy.random takes ~20 ms to import; a server never does
                from numpy.random import PCG64, Generator

                self.bits, self.state = PCG64(0), PCG64(0).state
                self.generator = Generator(self.bits)
            self.state["state"]["state"] = owner.rng.getrandbits(128)
            self.bits.state, self.owner = self.state, owner
        return self.generator


_thread = _Thread()


def uniform_words(q: int, shape, rng: Random) -> np.ndarray:
    """Uniform u16 words in [0, q) of the given shape, such as a database's
    K×m, in one call on the thread's Generator, reseeded from rng."""
    return _thread.generator_for(RandomDraws(rng)).integers(0, q, shape, np.uint16)


def draws_from(rng):
    """RandomDraws over a random.Random; any other interpreter as it is."""
    return RandomDraws(rng) if isinstance(rng, Random) else rng
