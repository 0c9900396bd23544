"""The random choices of a query, and their production interpreter.

Each model's draw is written once over primitives that act on T trials at
a time: choose(cdf, T) (T outcomes of a pmf.Cdf, as their positions in
cdf.outcomes), and on a 2-d array whose rows are trials sample(pool, k) (k
distinct items of each row, as a (T, k) array), shuffle(seq) (each row
permuted in place) and split(seq, size) (the items of each row in blocks of
size, which divides the row length, as a (T, len/size, size) array).
Interpreter adds blocks(pool, count, size) = split(sample(pool, count *
size), size), the first model's fills, and order(T, n), T shuffled rows of
range(n), the set order.  They are primitives of their own so that a mutant
(audit.MUTATIONS), which breaks one primitive on every call, breaks order
alone and leaves both whole when it breaks sample or shuffle.
coefficients(q, count) gives count uniform integers in [1, q) as int64:
every coefficient of a query and a scenario's C.  RandomDraws interprets
them all in production, and the exact auditor all but coefficients by
enumeration, a row per leaf.  uniform_words draws a database's words on the
same Generator.  in_random_order and unplaced are the two steps both
models' draws share: the set order, and the outside pool of a mask.
"""

import threading
from bisect import bisect_right
from random import Random

import numpy as np


class Interpreter:
    """blocks and order, over an interpreter's sample, shuffle and split."""

    __slots__ = ()

    def blocks(self, pool: np.ndarray, count: int, size: int) -> np.ndarray:
        return self.split(self.sample(pool, count * size), size)

    def order(self, T: int, n: int) -> np.ndarray:
        order = np.arange(n)[None].repeat(T, axis=0)
        self.shuffle(order)
        return order


class RandomDraws(Interpreter):
    """The primitives over a random.Random, which fixes every query in any
    thread or process.  Every draw reads the thread's numpy Generator; the
    Random only seeds it: its PCG64 state is one getrandbits(128) of the
    Random, drawn at the first draw and after any other RandomDraws of the
    thread used it."""

    __slots__ = ("rng",)

    def __init__(self, rng: Random):
        self.rng = rng

    def choose(self, cdf, count: int) -> np.ndarray:
        # The inverse CDF of count uniform integers below the denominator.
        generator = _thread.generator_for(self)
        if count == 1:  # a scalar draw: the same value and end state, in a third of the time
            return np.array([bisect_right(cdf.cumulative, generator.integers(0, cdf.denom))])
        u = generator.integers(0, cdf.denom, count)
        return np.searchsorted(cdf.cumulative, u, side="right")

    def sample(self, pool: np.ndarray, k: int) -> np.ndarray:
        """A uniform ordered k-sample of each row."""
        return _thread.generator_for(self).permuted(pool, axis=1)[:, :k]

    def shuffle(self, seq: np.ndarray) -> None:
        _thread.generator_for(self).permuted(seq, axis=1, out=seq)

    def split(self, seq: np.ndarray, size: int) -> np.ndarray:
        return _thread.generator_for(self).permuted(seq, axis=1).reshape(len(seq), -1, size)

    def coefficients(self, q: int, count: int):
        generator = _thread.generator_for(self)
        if count == 1:  # a scalar draw: the same value and end state, in a third of the time
            return np.array([generator.integers(1, q)])
        return generator.integers(1, q, size=count)


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


def in_random_order(d, sets: np.ndarray):
    """The (T, n, s) sets of T queries with each query's sets in the order
    d.order draws, and the (T,) slots that each query's first set moved to."""
    order = d.order(len(sets), sets.shape[1])
    return sets[np.arange(len(sets))[:, None], order], order.argmin(axis=1)


def unplaced(placed: np.ndarray) -> np.ndarray:
    """The indices each row of the (T, K+1) mask leaves unmarked, in order, as rows."""
    return (~placed.ravel()).nonzero()[0].reshape(len(placed), -1) % placed.shape[1]
