"""The random choices of a query, and their production interpreter.

Each model's draw_structure is written once over four primitives: choose(cdf)
(one outcome of a pmf.Cdf), sample(pool, k) (k distinct items of a sequence,
as a list), shuffle(seq) (a list, in place) and split(seq, size) (the items
in blocks of size, which divides len(seq)).  A fifth, coefficients(q, count),
gives count uniform integers in [1, q) as int64: every coefficient of a
query (attach_coefficients) and a scenario's C.  RandomDraws interprets all
five in production, and the exact auditor the first four by enumeration.
"""

import threading
from random import Random


class RandomDraws:
    """The primitives over a random.Random, which fixes every query in any
    thread or process.  choose and sample read it (so seeded Monte-Carlo
    screens keep their reports; Generator.choice is slower at a query's
    sizes).  shuffle, split and coefficients read the thread's numpy
    Generator, far faster on long lists, its PCG64 state one
    getrandbits(128) of the Random, drawn at the first of them and after
    any other RandomDraws of the thread used it."""

    __slots__ = ("rng", "sample")

    def __init__(self, rng: Random):
        self.rng, self.sample = rng, rng.sample

    def choose(self, cdf):
        return cdf.draw(self.rng)

    def shuffle(self, seq: list) -> None:
        _thread.generator_for(self).shuffle(seq)

    def split(self, seq, size: int) -> list:
        self.shuffle(items := list(seq))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def coefficients(self, q: int, count: int):
        return _thread.generator_for(self).integers(1, q, size=count)


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


def draws_from(rng):
    """RandomDraws over a random.Random; any other interpreter as it is."""
    return RandomDraws(rng) if isinstance(rng, Random) else rng
