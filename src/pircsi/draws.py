"""The random choices of a structure draw, and their production interpreter.

Each model's draw_structure is written once over four primitives: choose(cdf)
(one outcome of a pmf.Cdf), sample(pool, k) (k distinct items of a sequence,
as a list), shuffle(seq) (a list, in place) and split(seq, size) (the items
in blocks of size, which divides len(seq)).  RandomDraws interprets them in
production, and the exact auditor by enumeration.
"""

import threading
from random import Random


class RandomDraws:
    """The primitives over a random.Random, which fixes every query in any
    thread or process.  choose and sample read it (pmf denominators exceed
    64 bits; Generator.choice is slower at a query's sizes).  shuffle and
    split read the thread's numpy Generator, far faster than random.shuffle
    on long lists, its PCG64 state one getrandbits(128) of the Random, drawn
    at the first shuffle and after any other RandomDraws of the thread."""

    __slots__ = ("rng", "sample")

    def __init__(self, rng: Random):
        self.rng, self.sample = rng, rng.sample

    def choose(self, cdf):
        return cdf.draw(self.rng)

    def shuffle(self, seq: list) -> None:
        if _thread.owner is not self:
            _thread.seed(self, self.rng.getrandbits(128))
        _thread.shuffle(seq)

    def split(self, seq, size: int) -> list:
        self.shuffle(items := list(seq))
        return [items[i : i + size] for i in range(0, len(items), size)]


class _Thread(threading.local):
    """A thread's Generator and owner: setting its state beats a new one per query."""

    owner = None

    def seed(self, owner: RandomDraws, state: int) -> None:
        if self.owner is None:  # numpy.random takes ~20 ms to import; a server never does
            from numpy.random import PCG64, Generator

            self.bits, self.state = PCG64(0), PCG64(0).state
            self.shuffle = Generator(self.bits).shuffle
        self.state["state"]["state"] = state
        self.bits.state, self.owner = self.state, owner


_thread = _Thread()


def draws_from(rng):
    """RandomDraws over a random.Random; any other interpreter as it is."""
    return RandomDraws(rng) if isinstance(rng, Random) else rng
