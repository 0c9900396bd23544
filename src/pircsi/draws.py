"""The random choices of a structure draw, and their production interpreter.

Each model's draw_structure is written once over four primitives: choose(cdf)
(one outcome of a pmf.Cdf), sample(pool, k) (k distinct items of a sequence,
as a list), shuffle(seq) (a list, in place) and split(seq, size) (the items
in blocks of size, which divides len(seq)).  RandomDraws interprets them
with the random.Random production callers pass; the exact auditor
interprets the same draw by enumeration.
"""

from random import Random


class RandomDraws:
    """Each primitive as calls on one generator."""

    __slots__ = ("rng", "sample", "shuffle")

    def __init__(self, rng: Random):
        self.rng = rng
        self.sample, self.shuffle = rng.sample, rng.shuffle  # called as they are

    def choose(self, cdf):
        return cdf.draw(self.rng)

    def split(self, seq, size: int) -> list:
        items = list(seq)
        self.rng.shuffle(items)
        return [items[i : i + size] for i in range(0, len(items), size)]


def draws_from(rng):
    """RandomDraws over a random.Random; any other interpreter as it is."""
    return RandomDraws(rng) if isinstance(rng, Random) else rng
