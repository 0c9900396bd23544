"""Messages as vectors over GF(q) for odd prime q.

A message of GF(q^m) is held as its m coordinates over the base field GF(q).
The protocols only add messages and scale them by base-field coefficients,
so nothing ever multiplies two messages: (q, m) alone pins down every
operation, and two parties that agree on (q, m) agree on everything.
Elements are drawn here; coefficients come from pircsi.draws.
"""

import struct
from dataclasses import dataclass
from random import Random

from .errors import ParameterError

# Coefficients travel as unsigned 16-bit words, which caps the characteristic.
MAX_Q = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, slots=True)
class FieldParams:
    """Immutable description of GF(q)^m: q an odd prime >= 3, m >= 1."""

    q: int
    m: int = 1

    def __post_init__(self):
        q, m = self.q, self.m
        if not isinstance(q, int) or isinstance(q, bool):
            raise ParameterError(f"q must be an odd prime >= 3, got {q!r}")
        # The cap comes first: trial division of a q announced by a peer
        # would cost milliseconds before the cap refused it.
        if q >= MAX_Q:
            raise ParameterError(f"q must fit in 16 bits, got {q}")
        if not _is_prime(q) or q < 3:
            raise ParameterError(f"q must be an odd prime >= 3, got {q!r}")
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ParameterError(f"extension degree must be a positive integer, got {m!r}")

    @property
    def element_bytes(self) -> int:
        """Size of the canonical element encoding: m unsigned 16-bit words."""
        return 2 * self.m

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        coeffs = tuple(int(c) % self.q for c in coeffs)
        if len(coeffs) != self.m:
            raise ParameterError(f"need {self.m} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def scalar(self, c: int) -> "FieldElement":
        """Embed a base-field value as the first coordinate."""
        return FieldElement(self, (int(c) % self.q,) + (0,) * (self.m - 1))

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: Random) -> "FieldElement":
        """Uniform element: one draw below q^m, split into base-q digits,
        first coordinate lowest."""
        q, value = self.q, rng.randrange(self.q**self.m)
        coeffs = []
        for _ in range(self.m):
            value, digit = divmod(value, q)
            coeffs.append(digit)
        return FieldElement(self, tuple(coeffs))


class FieldElement:
    """A single vector of GF(q)^m, stored as its coordinate tuple."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: FieldParams, coeffs: tuple[int, ...]):
        self.params = params
        self.coeffs = coeffs

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.params != other.params:
            raise ParameterError("elements from different fields cannot be combined")
        q = self.params.q
        return FieldElement(
            self.params, tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c: int) -> "FieldElement":
        """Multiply by a base-field scalar."""
        q = self.params.q
        c = int(c) % q
        return FieldElement(self.params, tuple((c * a) % q for a in self.coeffs))

    def to_bytes(self) -> bytes:
        """Canonical encoding: m little-endian u16 words, first coordinate first."""
        return struct.pack(f"<{self.params.m}H", *self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.params == other.params
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.params, self.coeffs))

    def __repr__(self):
        if self.params.m == 1:
            return f"gf({self.coeffs[0]} mod {self.params.q})"
        return f"gf({list(self.coeffs)} mod {self.params.q}^{self.params.m})"
