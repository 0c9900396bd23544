"""Messages as vectors over GF(q) for odd prime q.

A message of GF(q^m) is held as its m coordinates over the base field GF(q).
The protocols only add messages and scale them by base-field coefficients,
so nothing ever multiplies two messages: (q, m) alone pins down every
operation, and two parties that agree on (q, m) agree on everything.
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
        if not isinstance(q, int) or not _is_prime(q) or q < 3:
            raise ParameterError(f"q must be an odd prime >= 3, got {q!r}")
        if q >= MAX_Q:
            raise ParameterError(f"q must fit in 16 bits, got {q}")
        if not isinstance(m, int) or m < 1:
            raise ParameterError(f"extension degree must be a positive integer, got {m!r}")

    @property
    def order(self) -> int:
        return self.q ** self.m

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

    def from_int(self, value: int) -> "FieldElement":
        """Inverse of FieldElement.as_int: base-q digits, first coordinate lowest."""
        if not 0 <= value < self.order:
            raise ParameterError(f"value {value} outside [0, {self.order})")
        coeffs = []
        for _ in range(self.m):
            coeffs.append(value % self.q)
            value //= self.q
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.m)

    def from_bytes(self, data: bytes) -> "FieldElement":
        if len(data) != self.element_bytes:
            raise ParameterError(f"expected {self.element_bytes} bytes, got {len(data)}")
        words = struct.unpack(f"<{self.m}H", data)
        if any(w >= self.q for w in words):
            raise ParameterError("coefficient word out of range for this field")
        return FieldElement(self, words)

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: Random) -> "FieldElement":
        """Uniform element: one draw below q^m, split into base-q digits."""
        return self.from_int(rng.randrange(self.order))


def sample_coefficient(params: FieldParams, rng: Random) -> int:
    """Uniform nonzero base-field scalar, the coefficient alphabet of every query."""
    return rng.randrange(1, params.q)


class FieldElement:
    """A single vector of GF(q)^m, stored as its coordinate tuple."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: FieldParams, coeffs: tuple[int, ...]):
        self.params = params
        self.coeffs = coeffs

    def _require_same(self, other: "FieldElement"):
        if self.params != other.params:
            raise ParameterError("elements from different fields cannot be combined")

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._require_same(other)
        q = self.params.q
        return FieldElement(
            self.params, tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._require_same(other)
        q = self.params.q
        return FieldElement(
            self.params, tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        q = self.params.q
        return FieldElement(self.params, tuple((-a) % q for a in self.coeffs))

    def scale(self, c: int) -> "FieldElement":
        """Multiply by a base-field scalar."""
        q = self.params.q
        c = int(c) % q
        return FieldElement(self.params, tuple((c * a) % q for a in self.coeffs))

    def __mul__(self, c):
        # Only base-field scalars act on a vector; element * element is a TypeError.
        if not isinstance(c, int):
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_int(self) -> int:
        """Base-q integer encoding, first coordinate least significant."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.params.q + c
        return v

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
