"""Messages as vectors over GF(q) for odd prime q.

A message of GF(q^m) is held as its m coordinates over the base field GF(q),
in production as a row of m u16 words.  The protocols only add messages and
scale them by base-field coefficients, which model.answer_words and
protocols.decode_answer do on word rows, so nothing ever multiplies two
messages: (q, m) alone pins down every operation, and two parties that agree
on (q, m) agree on everything.  Nothing is drawn here: messages come from
model.Database.random, coefficients from pircsi.draws.  FieldElement is the
plain value that Scenario.Y, Answer.values and decode_answer give.
"""

from dataclasses import dataclass

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

    def element(self, coeffs) -> "FieldElement":
        coeffs = tuple(int(c) % self.q for c in coeffs)
        if len(coeffs) != self.m:
            raise ParameterError(f"need {self.m} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)


@dataclass(frozen=True, slots=True)
class FieldElement:
    """One vector of GF(q)^m as a value: its field and coordinate tuple,
    first coordinate first.  The arithmetic runs on word rows elsewhere."""

    params: FieldParams
    coeffs: tuple[int, ...]
