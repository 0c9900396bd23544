"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Raised when arguments are outside the documented parameter ranges."""


class ProtocolError(Exception):
    """Raised when a query or answer is structurally invalid for the protocol."""


class WireParseError(ProtocolError):
    """Raised when a byte string cannot be parsed; records the failing offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class AuditSizeError(Exception):
    """Raised when an instance is too large for exhaustive auditing.

    The message points the caller at the Monte-Carlo auditor, which has no
    size limit.
    """


class ShapeError(ProtocolError):
    """Raised when a query's case, set count or set sizes do not fit its model.

    part names what is wrong: "case", "count" or "size".
    """

    def __init__(self, message: str, part: str):
        super().__init__(message)
        self.part = part


class SetRuleError(ProtocolError, ParameterError):
    """Raised for the first set-rule fault of a query, in wire byte order.
    It is a ParameterError too, since the caller passed the faulty set.

    Slot `slot` of set `set_no` (both from 0) holds `value`, and what is
    wrong with it is one of "index" (not an int in range), "repeat" (an index
    already in that set) or "coefficient" (not an int in [1, q-1]).
    """

    def __init__(self, message: str, set_no: int, slot: int, what: str, value):
        super().__init__(message)
        self.set_no, self.slot, self.what, self.value = set_no, slot, what, value
