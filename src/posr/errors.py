"""Exception types shared across the package."""


class PosrError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(PosrError):
    pass


class UnknownGenerator(PosrError):
    pass


class NotTwoGenerated(PosrError):
    pass


class IndexOutOfRange(PosrError):
    pass


class BudgetExceeded(PosrError):
    pass


class TooLarge(PosrError):
    pass


class OutOfRange(PosrError):
    pass


class NoCandidate(PosrError):
    pass


class PreconditionFailed(PosrError):
    pass


class UnsupportedFormat(PosrError):
    pass


class WitnessRejected(PosrError):
    """A search kernel returned a witness that fails the independent re-check."""


class GroupOrderMismatch(PosrError):
    """Two independent computations of a group order disagree."""
