"""Exception types shared across the package."""


class EisenringError(Exception):
    """Base class for every error raised by this package."""


class UnknownSemiringError(EisenringError):
    """Requested built-in semiring name is not registered."""


class SemiringMismatchError(EisenringError):
    """Objects over different semirings were combined, or an operation
    was given a carrier of the wrong kind."""


class BoundRequiredError(EisenringError):
    """An operation over an infinite carrier needs a positive search bound."""


class OrderTooLargeError(EisenringError):
    """A finite-structure operation was asked for an unsupported order."""


class OrderTooSmallError(EisenringError, ValueError):
    """A finite-structure operation was asked for an order below 2."""


class DegreeTooLargeError(EisenringError):
    """A polynomial scan was asked for an unsupported degree."""


class DegreeTooSmallError(EisenringError):
    """The operation needs a non-constant polynomial."""


class WindowOutOfRangeError(EisenringError, ValueError):
    """A factor-degree window is negative or above its cap."""


class CoefficientBoundError(EisenringError, ValueError):
    """A factor search was given a negative coefficient bound, or one on a
    carrier whose candidates it does not cap (finite tables, gcd-nat)."""


class BudgetExceededError(EisenringError):
    """An enumeration ran out of its node budget; results so far are partial."""


class BudgetError(EisenringError, ValueError):
    """A search was given a negative budget."""


class FactoringLimitError(EisenringError):
    """An integer's primality or smallest factor is past what the package
    decides exactly: a probable prime at or above the bound where
    Miller-Rabin is proven exact, or a composite that Pollard-Brent rho
    did not split within its step budget."""


class NotPrimeElementError(EisenringError):
    """The supplied element cannot play the prime-element role."""


class HypothesisNotEstablishedError(EisenringError):
    """The ideal-theoretic hypotheses required by the operation do not hold."""


class NoMinimalIndexError(EisenringError, ValueError):
    """A proof trace needs a coefficient of the c factor outside the ideal."""


class AxiomCheckFailedError(EisenringError):
    """A finite operation table violates the semiring axioms."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class TableFormatError(EisenringError):
    """Base class for semiring table file problems; carries a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TableSyntaxError(TableFormatError):
    """Malformed token or directive in a table file."""


class TableShapeError(TableFormatError):
    """Table rows or entries do not match the declared order."""


class MissingSectionError(TableFormatError):
    """A required table file section is absent."""


class PolySyntaxError(EisenringError):
    """Polynomial expression text is malformed; carries a position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"position {position}: {message}"
        super().__init__(message)
        self.position = position


class LiteralError(PolySyntaxError):
    """A coefficient literal is not valid for the active semiring."""
