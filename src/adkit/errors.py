"""Exception hierarchy shared across the toolkit."""


class AdkitError(Exception):
    """Base class for all toolkit errors."""


class CoefficientSyntaxError(AdkitError):
    """Raised by the coefficient-expression parser; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AlgebraFormatError(AdkitError):
    """Malformed algebra or witness file."""


class DimensionMismatch(AdkitError):
    """Operands live in different dimensions."""


class MissingAssignment(AdkitError):
    """A parameter occurring in the data was not given a value."""


class SingularMatrix(AdkitError):
    """A basis-change matrix is not invertible."""


class UnknownEntry(AdkitError):
    """Catalog lookup with an id that does not exist."""


class ConstraintViolation(AdkitError):
    """A parameter assignment violates an entry's domain constraints."""


class CenterMismatch(AdkitError):
    """Quotient construction requires the two centers to coincide."""


class NotAssociative(AdkitError):
    """The solver only accepts associative base algebras."""


class SideConditionViolation(AdkitError):
    """A sample point violates a branch side condition."""


class BudgetExceeded(AdkitError):
    """An input is larger than a named budget admits; nothing was expanded."""

    def __init__(self, budget: str, message: str):
        super().__init__(message)
        self.budget = budget
