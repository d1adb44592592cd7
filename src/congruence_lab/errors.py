"""Exception types shared across the library."""

__all__ = [
    "CongruenceLabError",
    "ParseError",
    "DimensionMismatch",
    "BadModulus",
    "NotUnimodular",
    "NotPrime",
    "NotInGamma",
    "IdentityInput",
    "CapExceeded",
    "CounterexampleFound",
]


class CongruenceLabError(Exception):
    """Base class for domain errors: bad input or a violated precondition."""


class ParseError(CongruenceLabError):
    """Matrix or word text that does not match the expected format."""


class DimensionMismatch(CongruenceLabError):
    """Operands of incompatible dimensions."""


class BadModulus(CongruenceLabError):
    """Modulus outside the supported range."""


class NotUnimodular(CongruenceLabError):
    """Operation requires determinant exactly 1."""


class NotPrime(CongruenceLabError):
    """Argument must be a prime number."""


class NotInGamma(CongruenceLabError):
    """Matrix is not congruent to the identity at the required level."""


class IdentityInput(CongruenceLabError):
    """Operation is undefined on the identity matrix."""


class CapExceeded(CongruenceLabError):
    """Exhaustive enumeration would exceed the configured cap."""

    def __init__(self, requested: int, cap: int):
        self.requested = requested
        self.cap = cap
        super().__init__(
            f"search space of size {requested} exceeds enumeration cap {cap}; "
            f"required cap: {requested}"
        )


class CounterexampleFound(Exception):
    """A falsification probe hit a case that should be impossible.

    Deliberately not a CongruenceLabError: this is not an input problem, it
    would mean the underlying mathematics (or this implementation) is broken.
    """
