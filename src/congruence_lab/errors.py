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
    """Exhaustive enumeration would exceed the configured cap.

    requested is the size of the search space, the least cap that admits it,
    or None for a size of over 4300 digits (CPython's default int -> str
    limit), which is never built; the message then names it by `size`, a
    power such as "2^4000000". A number past the int -> str limit in force
    is named by its bit length, so the error itself never fails to print."""

    def __init__(self, requested: int | None, cap: int, size: str | None = None):
        self.requested = requested
        self.cap = cap
        size = size or _digits(requested)
        super().__init__(
            f"search space of size {size} exceeds enumeration cap {_digits(cap)}; "
            f"required cap: {size}"
        )


def _digits(k: int) -> str:
    """str(k), or "<b-bit integer>" when str(k) would pass the int -> str limit."""
    try:
        return str(k)
    except ValueError:
        return f"<{k.bit_length()}-bit integer>"


class CounterexampleFound(Exception):
    """A falsification probe hit a case that should be impossible.

    Deliberately not a CongruenceLabError: this is not an input problem, it
    would mean the underlying mathematics (or this implementation) is broken.
    """
