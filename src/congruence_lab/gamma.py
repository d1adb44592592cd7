"""Principal congruence subgroups Gamma(N) = {X in SL_n(Z) : X = 1 mod N}.

The level of a matrix is the gcd of the entries of X - 1, with 0 reserved
for the identity (which lies in Gamma(N) for every N). Containment follows
divisibility: Gamma(M) contains Gamma(N) exactly when M divides N.
"""

from __future__ import annotations

import math
import random

from .errors import BadModulus, NotPrime
from .intmat import IntMatrix, random_elementary_rows, require_det_one
from .primes import is_prime

__all__ = [
    "gamma_member",
    "gamma_level",
    "successive_quotient_order",
    "sample_gamma",
]


def _require_chain(p: int, k: int = 1) -> None:
    """Refuse a p that is not prime, then a chain depth k below 1."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("chain depth k must be >= 1")


def gamma_member(x: IntMatrix, N: int) -> bool:
    """True iff N divides every entry of x - 1, i.e. x lies in Gamma(N)."""
    if N < 1:
        raise BadModulus(f"level must be >= 1, got {N}")
    require_det_one(x)
    return all(
        (e - (i == j)) % N == 0 for i, row in enumerate(x.rows) for j, e in enumerate(row)
    )


def gamma_level(x: IntMatrix) -> int:
    """Exact level of x: the largest N with x in Gamma(N), computed as
    gcd of the entries of x - 1. Returns 0 for the identity."""
    require_det_one(x)
    g = 0
    for i, row in enumerate(x.rows):
        for j, e in enumerate(row):
            g = math.gcd(g, e - (i == j))
    return g


def successive_quotient_order(n: int, p: int, k: int = 1) -> int:
    """Order of Gamma(p^k)/Gamma(p^(k+1)): always p^(n^2 - 1), independent of k.

    Cross-checkable as the ratio of sl_order_formula at p^(k+1) and at p^k.
    """
    _require_chain(p, k)
    return p ** (n * n - 1)


def sample_gamma(n: int, N: int, length: int, seed: int) -> IntMatrix:
    """Deterministic pseudo-random element of Gamma(N): a product of `length`
    elementary matrices whose coefficients are multiples of N."""
    if N < 1:
        raise BadModulus(f"level must be >= 1, got {N}")
    if length < 0:
        raise ValueError("length must be >= 0")
    rng = random.Random(seed)
    return IntMatrix(random_elementary_rows(n, length, rng, scale=N))
