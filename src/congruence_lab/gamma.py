"""Principal congruence subgroups Gamma(N) = {X in SL_n(Z) : X = 1 mod N}.

The level of a matrix is the gcd of the entries of X - 1, with 0 reserved
for the identity (which lies in Gamma(N) for every N). Containment follows
divisibility: Gamma(M) contains Gamma(N) exactly when M divides N.
"""

from __future__ import annotations

import math
from operator import index

from .errors import BadModulus, NotPrime
from .intmat import IntMatrix, Rows, random_elementary_rows, require_det_one, require_ring
from .primes import is_prime

__all__ = [
    "gamma_member",
    "gamma_level",
    "sample_gamma",
]


def _require_chain(p: int, k: int = 1) -> None:
    """Refuse a p that is not prime, then a chain depth k below 1."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("chain depth k must be >= 1")


def is_one_mod(rows: Rows, N: int) -> bool:
    """True iff N divides every entry of rows - 1; the caller has checked N and the det."""
    for i, row in enumerate(rows):  # plain loops: no generator to set up on the probe's path
        for j, e in enumerate(row):
            if (e - (i == j)) % N:
                return False
    return True


def gamma_member(x: IntMatrix, N: int) -> bool:
    """True iff N divides every entry of x - 1, i.e. x lies in Gamma(N)."""
    N = index(N)
    if N < 1:
        raise BadModulus(f"level must be >= 1, got {N}")
    require_ring(x, "gamma_member")
    require_det_one(x)
    return is_one_mod(x.rows, N)


def gamma_level(x: IntMatrix) -> int:
    """Exact level of x: the largest N with x in Gamma(N), computed as
    gcd of the entries of x - 1. Returns 0 for the identity."""
    require_ring(x, "gamma_level")
    require_det_one(x)
    g = 0
    for i, row in enumerate(x.rows):
        for j, e in enumerate(row):
            g = math.gcd(g, e - (i == j))
    return g


def sample_gamma(n: int, N: int, length: int, seed: int) -> IntMatrix:
    """Deterministic pseudo-random element of Gamma(N): a product of `length`
    elementary matrices whose coefficients are multiples of N, drawn from
    random.Random(seed).getrandbits as random_elementary_rows says."""
    n, N, length = index(n), index(N), index(length)
    if N < 1:
        raise BadModulus(f"level must be >= 1, got {N}")
    import random  # here, not at the top: only the samplers draw
    return IntMatrix(random_elementary_rows(n, length, random.Random(seed), scale=N))
