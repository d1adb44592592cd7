"""Principal congruence subgroups Gamma(N) = {X in SL_n(Z) : X = 1 mod N}.

The level of a matrix is the gcd of the entries of X - 1, with 0 reserved
for the identity (which lies in Gamma(N) for every N). Containment follows
divisibility: Gamma(M) contains Gamma(N) exactly when M divides N. Only
Gamma(N) is covered here; the p-chain's prime check is in witnesses.py.
"""

from __future__ import annotations

from operator import index

from .errors import BadModulus
from .intmat import (IntMatrix, is_one_mod, level_of_rows, random_elementary_rows, require_det_one,
                     require_ring)

__all__ = [
    "gamma_member",
    "gamma_level",
    "sample_gamma",
]


def gamma_member(x: IntMatrix, N: int) -> bool:
    """True iff N divides every entry of x - 1, i.e. x lies in Gamma(N)."""
    if (N := index(N)) < 1:
        raise BadModulus(f"level must be >= 1, got {N}")
    require_ring(x, "gamma_member")
    require_det_one(x)
    return is_one_mod(x.rows, N)


def gamma_level(x: IntMatrix) -> int:
    """Exact level of x: the largest N with x in Gamma(N), computed as
    gcd of the entries of x - 1. Returns 0 for the identity."""
    require_ring(x, "gamma_level")
    require_det_one(x)
    return level_of_rows(x.rows)


def sample_gamma(n: int, N: int, length: int, seed: int) -> IntMatrix:
    """Deterministic pseudo-random element of Gamma(N): a product of `length`
    elementary matrices whose coefficients are multiples of N, drawn from
    random.Random(seed).getrandbits as random_elementary_rows says."""
    n, N, length = index(n), index(N), index(length)
    if N < 1:
        raise BadModulus(f"level must be >= 1, got {N}")
    import random  # here, not at the top: only the samplers draw
    return IntMatrix(random_elementary_rows(n, length, random.Random(seed), scale=N))
