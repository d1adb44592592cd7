"""The arithmetic of a modulus N: exact factoring and primality for every
number below 3.3*10^24, the CRT split of Z/N, and |SL_n(Z/N)|.

Trial division by every d < 1000 runs first, so any n <= 10^6 is settled by
it alone. A cofactor left over has no prime factor below 1000 and goes to
two classical methods:

* primality: strong probable-prime tests to the 13 prime bases 2..41, which
  no composite below psi_13 = 3317044064679887385961981 (about 3.3*10^24)
  passes (Sorenson and Webster 2015), so below psi_13 the answer is exact;
* splitting: Pollard rho in Brent's form (Brent 1980), with batched gcds,
  the maps y -> y^2 + c for c = 1, 2, ... in turn, and a budget of 2^20
  steps shared by all of them.

Every answer is exact. Where these methods cannot give one, BadModulus
("modulus outside the supported range") is raised in bounded time: for an
odd number >= psi_13 that passes all 13 bases, whose primality is then
undecided, and for a composite that does not split within the budget,
which can happen when its least prime factor above 1000 is near 10^12 or
larger. Running out the budget takes about 0.5 s on one core of an Intel
Xeon server under CPython 3.11.

Each entry point takes n through operator.index, so a float is a TypeError,
not an answer in floats.

_crt_plan(N), cached, is the one CRT split of Z/N into factors Z/q = Z/p^s with
idempotents e (1 mod q, 0 mod N/q). sl_order_formula, the index [SL_n(Z) :
Gamma(N)], needs only it, so the CLI's index loads no matrix code.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import index

from .errors import BadModulus

__all__ = ["factorize", "is_prime", "next_prime", "euler_phi", "sl_order_formula"]

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981
_RHO_BUDGET = 1 << 20
_RHO_BATCH = 128


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, primes ascending."""
    n = index(n)
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out, m, settled = _trial_division(n)
    big = [] if m == 1 else [m] if settled else _prime_factors(m)
    return out + [(p, big.count(p)) for p in sorted(set(big))]


def is_prime(n: int) -> bool:
    n = index(n)
    found, m, settled = _trial_division(n, first=True)
    return n > 1 and not found and (settled or _miller_rabin(m))


def _trial_division(n: int, first: bool = False) -> tuple[list[tuple[int, int]], int, bool]:
    """Trial division by each d < 1000 while d*d <= what is left of n: the (d, e)
    found, the cofactor left, and whether it is settled (1 or prime, d*d passed it).
    With first, it stops at the first factor found, which settles that n is not prime."""
    out = []
    d = 2
    while d * d <= n and d < 1000:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
            if first:
                break
        d += 1 if d == 2 else 2
    return out, n, d * d > n


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = index(n) + 1
    while not is_prime(c):
        c += 1
    return c


def euler_phi(n: int) -> int:
    total = n = index(n)
    for p, _ in factorize(n):
        total = total // p * (p - 1)
    return total


@functools.lru_cache(maxsize=64)
def _crt_plan(N: int) -> tuple[tuple[int, int, int, int], ...]:
    """The (p, s, q, e) of each prime-power factor q = p^s of N, e in [0, N)
    its CRT idempotent: 1 mod q and 0 mod N/q. A tuple of tuples, so every
    caller can share it, and cached, so a modulus is factored once."""
    return tuple((p, s, p**s, N // p**s * pow(N // p**s, -1, p**s)) for p, s in factorize(N))


def sl_order_formula(n: int, N: int) -> int:
    """|SL_n(Z/N)| as an exact integer.

    Multiplicative over the prime factorization of N. For a prime power p^s
    the count is p^(n(n-1)/2 + (s-1)(n^2-1)) * prod_{k=2..n}(p^k - 1).
    """
    n, N = index(n), index(N)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if N < 1:
        raise BadModulus(f"modulus must be >= 1, got {N}")
    total = 1
    for p, s, _, _ in _crt_plan(N):
        shift = n * (n - 1) // 2 + (s - 1) * (n * n - 1)
        total *= p**shift * _prod_pk_minus_one(p, 2, n + 1)
    return total


def _prod_pk_minus_one(p: int, lo: int, hi: int) -> int:
    """prod_{lo <= k < hi}(p^k - 1), by halves, so that the large multiplies
    pair operands of similar size; a running product takes time quadratic
    in the size of the result."""
    if hi - lo <= 8:
        out = 1
        for k in range(lo, hi):
            out *= p**k - 1
        return out
    mid = (lo + hi) // 2
    return _prod_pk_minus_one(p, lo, mid) * _prod_pk_minus_one(p, mid, hi)


def _miller_rabin(n: int) -> bool:
    """Whether n is prime, for odd n > 41; exact below psi_13."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise BadModulus(
            f"modulus outside the supported range: primality of a {n.bit_length()}-bit "
            f"number is undecided at or above {_PSI_13}"
        )
    return True


def _prime_factors(n: int) -> list[int]:
    """The primes of n with multiplicity, for n with no prime factor below 1000."""
    if _miller_rabin(n):
        return [n]
    f = _brent(n)
    return _prime_factors(f) + _prime_factors(n // f)


def _brent(n: int) -> int:
    """A proper factor of the odd composite n by Pollard-Brent rho, within the budget."""
    budget = _RHO_BUDGET
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > budget:  # a round of r costs at most 2r steps
                raise BadModulus(
                    f"modulus outside the supported range: a {n.bit_length()}-bit factor "
                    f"did not split within {_RHO_BUDGET} Pollard rho steps"
                )
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g < n:
            return g
