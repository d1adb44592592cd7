"""Shared strategies and independent oracles for the test suite."""

import functools
import itertools
import math

import hypothesis.strategies as st

from congruence_lab import ElementaryWord, IntMatrix, ModMatrix
from congruence_lab.intmat import identity_rows, product_of_rows
from congruence_lab.modular import _sl_local
from congruence_lab.primes import euler_phi, factorize


@functools.cache
def _signed_permutations(n: int) -> tuple:
    """Each permutation of range(n) as (i, perm[i]) pairs, with its sign."""
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        out.append((tuple(enumerate(perm)), -1 if inversions % 2 else 1))
    return tuple(out)


def det_permutation_oracle(rows) -> int:
    """Leibniz-formula determinant, independent of the production code paths."""
    total = 0
    for pairs, sign in _signed_permutations(len(rows)):
        prod = sign
        for i, j in pairs:
            prod *= rows[i][j]
        total += prod
    return total


def brute_force_sl(n: int, N: int) -> list[ModMatrix]:
    """SL_n(Z/N) by walking all N^(n^2) entry tuples in lexicographic order."""
    out = []
    for flat in itertools.product(range(N), repeat=n * n):
        rows = tuple(flat[r * n : (r + 1) * n] for r in range(n))
        if det_permutation_oracle(rows) % N == 1:
            out.append(ModMatrix(rows, N))
    return out


def brute_force_spectrum(n: int, N: int) -> frozenset[int]:
    """Element orders of SL_n(Z/N), each found by multiplying until the identity."""
    orders = set()
    for x in brute_force_sl(n, N):
        y, order = x, 1
        while not y.is_identity():
            y, order = y * x, order + 1
        orders.add(order)
    return frozenset(orders)


def cyclic_walk_spectrum(n: int, N: int) -> frozenset[int]:
    """Element orders of SL_n(Z/N), one cyclic subgroup at a time.

    Each CRT factor SL_n(Z/p^s) is listed in full. From each element x whose
    order is not known yet, the rows of x, x^2, ... are multiplied out up to
    the identity; that gives o = |<x>|, and x^k has order o / gcd(o, k). The
    factors' spectra combine by lcm. Time and memory follow |SL_n(Z/N)|.
    """
    spectrum = {1}
    for p, s in factorize(N):
        q = p**s
        ident = identity_rows(n)
        orders = {}
        for x in _sl_local(n, p, s):
            if x in orders:
                continue
            y, powers = x, [x]
            while y != ident:
                y = product_of_rows(y, x, q)
                powers.append(y)
            o = len(powers)
            for k, z in enumerate(powers, 1):
                orders.setdefault(z, o // math.gcd(o, k))
        spectrum = {math.lcm(a, b) for a in spectrum for b in orders.values()}
    return frozenset(spectrum)


def candidate_orders_walk(n: int) -> frozenset[int]:
    """lcms of every set of distinct cyclotomic indices with sum phi(d) <= n,
    by walking the subsets one by one (exponential in n)."""
    ds = [d for d in range(1, 2 * n * n + 2) if euler_phi(d) <= n]
    found: set[int] = set()

    def walk(start: int, budget: int, acc: int) -> None:
        found.add(acc)
        for t in range(start, len(ds)):
            cost = euler_phi(ds[t])
            if cost <= budget:
                walk(t + 1, budget - cost, math.lcm(acc, ds[t]))

    walk(0, n, 1)
    return frozenset(found)


def order_by_candidate_powers(x: IntMatrix) -> int | None:
    """Order of x in SL_n(Z) by trying every candidate power over Z, smallest
    first; None when none of them is the identity (infinite order)."""
    for cand in sorted(candidate_orders_walk(x.n)):
        if (x**cand).is_identity():
            return cand
    return None


def factorize_by_trial_division(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 by trial division up to sqrt(n): the
    library's loop before it stopped at 1000 (exponential in the digits)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime_by_trial_division(n: int) -> bool:
    return n > 1 and factorize_by_trial_division(n) == [(n, 1)]


def int_matrices(n: int, bound: int = 9):
    """Arbitrary n x n integer matrices with entries in [-bound, bound]."""
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(IntMatrix)


def _positions(n: int):
    return st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda t: t[0] != t[1])


def elementary_words(n: int, max_len: int = 8, bound: int = 5, modulus: int | None = None):
    """Random elementary words over Z (or Z/modulus)."""
    item = st.tuples(_positions(n), st.integers(-bound, bound))
    return st.lists(item, max_size=max_len).map(
        lambda items: ElementaryWord(n, tuple((i, j, a) for (i, j), a in items), modulus)
    )


def unimodular_matrices(n: int, max_len: int = 8, bound: int = 5):
    """Random elements of SL_n(Z), generated as products of elementary matrices."""
    return elementary_words(n, max_len, bound).map(lambda w: w.evaluate())
