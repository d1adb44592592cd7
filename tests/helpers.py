"""Shared strategies and independent oracles for the test suite."""

import functools
import itertools
import math
from collections import Counter

import hypothesis.strategies as st

from congruence_lab import ElementaryWord, IntMatrix, ModMatrix, enumerate_sl, torsion
from congruence_lab.intmat import elementary_product, identity_rows, product_of_rows
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


def charpoly_by_faddeev_leverrier(rows) -> tuple[int, ...]:
    """det(t*I - A) over Z, lowest degree first, by Faddeev-LeVerrier.

    With M_1 = I, c_(n-k) = -tr(A*M_k)/k and M_(k+1) = A*M_k + c_(n-k)*I.
    Every M_k is an integer matrix and every c_i an integer, so each
    division by k is exact: n products over Z and no fractions.
    """
    n = len(rows)
    coeffs = [0] * n + [1]
    m = identity_rows(n)
    for k in range(1, n + 1):
        am = product_of_rows(rows, m)
        c = coeffs[n - k] = -sum(am[i][i] for i in range(n)) // k
        m = tuple(tuple(e + c * (i == j) for j, e in enumerate(r)) for i, r in enumerate(am))
    return tuple(coeffs)


# Every (n, N) whose group a test reads as input, each checked by
# test_modular.py::test_sl_group_is_one_shared_tuple. SL_2(Z/N) for N = 25, 27,
# 49 and 60 is not here: one test reads every 11th element of each (285,984 in
# all) and enumerates them itself, so they do not stay alive for the session.
SL_GROUPS = (
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (2, 9), (2, 12), (2, 30),
    (3, 2), (3, 3), (3, 4),
)  # fmt: skip


@functools.cache
def sl_group(n: int, N: int) -> tuple[ModMatrix, ...]:
    """SL_n(Z/N) as enumerate_sl lists it, made once per (n, N) and session.
    A tuple of immutable records, so no test can change what the next one
    reads. Tests whose subject is the enumerate_sl call itself call it instead."""
    assert (n, N) in SL_GROUPS, f"add ({n}, {N}) to SL_GROUPS"
    return tuple(enumerate_sl(n, N))


def brute_force_sl(n: int, N: int) -> list[ModMatrix]:
    """SL_n(Z/N) by walking all N^(n^2) entry tuples in lexicographic order.
    The walk is made once per (n, N) and session; each call gets a new list."""
    return list(_brute_force_walk(n, N))


@functools.cache
def _brute_force_walk(n: int, N: int) -> tuple[ModMatrix, ...]:
    out = []
    for flat in itertools.product(range(N), repeat=n * n):
        rows = tuple(flat[r * n : (r + 1) * n] for r in range(n))
        if det_permutation_oracle(rows) % N == 1:
            out.append(ModMatrix(rows, N))
    return tuple(out)


def brute_force_spectrum(n: int, N: int) -> frozenset[int]:
    """Element orders of SL_n(Z/N), each found by multiplying until the identity."""
    return frozenset(brute_force_orders(n, N))


def brute_force_orders(n: int, N: int) -> Counter:
    """How many elements of SL_n(Z/N) have each order, by brute_force_spectrum's walk."""
    return Counter(_brute_force_orders(n, N))


@functools.cache
def _brute_force_orders(n: int, N: int) -> tuple[int, ...]:
    orders = []
    for x in brute_force_sl(n, N):
        y, order = x, 1
        while not y.is_identity():
            y, order = y * x, order + 1
        orders.append(order)
    return tuple(orders)


def a_lambda(parts, q: int) -> int:
    """a_lambda(q) for the partition lambda of parts, q = p^d: the order of
    the centralizer in GL of the primary part of a class over F_p whose
    blocks C(f^e), f one irreducible of degree d, have the parts e of lambda
    (Macdonald, Symmetric Functions and Hall Polynomials, ch. IV, sec. 2).
    It is q^(sum of the squared parts of lambda') times, for each part of
    multiplicity m, (1 - q^-1)...(1 - q^-m); written over Z, every q^-k is
    cleared into the power of q, which stays >= 0."""
    conj = [sum(1 for e in parts if e > i) for i in range(max(parts))]
    mults = Counter(parts).values()
    power = sum(c * c for c in conj) - sum(m * (m + 1) // 2 for m in mults)
    return q**power * math.prod(q**k - 1 for m in mults for k in range(1, m + 1))


def sl_class_sizes(n: int, p: int) -> list[tuple[int, int]]:
    """(order, size) of each class of SL_n(F_p) that torsion._classes lists,
    from the classical class equation of GL_n(F_p): the size is |GL_n(F_p)|
    over the product of a_lambda_f(p^d), one factor for each f of degree d
    met, named by its (d, j), lambda_f the partition of the e = size // d
    of its blocks. The order is the lcm of the blocks' orders."""
    gl = math.prod(p**n - p**k for k in range(n))
    out = []
    for chosen in torsion._classes(n, p, torsion._blocks(n, p)):
        parts = {}
        for size, _, _, d, j in chosen:
            parts.setdefault((d, j), []).append(size // d)
        size, rem = divmod(gl, math.prod(a_lambda(lam, p**d) for (d, _), lam in parts.items()))
        assert not rem, (n, p, chosen)
        out.append((math.lcm(*[o for _, _, o, *_ in chosen]), size))
    return out


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


def random_elementary_rows_by_randrange(n: int, length: int, rng, scale: int = 1):
    """The sampler's draws through randrange and randint, one call per value:
    the rows random_elementary_rows must give, with rng left where it leaves it."""
    if n == 1:
        return identity_rows(1)
    ops = []
    for _ in range(length):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n)
        if j >= i:
            j += 1
        a = rng.randint(1, 5) * scale
        if rng.randrange(2):
            a = -a
        ops.append((i, j, a))
    return elementary_product(n, ops)


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
