"""Exact torsion analysis in SL_n(Z) and its finite quotients.

Element orders over Z are decided against a finite candidate set rather than
by iterating powers with a size cutoff: a finite-order integer matrix has
minimal polynomial equal to a product of distinct cyclotomic polynomials
whose degrees sum to at most n, so its order is the lcm of the corresponding
cyclotomic indices. candidate_orders(n) enumerates exactly those lcms; a
matrix whose candidate powers all miss the identity has infinite order, no
heuristics involved. (This degree bound is classical theory, see any text on
integral representations of finite groups.)

minkowski_probe is a falsification probe for the classical fact (Minkowski,
1887) that Gamma(N) is torsion-free for N >= 3 and that nontrivial torsion
in Gamma(2) has order 2. It samples conjugates of known torsion elements and
raises CounterexampleFound if one ever lands where none should ever land.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import BadModulus, CounterexampleFound
from .gamma import gamma_level, gamma_member
from .intmat import IntMatrix, Rows, identity_rows, random_elementary_rows, require_det_one
from .modular import ModMatrix, _check_enumeration, _sl_local
from .primes import euler_phi, factorize

__all__ = [
    "OrderResult",
    "TORSION_ORDER_4",
    "TORSION_ORDER_6",
    "candidate_orders",
    "matrix_order",
    "mod_spectrum",
    "minkowski_probe",
]

# The standard order-4 and order-6 torsion elements of SL_2(Z).
TORSION_ORDER_4 = IntMatrix(((0, -1), (1, 0)))
TORSION_ORDER_6 = IntMatrix(((0, -1), (1, 1)))


@dataclass(frozen=True)
class OrderResult:
    """Order of a matrix: value is the finite order, or None for infinite."""

    value: int | None

    @property
    def kind(self) -> str:
        return "infinite" if self.value is None else "finite"

    @property
    def is_finite(self) -> bool:
        return self.value is not None


def candidate_orders(n: int) -> frozenset[int]:
    """Every order a finite-order element of GL_n(Z) can have.

    The lcms of sets of distinct cyclotomic indices {d_i} with
    sum phi(d_i) <= n, found as a 0/1 knapsack that maps each lcm to the
    least total phi-cost reaching it. phi(d) >= sqrt(d/2), so the scan over
    d is finite.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    least = {1: 0}
    for d in range(1, 2 * n * n + 2):
        cost = euler_phi(d)
        if cost > n:
            continue
        # a snapshot of the table, so each index is spent at most once
        for acc, spent in list(least.items()):
            if spent + cost <= n:
                m = math.lcm(acc, d)
                least[m] = min(least.get(m, n), spent + cost)
    return frozenset(least)


def matrix_order(x: IntMatrix) -> OrderResult:
    """Exact multiplicative order of x in SL_n(Z)."""
    require_det_one(x)
    ident = IntMatrix.identity(x.n)
    for cand in sorted(candidate_orders(x.n)):
        if x**cand == ident:
            return OrderResult(cand)
    return OrderResult(None)


def _local_spectrum(n: int, p: int, s: int) -> set[int]:
    """Element orders of SL_n(Z/p^s), one cyclic subgroup at a time.

    From each element x whose order is not known yet, multiply out x, x^2,
    ... up to the identity; that gives o = |<x>|, and x^k has order
    o / gcd(o, k). A walk started at x also settles every generator of <x>,
    so the multiplies total at most the sum of |C| over cyclic subgroups C.
    """
    q = p**s
    ident = identity_rows(n)
    orders: dict[Rows, int] = {}
    for rows in _sl_local(n, p, s):
        if rows in orders:
            continue
        x = y = ModMatrix._wrap(rows, q)
        powers = [rows]
        while y.rows != ident:
            y = y * x
            powers.append(y.rows)
        o = len(powers)
        for k, z in enumerate(powers, 1):
            orders.setdefault(z, o // math.gcd(o, k))
    return set(orders.values())


def mod_spectrum(n: int, N: int, cap: int | None = None) -> frozenset[int]:
    """Set of element orders of SL_n(Z/N).

    SL_n(Z/N) is the direct product of its CRT factors SL_n(Z/p^s), and the
    orders in a direct product are exactly the lcms of orders in the
    factors, so each factor's spectrum is found on its own and combined.
    The cap is the one enumerate_sl applies, on N^(n^2).
    """
    _check_enumeration(n, N, cap)
    spectrum = {1}
    for p, s in factorize(N):
        local = _local_spectrum(n, p, s)
        spectrum = {math.lcm(a, b) for a in spectrum for b in local}
    return frozenset(spectrum)


def _torsion_pool() -> list[IntMatrix]:
    pool: dict[IntMatrix, None] = {}
    for base in (TORSION_ORDER_4, TORSION_ORDER_6):
        m = base
        while not m.is_identity():
            pool.setdefault(m, None)
            m = m * base
    return list(pool)


def minkowski_probe(N: int, trials: int, seed: int) -> dict:
    """Falsification probe: conjugates of torsion elements avoid Gamma(N >= 3).

    Each trial conjugates a random nontrivial power of the order-4 or order-6
    element by a random element of SL_2(Z) and checks that the conjugate is
    not in Gamma(N); any conjugate that lies in Gamma(2) must square to the
    identity. Returns a JSON-ready report {trials, failures, examples};
    raises CounterexampleFound instead of ever reporting a failure, since one
    would contradict a theorem. This probe is evidence, not a proof.
    """
    if N < 3:
        raise BadModulus(f"probe level must be >= 3, got {N}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    rng = random.Random(seed)
    pool = _torsion_pool()
    ident = IntMatrix.identity(2)
    examples = []
    for _ in range(trials):
        t = pool[rng.randrange(len(pool))]
        g = IntMatrix(random_elementary_rows(2, rng.randrange(2, 10), rng))
        conj = g * t * g.inverse()
        if gamma_member(conj, N):
            raise CounterexampleFound(
                f"torsion conjugate {conj} lies in Gamma({N}); this should be impossible"
            )
        if gamma_member(conj, 2) and conj * conj != ident:
            raise CounterexampleFound(
                f"finite-order element {conj} of Gamma(2) does not square to 1"
            )
        if len(examples) < 5:
            examples.append(
                {
                    "matrix": conj.to_text(),
                    "order": matrix_order(conj).value,
                    "level": gamma_level(conj),
                }
            )
    return {"trials": trials, "failures": 0, "examples": examples}
