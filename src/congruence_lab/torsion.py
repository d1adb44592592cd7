"""Exact torsion analysis in SL_n(Z) and its finite quotients.

Element orders over Z are read off the characteristic polynomial rather than
found by iterating powers with a size cutoff. An element of finite order is
diagonalisable with root-of-unity eigenvalues, so |tr x| > n proves infinite
order, and so does a characteristic polynomial with a non-cyclotomic factor.
Otherwise chi_x is a product of cyclotomic polynomials Phi_d, the only order
x can have is m = lcm of those d, and one exact power x^m decides between m
and infinite order. No heuristics are involved.

minkowski_probe is a falsification probe for the classical fact (Minkowski,
1887) that Gamma(N) is torsion-free for N >= 3 and that nontrivial torsion
in Gamma(2) has order 2. It samples conjugates of known torsion elements and
raises CounterexampleFound if one ever lands where none should ever land.
Its trials run on bare rows, with the row kernel, the 2x2 det-1 check and
the membership predicate gamma_member itself uses; matrices are built only
for the report's examples and for a counterexample's message.
"""

from __future__ import annotations

import functools
import math

from .errors import BadModulus, CounterexampleFound
from .gamma import gamma_level, is_one_mod
from .intmat import (Frozen, IntMatrix, Rows, identity_rows, product_of_rows,
                     random_elementary_rows, require_det_one, require_det_one_rows)
from .modular import _check_enumeration, _sl_local
from .primes import euler_phi, factorize

__all__ = [
    "OrderResult",
    "TORSION_ORDER_4",
    "TORSION_ORDER_6",
    "matrix_order",
    "mod_spectrum",
    "minkowski_probe",
]

# The standard order-4 and order-6 torsion elements of SL_2(Z).
TORSION_ORDER_4 = IntMatrix(((0, -1), (1, 0)))
TORSION_ORDER_6 = IntMatrix(((0, -1), (1, 1)))


class OrderResult(Frozen):
    """Order of a matrix: value is the finite order, or None for infinite."""

    __match_args__ = ("value",)

    def __init__(self, value: int | None):
        vars(self).update(value=value)

    @property
    def kind(self) -> str:
        return "infinite" if self.value is None else "finite"

    @property
    def is_finite(self) -> bool:
        return self.value is not None


def _divide_monic(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...] | None:
    """p / q for monic q, or None if q does not divide p.

    Polynomials are coefficient tuples, lowest degree first. Long division by
    a monic divisor stays in Z, so the quotient is exact when it exists.
    """
    dq = len(q) - 1
    rem = list(p)
    quot = [0] * (len(p) - dq)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + dq]
        if c:
            for i in range(dq):
                rem[k + i] -= c * q[i]
    return None if any(rem[:dq]) else tuple(quot)


@functools.cache
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d: t^d - 1 divided by Phi_e for every proper divisor e of d."""
    p = (-1,) + (0,) * (d - 1) + (1,)
    for e in range(1, d):
        if d % e == 0:
            p = _divide_monic(p, _cyclotomic(e))
    return p


@functools.cache
def _cyclotomic_indices(n: int) -> tuple[int, ...]:
    """Every d with phi(d) <= n; phi(d) >= sqrt(d/2) bounds the scan."""
    return tuple(d for d in range(1, 2 * n * n + 2) if euler_phi(d) <= n)


def _charpoly(rows: Rows) -> tuple[int, ...]:
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


def matrix_order(x: IntMatrix) -> OrderResult:
    """Exact multiplicative order of x in SL_n(Z).

    Strips from chi_x every Phi_d with phi(d) <= n; a leftover of positive
    degree means infinite order, else x^m == 1 for m = lcm of the stripped d
    decides.
    """
    if x.modulus is not None:
        raise TypeError(
            f"matrix_order works over Z, not Z/{x.modulus}; "
            "the orders of SL_n(Z/N) are given by mod_spectrum"
        )
    require_det_one(x)
    n = x.n
    if abs(x.trace()) > n:
        return OrderResult(None)
    chi, m = _charpoly(x.rows), 1
    for d in _cyclotomic_indices(n):
        while (quot := _divide_monic(chi, _cyclotomic(d))) is not None:
            chi, m = quot, math.lcm(m, d)
    if len(chi) > 1:
        return OrderResult(None)
    return OrderResult(m if (x**m).is_identity() else None)


def _local_spectrum(n: int, p: int, s: int) -> set[int]:
    """Element orders of SL_n(Z/p^s), one cyclic subgroup at a time.

    From each element x whose order is not known yet, multiply out the rows
    of x, x^2, ... up to the identity; that gives o = |<x>|, and x^k has order
    o / gcd(o, k). A walk started at x also settles every generator of <x>,
    so the multiplies total at most the sum of |C| over cyclic subgroups C.
    """
    q = p**s
    ident = identity_rows(n)
    orders: dict[Rows, int] = {}
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
    import random  # here, not at the top: only the samplers draw
    rng = random.Random(seed)
    pool = [t.rows for t in _torsion_pool()]
    ident = identity_rows(2)
    examples = []
    for _ in range(trials):
        t = pool[rng.randrange(len(pool))]
        g = random_elementary_rows(2, rng.randrange(2, 10), rng)
        require_det_one_rows(g)
        (a, b), (c, d) = g
        conj = product_of_rows(product_of_rows(g, t), ((d, -b), (-c, a)))  # g*t*adj(g)
        require_det_one_rows(conj)
        if is_one_mod(conj, N):
            raise CounterexampleFound(
                f"torsion conjugate {IntMatrix._wrap(conj)} lies in Gamma({N}); "
                "this should be impossible"
            )
        if is_one_mod(conj, 2) and product_of_rows(conj, conj) != ident:
            raise CounterexampleFound(
                f"finite-order element {IntMatrix._wrap(conj)} of Gamma(2) does not square to 1"
            )
        if len(examples) < 5:
            x = IntMatrix._wrap(conj)
            examples.append(
                {"matrix": x.to_text(), "order": matrix_order(x).value, "level": gamma_level(x)}
            )
    return {"trials": trials, "failures": 0, "examples": examples}
