"""Exact torsion analysis in SL_n(Z) and its finite quotients.

Element orders over Z are read off the characteristic polynomial rather than
found by iterating powers with a size cutoff. An element of finite order is
diagonalisable with root-of-unity eigenvalues, so |tr x| > n proves infinite
order, and so does a characteristic polynomial with a non-cyclotomic factor.
Otherwise chi_x is a product of cyclotomic polynomials Phi_d, the only order
x can have is m = lcm of those d, and one exact power x^m decides between m
and infinite order. No heuristics are involved.

mod_spectrum finds the element orders of SL_n(Z/N) from conjugacy classes,
since conjugation keeps orders, and never lists the group. Over F_p a class
of GL_n(F_p) is a multiset of primary blocks C(f^e), f monic irreducible and
f != t, and the classes in SL_n(F_p) are those whose block dets multiply to
1. The block C(f^e) has order ord(f) * p^a, p^a the least power of p that is
>= e (Lidl-Niederreiter, Finite Fields, Thm 3.8), and a class has the lcm of
its blocks' orders, so at a prime no matrix is multiplied. Over Z/p^s every
order occurs in the fibre over a class: the X*k with X a det-1 lift of the
class's block-diagonal representative and k in K = Gamma(p)/Gamma(p^s). Such
an element has order ord(X mod p) * p^j, j < s, and 1 or p times its order
mod p^(s-1), so the fibre is walked one level p^t at a time, each level
bounding the orders the next one can show, and a walk stops as soon as every
order it can still show is known. Time and memory follow the number of
classes and |K| = p^((s-1)(n^2-1)), not |SL_n(Z/p^s)|.

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
import itertools
import math
from operator import mul

from .errors import BadModulus, CounterexampleFound
from .gamma import gamma_level, is_one_mod
from .intmat import (Frozen, IntMatrix, Rows, cofactors, det_of_rows, identity_rows,
                     power_of_rows, product_of_rows, random_elementary_rows,
                     require_det_one, require_det_one_rows)
from .modular import _check_enumeration
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


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a*b over F_p; polynomials are coefficient tuples, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(c % p for c in out)


def _irreducibles(n: int, p: int) -> list[tuple[int, ...]]:
    """The monic irreducible f != t over F_p of degree <= n, in order of degree.

    A sieve: the reducible monic polynomials of degree d are the products g*h
    of a monic irreducible g of degree k <= d/2 (t included) and a monic h of
    degree d - k, so no polynomial is tried for a factor.
    """
    monic, irr, out = {0: [(1,)]}, {}, []
    for d in range(1, n + 1):
        monic[d] = [c + (1,) for c in itertools.product(range(p), repeat=d)]
        composite = {_poly_mul(g, h, p) for k in range(1, d // 2 + 1) for g in irr[k] for h in monic[d - k]}
        irr[d] = [f for f in monic[d] if f not in composite]
        out += [f for f in irr[d] if f[0]]  # f(0) == 0 only for f = t
    return out


def _mulmod(a: list[int], b: list[int], f: tuple[int, ...], p: int) -> list[int]:
    """a*b mod (f, p) for residues of d = deg f coefficients; f is monic."""
    d, prod = len(f) - 1, list(_poly_mul(a, b, p))
    for k in range(len(prod) - 1, d - 1, -1):  # t^k = t^(k-d) * (t^d - f)
        if c := prod[k] % p:
            for i, fi in enumerate(f[:d], k - d):
                prod[i] -= c * fi
    return [c % p for c in prod[:d]]


def _poly_order(f: tuple[int, ...], p: int, primes: list[int]) -> int:
    """ord(f), the least r with f | t^r - 1, for irreducible f != t over F_p.

    t mod f generates F_p[t]/f = F_(p^d), so r divides p^d - 1, whose prime
    factors are given. Each is removed from r while t^(r / prime) = 1 mod f
    still holds. Powers of t are taken left to right: a square, then a
    multiply by t, which is a shift.
    """
    d = len(f) - 1
    one = [1] + [0] * (d - 1)

    def t_power(e: int) -> list[int]:
        x = [0, 1] + [0] * (d - 2) if d > 1 else [-f[0] % p]
        for bit in bin(e)[3:]:
            x = _mulmod(x, x, f, p)
            if bit == "1":
                c = x[-1]
                x = [(u - c * v) % p for u, v in zip([0] + x[:-1], f)]
        return x

    r = p**d - 1
    for prime in primes:
        while r % prime == 0 and t_power(r // prime) == one:
            r //= prime
    return r


def _blocks(n: int, p: int) -> list[tuple[tuple[int, ...], int, int]]:
    """Every primary block C(f^e) of size <= n over F_p, as (f^e, det, order),
    sorted by size: det C(f^e) = ((-1)^deg f * f(0))^e, and the order is
    ord(f^e) = ord(f) * p^a, f^e being its minimal polynomial (Thm 3.8)."""
    out, primes = [], [[]] + [[l for l, _ in factorize(p**d - 1)] for d in range(1, n + 1)]
    for f in _irreducibles(n, p):
        d = len(f) - 1
        det, order, g, pa = (-1) ** d * f[0] % p, _poly_order(f, p, primes[d]), f, 1
        for e in range(1, n // d + 1):
            if e > 1:
                g = _poly_mul(g, f, p)
            while pa < e:
                pa *= p
            out.append((g, det**e % p, order * pa))
    return sorted(out, key=lambda block: len(block[0]))


def _classes(n: int, p: int, blocks: list) -> list[tuple]:
    """Each multiset of blocks whose sizes sum to n and whose dets multiply
    to 1: the classes of GL_n(F_p) inside SL_n(F_p), by their primary
    rational canonical forms. blocks are sorted by size, as _blocks gives them."""
    out = []

    def extend(start: int, left: int, det: int, chosen: tuple) -> None:
        if not left:
            if det == 1:
                out.append(chosen)
            return
        for i in range(start, len(blocks)):
            g, block_det, _ = block = blocks[i]
            if len(g) - 1 > left:
                return
            extend(i, left - len(g) + 1, det * block_det % p, chosen + (block,))

    extend(0, n, 1, ())
    return out


def _lift(n: int, polys, p: int, q: int) -> Rows:
    """A det-1 lift to Z/q of the block diagonal of the companion matrices of
    polys, whose det is 1 mod p: its first column is scaled by det^-1 mod q."""
    rows, at = [[0] * n for _ in range(n)], 0
    for g in polys:
        m = len(g) - 1
        for i in range(m):
            if i:
                rows[at + i][at + i - 1] = 1
            rows[at + i][at + m - 1] = -g[i] % p
        at += m
    inv = pow(det_of_rows(rows), -1, q)
    return tuple((r[0] * inv % q,) + tuple(r[1:]) for r in rows)


def _congruence_kernel(n: int, p: int, s: int) -> list[Rows]:
    """The elements of SL_n(Z/p^s) that are 1 mod p: Gamma(p)/Gamma(p^s).

    Every entry but the last is free in its class mod p. The last entry's
    cofactor is 1 mod p, a unit, so det = 1 solves for it.
    """
    q, steps = p**s, range(0, p**s, p)
    ident = identity_rows(n)
    free = [list(itertools.product(*[[e + a for a in steps] for e in r])) for r in ident[:-1]]
    out = []
    for top in itertools.product(*free):
        *cof, last = (c % q for c in cofactors(top))
        inv = pow(last, -1, q)
        for head in itertools.product(steps, repeat=n - 1):
            out.append(top + (head + ((1 - sum(map(mul, cof, head))) * inv % q,),))
    return out


def _kernel_order(z: Rows, q: int) -> int:
    """The order of z = 1 mod p in SL_n(Z/q), q = p^s.

    If z = 1 + p^a*B with B != 0 mod p, then z^p = 1 + p^(a+1)*B mod p^(a+2)
    when p is odd or a >= 2, so z has order q / p^a, and p^a is the gcd of q
    and the entries of z - 1. Only at p = 2, a = 1 is z squared first.
    """
    g = math.gcd(q, *[e - (i == j) for i, r in enumerate(z) for j, e in enumerate(r)])
    return 2 * _kernel_order(product_of_rows(z, z, q), q) if g == 2 else q // g


def _local_spectrum(n: int, p: int, s: int) -> set[int]:
    """Element orders of SL_n(Z/p^s), n >= 2, from the classes mod p.

    Every order occurs in the fibre over a class representative x mod p, as
    conjugation by GL_n(Z/q) keeps det and order: the y = X*k, k = 1 mod p.
    y has order o*p^j, o = ord(x) and p^j the order of y^o = 1 mod p. Below
    s a fibre is walked until it shows the largest order its level allows,
    which bounds the next level; at s until every order under the bound is
    known. For p not dividing o, X is the lift's power of order o, so k = 1
    already gives the order o.
    """
    blocks = _blocks(n, p)
    if s == 1:
        return {math.lcm(*[o for *_, o in c]) for c in _classes(n, p, blocks)}
    q, found = p**s, set()
    kernels = {t: _congruence_kernel(n, p, t) for t in range(2, s + 1)}
    for chosen in _classes(n, p, blocks):
        o = math.lcm(*[o for *_, o in chosen])
        if {o * p**j for j in range(s)} <= found:
            continue
        x = _lift(n, [g for g, *_ in chosen], p, q)
        if o % p:  # x^a has order o for a = 0 mod q/p and a = 1 mod o
            x = power_of_rows(x, q // p * pow(q // p, -1, o), q)
        top = o  # the largest order in the fibre mod p^(t-1)
        for t in range(2, s + 1):
            if t < s:
                need = {p * top}
            else:
                need = {o * p**j for j in range(s) if o * p**j <= p * top} - found
            qt = p**t
            xt, orders = tuple(tuple(e % qt for e in r) for r in x), set()
            for k in kernels[t]:
                orders.add(o * _kernel_order(power_of_rows(product_of_rows(xt, k, qt), o, qt), qt))
                if need <= orders:
                    break
            top = max(orders)
        found |= orders
    return found


def mod_spectrum(n: int, N: int, cap: int | None = None) -> frozenset[int]:
    """Set of element orders of SL_n(Z/N).

    SL_n(Z/N) is the direct product of its CRT factors SL_n(Z/p^s), and the
    orders in a direct product are exactly the lcms of orders in the
    factors, so each factor's spectrum is found on its own and combined.
    A factor's spectrum comes from the classes of SL_n(F_p): the lcms of
    their primary blocks' orders ord(f) * p^a (Lidl-Niederreiter, Thm 3.8)
    at s = 1, and the fibres over them at s >= 2 (see the module docstring),
    so the group is never listed. The cap is the one enumerate_sl applies,
    on N^(n^2), so the inputs refused do not depend on the route.
    """
    _check_enumeration(n, N, cap)
    if n == 1:
        return frozenset({1})
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
