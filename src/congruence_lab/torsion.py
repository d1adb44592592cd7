"""Exact torsion analysis in SL_n(Z) and its finite quotients.

Element orders over Z are read off the characteristic polynomial rather than
found by iterating powers with a size cutoff. An element of finite order is
diagonalisable with root-of-unity eigenvalues, so |tr x| > n proves infinite
order, and so does a characteristic polynomial with a non-cyclotomic factor.
Those eigenvalues also bound each coefficient of chi_x by C(n, k), so chi_x
is computed mod one Mersenne prime P > 2*C(n, n//2), by a Hessenberg
reduction in O(n^3), and lifted to (-P/2, P/2). If the lift is a product of
cyclotomic polynomials Phi_d, the only order x can have is m = lcm of those
d, and one exact power x^m decides between m and infinite order. No
heuristics are involved.

mod_spectrum finds the element orders of SL_n(Z/N) from conjugacy classes,
since conjugation keeps orders, and never lists the group. Over F_p a class
of GL_n(F_p) is a multiset of primary blocks C(f^e), f monic irreducible and
f != t, and the classes in SL_n(F_p) are those whose block dets multiply to
1. No polynomial is formed: F_(p^d)^* is cyclic (Lidl-Niederreiter, Finite
Fields, Thm 2.8), so with c a generator whose norm is a primitive root w mod
p, each f of degree d is the minimal polynomial of c^j for one Frobenius
orbit {j, jp, jp^2, ...} of size d in Z/(p^d - 1). Then det C(f^e) =
w^(j*e), and C(f^e) has order (p^d - 1)/gcd(j, p^d - 1) * p^a, p^a the
least power of p that is >= e (Thm 3.8). A class has the lcm of its blocks'
orders, so at a prime no matrix is multiplied. Over Z/p^s every
order occurs in the fibre over a class: the X*k with X a det-1 lift of the
class's block-diagonal representative and k in K = Gamma(p)/Gamma(p^s). Such
an element has order ord(X mod p) * p^j, j < s, and 1 or p times its order
mod p^(s-1), so the fibre is walked one level p^t at a time, each level
bounding the orders the next one can show, and a walk stops as soon as every
order it can still show is known. K is generated as it is walked, never
listed: time follows the elements walked, at most |K| = p^((s-1)(n^2-1)) per
class and level, and memory the number of classes plus one element.

minkowski_probe is a falsification probe for the classical fact (Minkowski,
1887) that Gamma(N) is torsion-free for N >= 3 and that nontrivial torsion
in Gamma(2) has order 2. It samples conjugates of known torsion elements and
raises CounterexampleFound if one ever lands where none should ever land.
Its trials run on bare rows, with the row kernel, the det-1 check, and the
membership predicate and level that gamma_member and gamma_level use;
matrices are built only for the examples and a counterexample's message.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from operator import index, mul

from .errors import BadModulus, CounterexampleFound
from .intmat import (Frozen, IntMatrix, Rows, cofactors, det_of_rows, identity_rows, is_one_mod,
                     level_of_rows, power_of_rows, product_of_rows, random_elementary_rows,
                     require_det_one, require_det_one_rows, require_ring)
from .modular import _check_enumeration
from .primes import _crt_plan, euler_phi, factorize

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


# Exponents e of Mersenne primes 2^e - 1, so no primality test runs. The last
# covers every n <= 86,250; a larger matrix has over 7.4*10^9 entries.
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 4423, 86243)


@functools.cache
def _charpoly_prime(n: int) -> int:
    """The least prime 2^e - 1, e in _MERSENNE_EXPONENTS, above 2*C(n, n//2):
    2^61 - 1 for n <= 63, 2^89 - 1 up to n = 91."""
    bound = 2 * math.comb(n, n // 2)
    return next(p for e in _MERSENNE_EXPONENTS if (p := 2**e - 1) > bound)


def _charpoly(rows: Rows) -> tuple[int, ...]:
    """det(t*I - A) mod P, P = _charpoly_prime(n), lowest degree first, each
    coefficient lifted to (-P/2, P/2) (Cohen, A Course in Computational
    Algebraic Number Theory, 1993, sec. 2.2.4).

    A mod P is brought to upper Hessenberg form H by similarity: below the
    subdiagonal, column k is cleared by row i -= f*row k+1 paired with column
    k+1 += f*column i. With p_i the characteristic polynomial of the leading
    i x i block of H, p_0 = 1, 0-based entries h_ij and j < i in the sum,
    p_(i+1) = (t - h_ii)*p_i - sum of h_ji*h_(j+1,j)*...*h_(i,i-1)*p_j,
    and p_n is chi: O(n^3) operations on residues.
    """
    n = len(rows)
    P = _charpoly_prime(n)
    h = [[e % P for e in r] for r in rows]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue
        if piv != k + 1:  # swap rows and columns piv and k+1: a similarity too
            h[piv], h[k + 1] = h[k + 1], h[piv]
            for r in h:
                r[piv], r[k + 1] = r[k + 1], r[piv]
        top = h[k + 1]
        inv = pow(top[k], -1, P)
        for i in range(k + 2, n):
            row = h[i]
            if f := row[k] * inv % P:
                row[k:] = [(a - f * b) % P for a, b in zip(row[k:], top[k:])]
                for r in h:
                    r[k + 1] = (r[k + 1] + f * r[i]) % P
    polys = [[1]]
    for i in range(n):
        p = polys[i]
        nxt = [a - h[i][i] * b for a, b in zip([0] + p, p + [0])]
        sub = 1
        for j in range(i - 1, -1, -1):
            if not (sub := sub * h[j + 1][j] % P):
                break
            if c := h[j][i] * sub % P:
                for s, a in enumerate(polys[j]):
                    nxt[s] -= c * a
        polys.append([c % P for c in nxt])
    half = P // 2
    return tuple(c - P if c > half else c for c in polys[n])


def matrix_order(x: IntMatrix) -> OrderResult:
    """Exact multiplicative order of x in SL_n(Z).

    chi is read mod one prime P > 2*C(n, n//2) (_charpoly) and stripped of
    every Phi_d with phi(d) <= n; a leftover of positive degree means
    infinite order, else x^m == 1 for m = lcm of the stripped d decides.
    The answer is exact whatever P does to chi. If x has finite order, its
    eigenvalues are roots of unity, so |c_k| <= C(n, k) < P/2: the lift is
    chi itself, m is the order of x and x^m == 1. If x has infinite order,
    either a factor that is not cyclotomic is left over, or x^m != 1.
    """
    require_ring(x, "matrix_order", hint="; the orders of SL_n(Z/N) are given by mod_spectrum")
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


def _blocks(n: int, p: int) -> list[tuple[int, int, int, int, int]]:
    """Every primary block C(f^e) of size <= n over F_p, as (size, det, order,
    d, j) with d = deg f, sorted by size; no polynomial is formed.

    F_(p^d)^* is cyclic of order q = p^d - 1. Fix a generator c of it whose
    norm c^(q/(p-1)) is a primitive root w mod p (_generator). Each f of
    degree d is then the minimal polynomial of c^j for the j of exactly one
    orbit {j, jp, jp^2, ...} of size d in Z/q; j is its least element. The
    roots of f multiply to w^j, so det C(f^e) = w^(j*e), kept as its
    exponent j*e mod p - 1, and its order is ord(f) * p^a, ord(f) = q /
    gcd(j, q) and p^a the least power of p that is >= e (Thm 3.8).
    """
    out = []
    for d in range(1, n + 1):
        q = p**d - 1
        for j in range(q):
            x = j
            for _ in range(d - 1):  # x = j*p^i: j is not least (x < j) or the orbit is short (x = j)
                if (x := x * p % q) <= j:
                    break
            else:
                order, pa = q // math.gcd(j, q), 1
                for e in range(1, n // d + 1):
                    while pa < e:
                        pa *= p
                    out.append((d * e, j * e % (p - 1), order * pa, d, j))
    return sorted(out)


def _classes(n: int, p: int, blocks: list) -> list[tuple]:
    """Each multiset of blocks whose sizes sum to n and whose det exponents
    sum to 0 mod p - 1: the classes of GL_n(F_p) inside SL_n(F_p), by their
    primary rational canonical forms. blocks are sorted by size, as _blocks
    gives them."""
    out = []

    def extend(start: int, left: int, det: int, chosen: tuple) -> None:
        if not left:
            if not det:
                out.append(chosen)
            return
        for i in range(start, len(blocks)):
            size, block_det, *_ = block = blocks[i]
            if size > left:
                return
            extend(i, left - size, (det + block_det) % (p - 1), chosen + (block,))

    extend(0, n, 0, ())
    return out


def _generator(d: int, p: int, w: int) -> Rows:
    """The companion rows of the first monic f of degree d with f(0) =
    (-1)^d * w whose order is p^d - 1: a generator c of F_(p^d)^* whose
    norm det C(f) is w. The order is p^d - 1 only for a primitive f."""
    q, one = p**d - 1, identity_rows(d)
    primes = [l for l, _ in factorize(q)]
    for tail in itertools.product(range(p), repeat=d - 1):
        f = ((-1) ** d * w % p,) + tail
        c = tuple(tuple([int(j == i - 1) for j in range(d - 1)] + [-f[i] % p]) for i in range(d))
        if power_of_rows(c, q, p) == one and all(power_of_rows(c, q // l, p) != one for l in primes):
            return c


def _lift(n: int, chosen: tuple, p: int, q: int, gen) -> Rows:
    """A det-1 lift to Z/q of a representative of the class chosen, whose
    det is 1 mod p. A block (size, _, _, d, j) puts c^j, c = gen(d), on its
    e = size/d diagonal blocks and 1 on the blocks just above them. f is
    separable, so this has minimal polynomial f^e and is similar to C(f^e).
    The first column is then scaled by det^-1 mod q."""
    rows, at = [[0] * n for _ in range(n)], 0
    for size, _, _, d, j in chosen:
        a = power_of_rows(gen(d), j, p)
        for i in range(size):
            start = at + i - i % d
            rows[at + i][start:start + d] = a[i % d]
            if i + d < size:
                rows[at + i][at + i + d] = 1
        at += size
    inv = pow(det_of_rows(rows), -1, q)
    return tuple((r[0] * inv % q,) + tuple(r[1:]) for r in rows)


def _congruence_kernel(n: int, p: int, s: int) -> Iterator[Rows]:
    """Yield in walk order the elements of SL_n(Z/p^s) that are 1 mod p: Gamma(p)/Gamma(p^s).

    Every entry but the last is free in its class mod p. The last entry's
    cofactor is 1 mod p, a unit, so det = 1 solves for it.
    """
    q, steps = p**s, range(0, p**s, p)
    free = [list(itertools.product(*[[e + a for a in steps] for e in r])) for r in identity_rows(n)[:-1]]
    for top in itertools.product(*free):
        *cof, last = (c % q for c in cofactors(top))
        inv = pow(last, -1, q)
        for head in itertools.product(steps, repeat=n - 1):
            yield top + (head + ((1 - sum(map(mul, cof, head))) * inv % q,),)


def _kernel_order(z: Rows, q: int) -> int:
    """The order of z = 1 mod p in SL_n(Z/q), q = p^s.

    If z = 1 + p^a*B with B != 0 mod p, then z^p = 1 + p^(a+1)*B mod p^(a+2)
    when p is odd or a >= 2, so z has order q / p^a, and p^a is the gcd of q
    and the entries of z - 1. Only at p = 2, a = 1 is z squared first.
    """
    g = level_of_rows(z, q)
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
        return {math.lcm(*[o for _, _, o, *_ in c]) for c in _classes(n, p, blocks)}
    w = next(g for g in range(1, p) if all(pow(g, (p - 1) // l, p) != 1 for l, _ in factorize(p - 1)))
    gen = functools.cache(lambda d: _generator(d, p, w))  # one search per degree met
    q, found = p**s, set()
    for chosen in _classes(n, p, blocks):
        o = math.lcm(*[o for _, _, o, *_ in chosen])
        if {o * p**j for j in range(s)} <= found:
            continue
        x = _lift(n, chosen, p, q, gen)
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
            for k in _congruence_kernel(n, p, t):
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
    A factor's spectrum comes from the classes of SL_n(F_p), each block
    read off an orbit of exponents j of a generator of F_(p^d)^*: the lcms
    of the blocks' orders (p^d - 1)/gcd(j, p^d - 1) * p^a (Lidl-Niederreiter,
    Thm 3.8) at s = 1, and the fibres over them at s >= 2 (see the module
    docstring), so the group is never listed. The cap is the one
    enumerate_sl applies, on N^(n^2), so the inputs refused do not depend
    on the route.
    """
    n, N = _check_enumeration(n, N, cap)
    if n == 1:
        return frozenset({1})
    spectrum = {1}
    for p, s, _, _ in _crt_plan(N):
        local = _local_spectrum(n, p, s)
        spectrum = {math.lcm(a, b) for a in spectrum for b in local}
    return frozenset(spectrum)


def _torsion_pool() -> list[IntMatrix]:
    a, b = TORSION_ORDER_4, TORSION_ORDER_6  # every nontrivial power in order, -1 = a^2 = b^3 once
    return list(dict.fromkeys([a, a**2, a**3, b, b**2, b**3, b**4, b**5]))


def minkowski_probe(N: int, trials: int, seed: int) -> dict:
    """Falsification probe: conjugates of torsion elements avoid Gamma(N >= 3).

    Each trial conjugates a random nontrivial power of the order-4 or order-6
    element by a random element of SL_2(Z) and checks that the conjugate is
    not in Gamma(N); any conjugate that lies in Gamma(2) must square to the
    identity. Returns a JSON-ready report {trials, failures, examples};
    raises CounterexampleFound instead of ever reporting a failure, since one
    would contradict a theorem. This probe is evidence, not a proof.
    A trial draws a pool index, a word length - 2 below 8, then the word's
    factors, all from getrandbits by the rule of random_elementary_rows.
    """
    N, trials = index(N), index(trials)
    if N < 3:
        raise BadModulus(f"probe level must be >= 3, got {N}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    import random  # here, not at the top: only the samplers draw
    rng = random.Random(seed)
    pool = [t.rows for t in _torsion_pool()]
    ident = identity_rows(2)
    examples = []
    bits, kp = rng.getrandbits, len(pool).bit_length()
    for _ in range(trials):
        while (p := bits(kp)) >= len(pool): pass
        while (length := bits(4) + 2) >= 10: pass
        g = random_elementary_rows(2, length, rng)
        require_det_one_rows(g)
        (a, b), (c, d) = g
        conj = product_of_rows(product_of_rows(g, pool[p]), ((d, -b), (-c, a)))  # g*t*adj(g)
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
            examples.append({"matrix": str(x), "order": matrix_order(x).value, "level": level_of_rows(conj)})
    return {"trials": trials, "failures": 0, "examples": examples}
