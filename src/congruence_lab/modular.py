"""Arithmetic in Z/N: ModMatrix, the CRT split, and the elements of SL_n(Z/N).

ModMatrix is the Z/N view of the matrix core in intmat.py; it adds only the
identity of a given modulus and the "a,b;c,d mod N" parser.

crt_idempotent (1 mod q, 0 mod N/q) is the one statement of the CRT split
of Z/N into its prime-power factors Z/q: enumerate_sl glues its factor lists
with it, and words.decompose_mod lifts every local word with it.

enumerate_sl lists SL_n(Z/N) through its structure: CRT splits it into the
factors SL_n(Z/p^s), each listed in order with the rows shared. Per head of
n-2 rows, one product_of_rows gives the cofactor vectors of every last top
row, and the last rows come from a table of the solutions of det = 1
(_completions); only a list glued from several factors is sorted. Its cost
follows |SL_n(Z/N)| rather than N^(n^2), but the cap still bounds N^(n^2),
so which inputs are refused does not depend on the route. sl_order_formula
computes the same count in closed form; the test suite holds the two together
and checks the list against an exhaustive N^(n^2) walk.
"""

from __future__ import annotations

import itertools
from operator import index

from .errors import BadModulus, CapExceeded, ParseError
from .intmat import Rows, SquareMatrix, cofactors, identity_rows, parse_entries, product_of_rows
from .primes import factorize

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "ModMatrix",
    "enumerate_sl",
    "sl_order_formula",
]

DEFAULT_ENUMERATION_CAP = 10_000_000


def crt_idempotent(q: int, N: int) -> int:
    """The e in [0, N) with e = 1 mod q and e = 0 mod N/q, for q | N coprime to N/q."""
    return N // q * pow(N // q, -1, q)


class ModMatrix(SquareMatrix):
    """Immutable square matrix over Z/N with entries reduced into [0, N)."""

    __slots__ = ()

    @classmethod
    def identity(cls, n: int, modulus: int) -> ModMatrix:
        return cls(identity_rows(n), modulus)

    @classmethod
    def from_text(cls, text: str) -> ModMatrix:
        body, sep, mod_text = text.partition("mod")
        if not sep:
            raise ParseError(f"missing 'mod N' suffix in {text!r}")
        mod_text = mod_text.strip()
        if not mod_text.isdecimal():
            raise ParseError(f"bad modulus {mod_text!r}")
        return cls(parse_entries(body.strip()), int(mod_text))


def _check_enumeration(n: int, N: int, cap: int | None) -> tuple[int, int]:
    """Argument and cap checks shared by everything that walks SL_n(Z/N);
    returns n and N as ints, taken through operator.index like the cap.

    The cap bounds N^(n^2), the size of the entry space, and is checked on N
    itself before any per-factor work, so the inputs refused are the same
    whatever route the caller takes through the group. N^(n^2) has over
    (bits of N - 1) * n^2 bits, so a space past both the cap and 10^4300
    (4301 digits, named as a power) is refused before the power is built.
    """
    n, N = index(n), index(N)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if N < 2:
        raise BadModulus(f"modulus must be >= 2, got {N}")
    cap, e = DEFAULT_ENUMERATION_CAP if cap is None else index(cap), n * n
    if (N.bit_length() - 1) * e < max(cap.bit_length(), 14285):  # 10^4300 has 14285 bits
        if (size := N**e) <= cap:
            return n, N
        if size < 10**4300:
            raise CapExceeded(size, cap)
    raise CapExceeded(None, cap, f"{N}^{e}")


def _sl_local(n: int, p: int, s: int) -> list[Rows]:
    """The entries of every element of SL_n(Z/p^s), in lexicographic order.

    The top n-1 rows are a head of n-2 rows and a last top row x, each run
    through `space`, the q^n rows in order. det is linear in the last row,
    with intmat.cofactors(head + (x,)) as coefficients, and those are linear
    in x: x times the table whose row k is cofactors(head + (e_k,)). So one
    product_of_rows per head gives the cofactor vectors of all its tops,
    reduced mod q, in the order of `space`. A second table holds the sorted
    completions of each vector met (_completions), so every row of the list
    is one of the tuples of `space`.
    """
    if n == 1:  # directly: the general route would build all q one-entry rows
        return [((1,),)]
    q = p**s
    space = list(itertools.product(range(q), repeat=n))
    basis = identity_rows(n)
    completions: dict[tuple[int, ...], list] = {}
    out: list[Rows] = []
    for head in itertools.product(space, repeat=n - 2):
        table = tuple(cofactors(head + (e,)) for e in basis)
        for x, cof in zip(space, product_of_rows(space, table, q)):
            if (tails := completions.get(cof)) is None:
                tails = completions[cof] = _completions(cof, p, q, space)
            out += map((head + (x,)).__add__, tails)
    return out


def _completions(cof: tuple[int, ...], p: int, q: int, space: list) -> list:
    """The rows x of space with cof.x = 1 mod q, sorted, as 1-tuples. Z/q is local, so
    there are none unless some cof_j is a unit; then x_j is solved from the other entries."""
    j = next((j for j, c in enumerate(cof) if c % p), None)
    if j is None:
        return []
    inv, n = pow(cof[j], -1, q), len(cof)
    at, xj = [0], [inv]  # the index in space of each x so far, and its x_j
    for k, c in enumerate(cof):
        if k != j:
            d, w = c * inv, q ** (n - 1 - k)
            at = [i + w * t for i in at for t in range(q)]
            xj = [v - d * t for v in xj for t in range(q)]
    return [(space[i],) for i in sorted([i + q ** (n - 1 - j) * (v % q) for i, v in zip(at, xj)])]


def enumerate_sl(n: int, N: int, cap: int | None = None) -> list[ModMatrix]:
    """All of SL_n(Z/N), sorted lexicographically by entries.

    Lists each CRT factor SL_n(Z/p^s) with _sl_local and glues the factors
    together entrywise, so the cost follows |SL_n(Z/N)|. Raises CapExceeded
    (carrying the required cap, or None past 4300 digits) when the entry
    space N^(n^2) is larger than `cap` (default DEFAULT_ENUMERATION_CAP).
    """
    n, N = _check_enumeration(n, N, cap)
    elements: list[Rows] = []
    M = 1
    factors = factorize(N)
    for p, s in factors:
        local = _sl_local(n, p, s)
        elements = _crt_glue(elements, M, local, p**s) if M > 1 else local
        M *= p**s
    if len(factors) > 1:  # a prime power's list is already in order; a glued one is not
        elements.sort()
    wrap = ModMatrix._wrap
    return [wrap(rows, N) for rows in elements]


def _crt_glue(xs: list[Rows], a: int, ys: list[Rows], b: int) -> list[Rows]:
    """Every pair (x mod a, y mod b) joined entrywise by CRT, for coprime a and b.
    Each pair of rows (rx, ry) is joined once, so the glued rows are shared too."""
    ab = a * b
    ea, eb = crt_idempotent(a, ab), crt_idempotent(b, ab)
    rows_x, rows_y = {r for x in xs for r in x}, {r for y in ys for r in y}
    glued = {(rx, ry): tuple((u * ea + v * eb) % ab for u, v in zip(rx, ry))
             for rx in rows_x for ry in rows_y}
    return [tuple(map(glued.__getitem__, zip(x, y))) for x in xs for y in ys]


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
    for p, s in factorize(N):
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
