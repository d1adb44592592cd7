"""Arithmetic in Z/N: ModMatrix, CRT recombination, and the elements of SL_n(Z/N).

ModMatrix is the Z/N view of the matrix core in intmat.py; it adds only the
identity of a given modulus and the "a,b;c,d mod N" parser.

enumerate_sl lists SL_n(Z/N) through its structure: CRT splits it into the
factors SL_n(Z/p^s), and each factor is built row by row, with the last row
solved from the determinant instead of searched for. Its cost follows
|SL_n(Z/N)| rather than N^(n^2), but the cap still bounds N^(n^2), so which
inputs are refused does not depend on the route. sl_order_formula computes
the same count in closed form; the test suite holds the two together and
checks the list against an exhaustive N^(n^2) walk.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable

from .errors import BadModulus, CapExceeded, ParseError
from .intmat import Rows, SquareMatrix, det_of_rows, identity_rows, parse_entries
from .primes import factorize

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "ModMatrix",
    "crt_combine",
    "enumerate_sl",
    "sl_order_formula",
]

DEFAULT_ENUMERATION_CAP = 10_000_000


def crt_combine(residues: Iterable[tuple[int, int]]) -> int:
    """Solve x = r (mod m) over pairwise coprime moduli; x is returned in [0, prod m)."""
    x, big = 0, 1
    for r, m in residues:
        t = ((r - x) * pow(big, -1, m)) % m
        x += big * t
        big *= m
    return x % big


@dataclass(frozen=True)
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


def _check_enumeration(n: int, N: int, cap: int | None) -> None:
    """Argument and cap checks shared by everything that walks SL_n(Z/N).

    The cap bounds N^(n^2), the size of the entry space, and is checked on N
    itself before any per-factor work, so the inputs refused are the same
    whatever route the caller takes through the group.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if N < 2:
        raise BadModulus(f"modulus must be >= 2, got {N}")
    effective_cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    size = N ** (n * n)
    if size > effective_cap:
        raise CapExceeded(size, effective_cap)


def _sl_local(n: int, p: int, s: int) -> list[Rows]:
    """The entries of every element of SL_n(Z/p^s), in no particular order.

    The determinant is linear in the last row, with the cofactors c_j of the
    top n-1 rows as coefficients. Z/p^s is a local ring, so the top rows
    extend to SL_n exactly when some c_j is a unit (prime to p); the entry
    x_j of the last row is then solved from the others, giving exactly
    (p^s)^(n-1) completions, each of determinant 1.
    """
    if n == 1:
        return [((1,),)]
    q = p**s
    m = n - 1
    out = []
    for flat in itertools.product(range(q), repeat=m * n):
        top = tuple(flat[r * n : (r + 1) * n] for r in range(m))
        cof = [
            (-1) ** (m + j) * det_of_rows(tuple(r[:j] + r[j + 1 :] for r in top)) % q
            for j in range(n)
        ]
        j = next((j for j, c in enumerate(cof) if c % p), None)
        if j is None:
            continue
        inv = pow(cof[j], -1, q)
        rest = cof[:j] + cof[j + 1 :]
        for free in itertools.product(range(q), repeat=m):
            x = (1 - sum(map(operator.mul, rest, free))) * inv % q
            out.append(top + (free[:j] + (x,) + free[j:],))
    return out


def enumerate_sl(n: int, N: int, cap: int | None = None) -> list[ModMatrix]:
    """All of SL_n(Z/N), sorted lexicographically by entries.

    Lists each CRT factor SL_n(Z/p^s) with _sl_local and glues the factors
    together entrywise, so the cost follows |SL_n(Z/N)|. Raises CapExceeded
    (carrying the required cap) when the entry space N^(n^2) is larger than
    `cap` (default DEFAULT_ENUMERATION_CAP).
    """
    _check_enumeration(n, N, cap)
    elements: list[Rows] = []
    M = 1
    for p, s in factorize(N):
        local = _sl_local(n, p, s)
        elements = _crt_glue(elements, M, local, p**s) if M > 1 else local
        M *= p**s
    elements.sort()
    return [ModMatrix._wrap(rows, N) for rows in elements]


def _crt_glue(xs: list[Rows], a: int, ys: list[Rows], b: int) -> list[Rows]:
    """Every pair (x mod a, y mod b) joined entrywise by CRT, for coprime a and b."""
    ea = crt_combine([(1, a), (0, b)])
    eb = crt_combine([(0, a), (1, b)])
    ab = a * b
    return [
        tuple(tuple((u * ea + v * eb) % ab for u, v in zip(rx, ry)) for rx, ry in zip(x, y))
        for x in xs
        for y in ys
    ]


def sl_order_formula(n: int, N: int) -> int:
    """|SL_n(Z/N)| as an exact integer.

    Multiplicative over the prime factorization of N; for a prime power p^s
    the count is p^((s-1)(n^2-1)) * |SL_n(Z/p)|, and |SL_n(Z/p)| is
    prod_{i<n}(p^n - p^i) / (p - 1) by exact division.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if N < 1:
        raise BadModulus(f"modulus must be >= 1, got {N}")
    if N == 1:
        return 1
    total = 1
    for p, s in factorize(N):
        gl_p = 1
        for i in range(n):
            gl_p *= p**n - p**i
        sl_p = gl_p // (p - 1)
        total *= p ** ((s - 1) * (n * n - 1)) * sl_p
    return total
