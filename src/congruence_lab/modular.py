"""The elements of SL_n(Z/N). ModMatrix is imported from intmat.py, and the
count sl_order_formula from primes.py.

enumerate_sl lists SL_n(Z/N) in one walk over Z/N, in order, with the rows
shared and N never factored. Per head of n-2 rows, one product_of_rows gives
the cofactor vector c of every last top row, and the last rows solve
c.y = 1 mod N, once per vector met (_completions): none unless
gcd(c, N) = 1, and else, with g = gcd(c_n, N), one ascending progression of
step N/g in y_n for each prefix p of y with g | 1 - c.p, so nothing is
sorted. The same walk serves every n >= 2 and every N.
The rows are wrapped as ModMatrix in bulk, by SquareMatrix._wrap_all, with
no Python call per element, while the cyclic collector is paused (for why,
see enumerate_sl; the test suite pins that the records form no cycles). Its
cost follows |SL_n(Z/N)| rather than N^(n^2), but the cap still bounds
N^(n^2), so which inputs are refused does not depend on the route.
sl_order_formula computes the same count in closed form; the test suite
holds the two together and checks the list against an exhaustive N^(n^2)
walk.
"""

from __future__ import annotations

import gc
import itertools
import math
from operator import index

from .errors import BadModulus, CapExceeded
from .intmat import ModMatrix, Rows, cofactors, identity_rows, power_below, product_of_rows
from .primes import sl_order_formula

# ModMatrix is exported by intmat; `from congruence_lab.modular import ModMatrix` still works.
__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "enumerate_sl",
    "sl_order_formula",
]

DEFAULT_ENUMERATION_CAP = 10_000_000


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
    if power_below(N, e, cap + 1) is None:
        size = power_below(N, e)
        raise CapExceeded(size, cap, None if size else f"{N}^{e}")
    return n, N


def _sl_rows(n: int, N: int) -> list[Rows]:
    """The entries of every element of SL_n(Z/N), in lexicographic order.

    The top n-1 rows are a head of n-2 rows and a last top row x, each run
    through `space`, the N^n rows in order. det is linear in the last row,
    with intmat.cofactors(head + (x,)) as coefficients, and those are linear
    in x: x times the table whose row k is cofactors(head + (e_k,)). So one
    product_of_rows per head gives the cofactor vectors of all its tops,
    reduced mod N, in the order of `space`. A second table holds the
    completions of each vector met (_completions), and zip builds each
    element as one tuple, so every row of the list is one of `space`.
    """
    if n == 1:  # directly: the general route would build all N one-entry rows
        return [((1,),)]
    space = list(itertools.product(range(N), repeat=n))
    basis = identity_rows(n)
    completions: dict[tuple[int, ...], list] = {}
    out: list[Rows] = []
    for head in itertools.product(space, repeat=n - 2):
        table = tuple(cofactors(head + (e,)) for e in basis)
        fixed = [*map(itertools.repeat, head)]  # stateless, so one per head serves every zip
        for x, cof in zip(space, product_of_rows(space, table, N)):
            if (tails := completions.get(cof)) is None:
                tails = completions[cof] = _completions(cof, N, space)
            out += zip(*fixed, itertools.repeat(x), tails)
    return out


def _completions(cof: tuple[int, ...], N: int, space: list) -> list:
    """The rows y of space with cof.y = 1 mod N, in the order of space; the
    entries of cof lie in [0, N), as product_of_rows gives them.

    There are none unless gcd(cof, N) = 1. Otherwise let c = cof[-1] and
    g = gcd(c, N). A prefix of y, with r = 1 minus its dot product with the
    rest of cof, has a completion iff g divides r, and its completions are
    y_n = y* + t*N/g for t < g, with y* = (r/g)(c/g)^-1 mod N/g: one slice
    of space, ascending. Only r mod N matters, so each entry a of the rest
    steps r by N - a, a range step that is never 0.
    """
    if math.gcd(*cof, N) != 1:
        return []
    c = cof[-1]
    g = math.gcd(c, N)
    step = N // g
    inv = pow(c // g, -1, step)
    rs = [1]  # r for each prefix in the order of space, up to a multiple of N
    for a in cof[:-1]:
        rs = [r for r0 in rs for r in range(r0, r0 + (N - a) * N, N - a)]
    starts = range(0, N * len(rs), N)  # the prefix's first row in space
    return [y for i, r in zip(starts, rs) if not r % g for y in space[i + r // g * inv % step : i + N : step]]


def enumerate_sl(n: int, N: int, cap: int | None = None) -> list[ModMatrix]:
    """All of SL_n(Z/N), sorted lexicographically by entries.

    Walks the top rows over Z/N and solves the last row of each from the
    determinant (_sl_rows), in order and with no sort, so the cost follows
    |SL_n(Z/N)| and N is never factored. Raises
    CapExceeded (carrying the required cap, or None past 4300 digits) when
    the entry space N^(n^2) is larger than `cap` (default
    DEFAULT_ENUMERATION_CAP).

    The cyclic collector is off from the cap check to the return, and is
    turned back on only if it was on. That is safe: the records hold only
    tuples of ints, so they form no cycles and a collection frees none of
    them. On 3.10 and 3.11 this removes the repeated young passes and the
    collection of the whole heap that building the list started; on 3.12
    and 3.13, whose collectors start fewer, it is neutral in time. What
    stays is one young pass at the caller's next allocation while the list
    is alive.
    """
    n, N = _check_enumeration(n, N, cap)
    was = gc.isenabled()
    gc.disable()  # the records form no cycles: a collection here frees nothing
    try:
        return ModMatrix._wrap_all(_sl_rows(n, N), N)
    finally:
        if was:
            gc.enable()
