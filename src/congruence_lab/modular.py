"""The elements of SL_n(Z/N). ModMatrix is imported from intmat.py, and the
CRT split _crt_plan and the count sl_order_formula from primes.py.

enumerate_sl lists SL_n(Z/N) through its structure: CRT splits it into the
factors SL_n(Z/p^s), each listed in order with the rows shared. Per head of
n-2 rows, one product_of_rows gives the cofactor vectors of every last top
row, and the last rows come from a table of the solutions of det = 1
(_completions). A prime power's list is returned as it is; several factors
are glued in one pass, each element the sum of e*x mod N over its factors,
and sorted once (_crt_glue). The rows are wrapped as ModMatrix in bulk, by
SquareMatrix._wrap_all, with no Python call per element. The cyclic
collector is paused while the group is built: each element is one ModMatrix
holding a tuple of shared int-tuple rows and an int, so the records form no
cycles and a collection can free none of them (the test suite pins this).
On 3.10 and 3.11 the pause removes the repeated young passes (125 for
SL_3(Z/4)) and the collection of the whole heap that building the list
could start; on 3.12 and 3.13 it is neutral. One young pass stays, at the
caller's next allocation while the list is alive. Its cost follows
|SL_n(Z/N)| rather than N^(n^2), but the cap still bounds N^(n^2), so which
inputs are refused does not depend on the route. sl_order_formula computes
the same count in closed form; the test suite holds the two together and
checks the list against an exhaustive N^(n^2) walk.
"""

from __future__ import annotations

import gc
import itertools
from operator import index

from .errors import BadModulus, CapExceeded
from .intmat import ModMatrix, Rows, cofactors, identity_rows, power_below, product_of_rows
from .primes import _crt_plan, sl_order_formula

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
    together entrywise in one pass, so the cost follows |SL_n(Z/N)|. Raises
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
        plan = _crt_plan(N)
        lists = [_sl_local(n, p, s) for p, s, _, _ in plan]
        # a prime power's list is already in order; a glued one is not
        elements = lists[0] if len(plan) == 1 else _crt_glue(lists, [e for *_, e in plan], N)
        return ModMatrix._wrap_all(elements, N)
    finally:
        if was:
            gc.enable()


def _crt_glue(lists: list[list[Rows]], es: list[int], N: int) -> list[Rows]:
    """Every choice of one element per factor, joined entrywise by CRT as the
    sum of e*x mod N over the factors (es their idempotents), sorted. Each
    choice of one row per factor is joined once, so the glued rows are shared too."""
    scaled = [{r: [e * u for u in r] for r in set().union(*xs)} for xs, e in zip(lists, es)]
    glued = {key: tuple(sum(col) % N for col in zip(*map(dict.__getitem__, scaled, key)))
             for key in itertools.product(*scaled)}
    return sorted(tuple(map(glued.__getitem__, zip(*xs))) for xs in itertools.product(*lists))
