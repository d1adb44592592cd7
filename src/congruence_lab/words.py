"""Elementary-generator words and constructive decomposition into them.

A word is an ordered product of elementary matrices 1 + a*e_ij, each given
by its 1-based (i, j, a). A word from outside (the constructor, from_text,
+) is checked once, by ElementaryWord, at the cost of one comparison chain
per generator; the words decompose_int and decompose_mod build from their
own in-range, reduced operations are not checked again. One elimination,
_word_ops, produces every such certificate, over Z or over a local ring Z/q
(q a prime power).
It reduces a determinant-1 matrix to the identity by elementary row and
column operations and replays their inverses as the word. The two rings
differ only in how a row finds its pivot:

* decompose_int shrinks the row by euclidean division with remainder until
  one entry, necessarily +-1, is left;
* decompose_mod splits Z/N into prime-power factors Z/q and pivots on any
  entry prime to q, which is a unit there. Each local coefficient is
  multiplied by the CRT idempotent of its factor, so it acts trivially in
  every other factor. One path serves every N; at a prime power the
  idempotent is 1, so lifting leaves the local word as it is.

Over Z the euclidean pivot is +-1, its own inverse, and leaves its row
clear, so the clearing shared with Z/q adds no operation to an integer word.

lift_to_int multiplies the operations of that mod-N word out over Z, which
makes the reduction map SL_n(Z) -> SL_n(Z/N) surjective in an executable
sense. Every operation, from the elimination through the word to its
product, is the word's own 1-based (i, j, a), and over Z/N its a is
already reduced: evaluating a word, over Z or Z/N, and lifting are both
intmat.elementary_product on those triples as they are. The factors of N
and their CRT idempotents are computed once per modulus (_crt_plan).

Column swaps needed during reduction are emitted as three elementary
operations realizing the signed swap (c_k, c_j) -> (c_j, -c_k), so every
certificate consists of elementary generators only. No attempt is made to
minimize word length; a decomposition is a certificate, not an optimizer.
Pivot choices are deterministic (over Z smallest absolute value, then
smallest index; over Z/q the first unit), so equal inputs always yield
identical words.
"""

from __future__ import annotations

import functools
import operator
import re
from collections import namedtuple
from itertools import repeat
from math import gcd

from .errors import ParseError
from .intmat import (Frozen, IntMatrix, elementary_product, identity_rows, is_one_mod, require_det_one,
                     require_ring)
from .modular import ModMatrix, crt_idempotent
from .primes import factorize

__all__ = [
    "ElementaryWord",
    "decompose_int",
    "decompose_mod",
    "lift_to_int",
]

_GEN_RE = re.compile(r"E\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(-?\d+)\s*\)$")


# A generator 1 + a*e_ij of an ElementaryWord, i and j 1-based.
_Gen = namedtuple("_Gen", "i j a")


class ElementaryWord(Frozen):
    """An ordered product of elementary generators over Z or over Z/N.

    gens holds triples of ints (i, j, a), the generator 1 + a*e_ij with
    1 <= i, j <= n and i != j, checked here (built in range, by _from_ops,
    for the decompositions) and stored as named tuples with fields i, j and
    a (equal to the plain triples). modulus None means the word lives over
    Z; otherwise coefficients are kept reduced into [0, modulus). Evaluation
    is the left-to-right product.
    """

    __match_args__ = ("n", "gens", "modulus")

    def __init__(self, n: int, gens: tuple[tuple[int, int, int], ...], modulus: int | None = None):
        # operator.index, as in the matrix core: n = 2.5, Z/5.5 or a = 0.5 is a TypeError.
        index = operator.index
        n = index(n)
        m = modulus
        if m is not None and (m := index(m)) < 2:
            raise ValueError(f"word modulus must be >= 2, got {m}")
        checked = []
        new = tuple.__new__
        for i, j, a in gens:
            i, j, a = index(i), index(j), index(a)
            if m is not None:
                a %= m
            if not (0 < i <= n and 0 < j <= n and i != j):
                if i < 1 or j < 1:
                    raise ValueError(f"generator position ({i},{j}) must be 1-based")
                if i == j:
                    raise ValueError("elementary generator requires i != j")
                raise ValueError(f"generator E({i},{j},{a}) out of range for n={n}")
            checked.append(new(_Gen, (i, j, a)))
        if n < 1:  # checked last: with n < 1 every generator fails above, with its own message
            raise ValueError("dimension must be >= 1")
        vars(self).update(n=n, gens=tuple(checked), modulus=m)

    @classmethod
    def _from_ops(cls, n: int, ops, modulus: int | None = None) -> ElementaryWord:
        """The word of the 1-based (i, j, a) that this module built itself:
        in-range off-diagonal positions, a already reduced over Z/modulus.
        Unchecked."""
        w = object.__new__(cls)
        gens = tuple(map(tuple.__new__, repeat(_Gen), ops))
        vars(w).update(n=n, gens=gens, modulus=modulus)
        return w

    def __len__(self) -> int:
        return len(self.gens)

    def __add__(self, other: ElementaryWord) -> ElementaryWord:
        if not isinstance(other, ElementaryWord):
            return NotImplemented
        if (self.n, self.modulus) != (other.n, other.modulus):
            raise ValueError("can only concatenate words of equal dimension and ring")
        return ElementaryWord(self.n, self.gens + other.gens, self.modulus)

    def evaluate(self) -> IntMatrix | ModMatrix:
        N = self.modulus
        rows = elementary_product(self.n, self.gens, N)
        return IntMatrix(rows) if N is None else ModMatrix(rows, N)

    def to_text(self) -> str:
        body = ";".join(f"E({i},{j},{a})" for i, j, a in self.gens)
        tag = "Z" if self.modulus is None else f"Z/{self.modulus}"
        return f"{body} | {tag}" if body else f"| {tag}"

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> ElementaryWord:
        body, sep, tag = text.rpartition("|")
        if not sep:
            raise ParseError(f"missing ring tag in word {text!r}")
        tag = tag.strip()
        if tag == "Z":
            modulus = None
        elif tag.startswith("Z/") and tag[2:].isdecimal():
            modulus = int(tag[2:])
        else:
            raise ParseError(f"bad ring tag {tag!r}")
        gens = []
        body = body.strip()
        if body:
            for part in body.split(";"):
                m = _GEN_RE.match(part.strip())
                if not m:
                    raise ParseError(f"bad generator {part.strip()!r}")
                gens.append(tuple(map(int, m.groups())))
        if n is None:
            if not gens:
                raise ParseError("cannot infer dimension of an empty word")
            n = max(max(i, j) for i, j, _ in gens)
        try:
            return cls(n, tuple(gens), modulus)
        except ValueError as e:
            raise ParseError(str(e)) from None


def _word_ops(rows, q: int | None = None) -> list[tuple[int, int, int]]:
    """The word, as its own 1-based (i, j, a), of the rows of a determinant-1
    matrix: over Z when q is None, else over Z/q for a prime power q, where
    the rows may be given unreduced and each a is recorded in (-q, 0). The
    caller has checked the determinant.

    One elimination serves both rings. For each k < n - 1 a pivot of row k
    is found in columns k.., moved onto the diagonal by a signed column swap,
    and its row and column are cleared by unit divisions. Only the pivot rule
    and the pivot's inverse differ:

    * over Z, euclidean column steps shrink row k to one entry (the gcd of
      the row divides the determinant of the active block, so the entry is
      +-1), which leaves nothing of the row to clear. Each round scans the
      row once for the pivot, the least |entry| and the first index on
      ties, and for any other nonzero entry, which it then divides by the
      pivot in ascending column order;
    * over the local ring Z/q, any entry prime to q is a unit and pivots
      directly (one exists, else the determinant would lie in the maximal
      ideal).

    A row that is zero from column k on cannot occur after the determinant
    check; in either ring it raises AssertionError.

    The unit diagonal left over is swept to the identity on slots (k, k+1)
    in turn, each time turning diag(a, b) into diag(1, ab):

        (a 0; 0 b) -> (a a; 0 b) -> (1 a; (a^-1 - 1)b b) -> (1 a; 0 ab) -> (1 0; 0 ab)

    Every step is a row operation row_dst += c*row_src, the left factor
    1 + c*e_{dst,src}, or a column operation col_dst += c*col_src, the right
    factor 1 + c*e_{src,dst}. With L the lefts composed last-to-first and R
    the rights first-to-last, L * X * R = 1, so X is the inverses of the
    lefts in order, then the inverses of the rights reversed. A step works
    on 0-based rows and columns and records -c 1-based; over Z/q it reduces
    c mod q first and skips c = 0. Entries are never reduced, so over Z/q the
    unit test, the sweep's diagonal and the closing check read them mod q.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    lefts: list[tuple[int, int, int]] = []
    rights: list[tuple[int, int, int]] = []

    # Each step records its inverse, the operation the word replays.
    def add_row(dst: int, src: int, c: int) -> None:
        if q:
            c %= q
        if c:
            row, other = m[dst], m[src]
            for col in range(n):
                row[col] += c * other[col]
            lefts.append((dst + 1, src + 1, -c))

    def add_col(dst: int, src: int, c: int) -> None:
        if q:
            c %= q
        if c:
            for row in m:
                row[dst] += c * row[src]
            rights.append((src + 1, dst + 1, -c))

    for k in range(n - 1):
        row = m[k]
        if q is None:
            while True:
                piv = -1
                more = False
                for j in range(k, n):
                    if e := row[j]:
                        if e < 0:
                            e = -e
                        if piv < 0:
                            piv, least = j, e
                        else:
                            more = True
                            if e < least:
                                piv, least = j, e
                if not more:
                    break
                d = row[piv]
                for j in range(k, n):
                    if row[j] and j != piv:
                        add_col(j, piv, -(row[j] // d))
            if piv < 0:
                raise AssertionError("a det-1 row over Z must be nonzero from the diagonal on")
        else:
            for piv in range(k, n):
                if gcd(row[piv], q) == 1:
                    break
            else:
                raise AssertionError("a det-1 row over a local ring must contain a unit")
        if piv != k:  # (col_k, col_piv) -> (col_piv, -col_k)
            add_col(k, piv, 1)
            add_col(piv, k, -1)
            add_col(k, piv, 1)
        ainv = row[k] if q is None else pow(row[k], -1, q)  # units of Z are self-inverse
        for j in range(k + 1, n):
            if row[j]:
                add_col(j, k, -row[j] * ainv)
        for i in range(k + 1, n):
            if m[i][k]:
                add_row(i, k, -m[i][k] * ainv)
    for k in range(n - 1):
        a = m[k][k] if q is None else m[k][k] % q
        if a == 1:
            continue
        b = m[k + 1][k + 1]
        ainv = a if q is None else pow(a, -1, q)
        add_col(k + 1, k, 1)
        add_col(k, k + 1, ainv - 1)
        add_row(k + 1, k, -(ainv - 1) * b)
        add_col(k + 1, k, -a)
    assert is_one_mod(m, q) if q else list(map(tuple, m)) == list(identity_rows(n))
    return lefts + rights[::-1]


def decompose_int(x: IntMatrix) -> ElementaryWord:
    """Certificate of elementary generation for x in SL_n(Z).

    The euclidean elimination of _word_ops, replayed as a word over Z.
    Raises NotUnimodular unless det(x) == 1. The returned word evaluates to
    x exactly.
    """
    require_ring(x, "decompose_int")
    require_det_one(x)
    return ElementaryWord._from_ops(x.n, _word_ops(x.rows))


@functools.lru_cache(maxsize=64)
def _crt_plan(N: int) -> tuple[tuple[int, int], ...]:
    """The (q, e) of each prime-power factor q of N, e its CRT idempotent
    (1 mod q, 0 mod N/q). A tuple of tuples, so every caller can share it."""
    return tuple((p**s, crt_idempotent(p**s, N)) for p, s in factorize(N))


def _mod_ops(y: ModMatrix, name: str) -> list[tuple[int, int, int]]:
    """The word of decompose_mod(y) as its 1-based (i, j, a), each a in [0, N).

    The factors of N and their idempotents come from the cached _crt_plan;
    each local a, which lies in (-q, 0), is lifted to a*e mod N: q*e is 0
    mod N, so that is (a + q)*e mod N too. At a prime power e is 1 and the
    local ops, reduced mod q, are the word. name is the caller's,
    for the error on a matrix over Z or a TracelessMatrix, which is not in SL_n.
    """
    require_ring(y, name, modular=True)
    if not isinstance(y, ModMatrix):
        raise TypeError(f"{name} needs a ModMatrix, got {type(y).__name__}")
    require_det_one(y)
    N = y.modulus
    ops = []
    for q, e in _crt_plan(N):
        ops += [(i, j, a * e % N) for i, j, a in _word_ops(y.rows, q)]
    return ops


def decompose_mod(y: ModMatrix) -> ElementaryWord:
    """Certificate of elementary generation for y in SL_n(Z/N), composite N allowed.

    Splits Z/N into prime-power factors q, decomposes the image of y in each
    factor, then lifts every local generator E(i,j,a) to E(i,j,a*e mod N),
    with e the CRT idempotent of q (1 mod q, 0 mod N/q). The lifted
    generators therefore evaluate to the identity in every foreign factor,
    and their concatenated product equals y by the CRT. At a prime power
    e = 1, so the local word is the word. Raises NotUnimodular unless
    det(y) == 1 in Z/N.
    """
    return ElementaryWord._from_ops(y.n, _mod_ops(y, "decompose_mod"), y.modulus)


def lift_to_int(y: ModMatrix) -> IntMatrix:
    """An integer matrix of determinant 1 that reduces to y mod N.

    Multiplies the operations of decompose_mod(y), with their canonical
    coefficients in [0, N), out over Z without building a word. The result
    is a product of integer elementary matrices, hence has determinant
    exactly 1, and its reduction mod N is y.
    """
    return IntMatrix._wrap(elementary_product(y.n, _mod_ops(y, "lift_to_int")))
