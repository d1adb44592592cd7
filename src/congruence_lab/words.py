"""Elementary-generator words and constructive decomposition into them.

A word is an ordered product of elementary matrices 1 + a*e_ij, each given
by its 1-based (i, j, a). A word from outside (the constructor, from_text,
+) is checked once, by ElementaryWord; the decompositions' own words are
not checked again.

Over Z/N at n = 2 the word is one closed formula (_mod_ops): Z/N is
semilocal, so it has stable range 1, and y is a product of at most 4
elementary factors, found without factoring N.

Every other word comes from one elimination, _word_ops, over Z or over a
local ring Z/q (q a prime power), which also serves the tests as the oracle
of the 2x2 formula. It reduces a determinant-1 matrix to the identity by
elementary row and column operations and replays their inverses as the
word. The two rings differ only in how a row finds its pivot:

* decompose_int shrinks the row by euclidean division with remainder until
  one entry, necessarily +-1, is left: its own inverse, and its row is then
  clear, so the clearing shared with Z/q adds no operation to the word;
* decompose_mod at n >= 3 splits Z/N into prime-power factors Z/q and
  pivots on any entry prime to q, a unit there. Each local coefficient is
  recorded already multiplied by the CRT idempotent e of its factor and
  reduced mod N, so it acts trivially in every other factor and the word of
  Z/N is the local words joined; at a prime power e is 1 and N is q. The
  factors of N and their idempotents come from primes._crt_plan, cached per
  modulus.

lift_to_int multiplies the operations of that mod-N word out over Z, which
makes the reduction map SL_n(Z) -> SL_n(Z/N) surjective in an executable
sense. Every operation is the word's own 1-based (i, j, a), over Z/N with
its a already reduced, so evaluating a word, over Z or Z/N, and lifting are
both intmat.elementary_product on those triples as they are.

Column swaps are emitted as three elementary operations realizing the
signed swap (c_k, c_j) -> (c_j, -c_k). Only the 2x2 words over Z/N have a
length bound; the elimination is a certificate, not an optimizer. Every
choice is deterministic (over Z the pivot of smallest absolute value, then
smallest index; over Z/q the first unit; at n = 2 over Z/N the least t), so
equal inputs always yield identical words.
"""
from __future__ import annotations

import operator
import re
from collections import namedtuple
from itertools import repeat
from math import gcd

from .errors import ParseError
from .intmat import (Frozen, IntMatrix, ModMatrix, _rebuild, elementary_product, identity_rows,
                     is_one_mod, require_det_one, require_ring)
from .primes import _crt_plan

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

    The generators are triples of ints (i, j, a), the generator 1 + a*e_ij
    with 1 <= i, j <= n and i != j, checked here (built in range, by _wrap,
    for the decompositions) and stored as plain tuples, the record state
    (n, triples, modulus) that ==, hash and pickle read. gens is a read-only
    view of them as named tuples with fields i, j and a, equal to the plain
    triples (so the hash is that of (n, gens, modulus)), built into a slot on
    first read. Slots, set through their descriptors as in SquareMatrix, and
    no instance dict. modulus None means the word lives over Z; otherwise
    coefficients are kept reduced into [0, modulus). Evaluation is the
    left-to-right product.
    """

    __slots__ = ("n", "_ops", "modulus", "_gens")
    __match_args__ = ("n", "gens", "modulus")

    def __init__(self, n: int, gens: tuple[tuple[int, int, int], ...], modulus: int | None = None):
        # operator.index, as in the matrix core: n = 2.5, Z/5.5 or a = 0.5 is a TypeError.
        index = operator.index
        n = index(n)
        m = modulus
        if m is not None and (m := index(m)) < 2:
            raise ValueError(f"word modulus must be >= 2, got {m}")
        checked = []
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
            checked.append((i, j, a))
        if n < 1:  # checked last: with n < 1 every generator fails above, with its own message
            raise ValueError("dimension must be >= 1")
        _set_n(self, n)
        _set_ops(self, tuple(checked))
        _set_modulus(self, m)

    @classmethod
    def _wrap(cls, n: int, ops, modulus: int | None = None) -> ElementaryWord:
        """Unchecked: the word of in-range, reduced (i, j, a), as this module and _rebuild give them."""
        w = object.__new__(cls)
        _set_n(w, n)
        _set_ops(w, tuple(ops))
        _set_modulus(w, modulus)
        return w

    @property
    def gens(self) -> tuple[_Gen, ...]:
        if (gens := getattr(self, "_gens", None)) is None:  # the first read
            _set_gens(self, gens := tuple(map(tuple.__new__, repeat(_Gen), self._ops)))
        return gens

    def __reduce__(self):
        return _rebuild, (self.__class__, self.n, self._ops, self.modulus)

    def __len__(self) -> int:
        return len(self._ops)

    def __add__(self, other: ElementaryWord) -> ElementaryWord:
        if not isinstance(other, ElementaryWord):
            return NotImplemented
        if (self.n, self.modulus) != (other.n, other.modulus):
            raise ValueError("can only concatenate words of equal dimension and ring")
        return ElementaryWord(self.n, self._ops + other._ops, self.modulus)

    def evaluate(self) -> IntMatrix | ModMatrix:
        N = self.modulus
        rows = elementary_product(self.n, self._ops, N)
        return IntMatrix(rows) if N is None else ModMatrix(rows, N)

    def to_text(self) -> str:
        body = ";".join(f"E({i},{j},{a})" for i, j, a in self._ops)
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


_set_n, _set_ops, _set_modulus, _set_gens = (vars(ElementaryWord)[f].__set__ for f in ElementaryWord.__slots__)


def _word_ops(rows, q: int | None = None, e: int | None = None, N: int | None = None) -> list[tuple[int, int, int]]:
    """The word, as its own 1-based (i, j, a), of the rows of a determinant-1
    matrix: over Z without q, e and N, else over Z/q for a prime power factor
    q of N, where the rows may be given unreduced. Over Z/q each a is lifted
    to Z/N by e, the CRT idempotent of q, as _crt_plan gives them: a step c
    records -c*e mod N, in [0, N), at a prime power (e = 1, N = q) -c mod q.
    The caller has checked the determinant.

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
    on 0-based rows and columns and records its inverse 1-based: -c over Z;
    over Z/q it reduces c mod q first, skips c = 0 and records -c*e mod N.
    The euclidean column step, the hot one over Z, is add_col written
    inline. Over Z/q the active block, rows and columns k.., is reduced mod
    q at the start of each round after the first, which bounds the growth
    of the entries later steps read; every decision depends on entries only
    mod q, so the unit test, the sweep's diagonal and the closing check read
    them mod q.
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
            lefts.append((dst + 1, src + 1, -c * e % N if q else -c))

    def add_col(dst: int, src: int, c: int) -> None:
        if q:
            c %= q
        if c:
            for row in m:
                row[dst] += c * row[src]
            rights.append((src + 1, dst + 1, -c * e % N if q else -c))

    for k in range(n - 1):
        row = m[k]
        if q is None:
            while True:
                piv = -1
                more = False
                for j in range(k, n):
                    if v := row[j]:
                        if v < 0:
                            v = -v
                        if piv < 0:
                            piv, least = j, v
                        else:
                            more = True
                            if v < least:
                                piv, least = j, v
                if not more:
                    break
                d = row[piv]
                for j in range(k, n):
                    if row[j] and j != piv:  # add_col(j, piv, -c); c != 0 as |row[j]| >= |d|
                        c = row[j] // d
                        for r in m:
                            r[j] -= c * r[piv]
                        rights.append((piv + 1, j + 1, c))
            if piv < 0:
                raise AssertionError("a det-1 row over Z must be nonzero from the diagonal on")
        else:
            if k:  # the first round reads the caller's entries as they are
                for r in m[k:]:
                    r[k:] = [e % q for e in r[k:]]
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
    return ElementaryWord._wrap(x.n, _word_ops(x.rows))


def _mod_ops(y: ModMatrix, name: str) -> list[tuple[int, int, int]]:
    """The word of decompose_mod(y) as its 1-based (i, j, a), each a in [0, N).

    A 2x2 ModMatrix has its det-1 test inline and its word from the stable
    range of Z/N, without factoring N. For y = (a b; c d):

    * a = 1: y = E21(c) E12(b), as d = 1 + bc;
    * else the column (a, c) is unimodular, so c + t*a is a unit for some
      t in [0, N): by the CRT, t only has to avoid one class mod each prime
      p | N that does not divide a (at p | a, c is a unit mod p). With t the
      least, c' = c + t*a, d' = d + t*b, u = (a - 1)/c' and w = (d' - 1)/c':
      E21(t) y = (a b; c' d') = E12(u) E21(c') E12(w), its (1,2) entry by
      det 1, so y = E21(-t) E12(u) E21(c') E12(w).

    Each a is reduced into [0, N) and a zero one dropped, so the identity has
    the empty word and no word more than 4 ops. A column with no unit c + t*a
    cannot occur after the det-1 test; reached anyway, it raises
    AssertionError. Any other y is checked by require_ring, its class and
    require_det_one, in that order, and joins the words of _word_ops over the
    cached _crt_plan. A refusal is require_det_one's either way; name is the
    caller's, for the error on a matrix over Z or a TracelessMatrix.
    """
    if y.__class__ is ModMatrix and len(y.rows) == 2:
        (a, b), (c, d) = y.rows
        N = y.modulus
        if (a * d - b * c) % N != 1:
            require_det_one(y)
        if a == 1:  # entries are reduced into [0, N)
            ops = (2, 1, c), (1, 2, b)
        else:
            for t in range(N):
                if gcd(c + t * a, N) == 1:
                    break
            else:
                raise AssertionError("a det-1 column over Z/N must be unimodular")
            c = (c + t * a) % N
            cinv = pow(c, -1, N)
            ops = (2, 1, -t % N), (1, 2, (a - 1) * cinv % N), (2, 1, c), (1, 2, (d + t * b - 1) * cinv % N)
        return [op for op in ops if op[2]]
    require_ring(y, name, modular=True)
    if not isinstance(y, ModMatrix):
        raise TypeError(f"{name} needs a ModMatrix, got {type(y).__name__}")
    require_det_one(y)
    N = y.modulus
    return [op for _, _, q, e in _crt_plan(N) for op in _word_ops(y.rows, q, e, N)]


def decompose_mod(y: ModMatrix) -> ElementaryWord:
    """Certificate of elementary generation for y in SL_n(Z/N), composite N allowed.

    At n = 2 the stable-range word of _mod_ops: at most 4 generators, and N
    is not factored. At n >= 3, splits Z/N into prime-power factors q and
    decomposes the image of y in each factor, recording every local
    generator E(i,j,a) as E(i,j,a*e mod N), with e the CRT idempotent of q
    (1 mod q, 0 mod N/q). The lifted generators therefore evaluate to the
    identity in every foreign factor, and their concatenated product equals
    y by the CRT. At a prime power e = 1, so the local word is the word.
    Raises NotUnimodular unless det(y) == 1 in Z/N.
    """
    return ElementaryWord._wrap(y.n, _mod_ops(y, "decompose_mod"), y.modulus)


def lift_to_int(y: ModMatrix) -> IntMatrix:
    """An integer matrix of determinant 1 that reduces to y mod N.

    Multiplies the ops _mod_ops gives for decompose_mod(y), each a in
    [0, N), out over Z, without building a word; y is refused as there. The
    result is a product of integer elementary matrices, hence has
    determinant exactly 1, and its reduction mod N is y.

    At n = 2 every entry lies in [0, (N-1)^4 + 3(N-1)^2 + 1], below N^4.
    In the notation of _mod_ops the word is E21(s) E12(u) E21(c') E12(w),
    s = -t mod N, with each coefficient in [0, N - 1] and some of them 0
    (at a = 1, s = c, u = b and c' = w = 0). Its product is

        (1 + uc'          u + w + uc'w               )
        (s + c' + suc'    1 + su + sw + c'w + suc'w  )

    Every term is nonnegative, so no entry exceeds the last one at
    s = u = c' = w = N - 1, which is the bound. That needs t = 1, c' = -1
    and a = 1 + uc' = 2, so c = -3, which must not be a unit for t = 0 to
    fail: the bound is reached exactly when 3 | N, at y = (2 -3; -3 5).
    """
    return IntMatrix._wrap(elementary_product(y.n, _mod_ops(y, "lift_to_int")))
