"""Elementary-generator words and constructive decomposition into them.

A word is an ordered product of elementary matrices 1 + a*e_ij. Two
decomposition routines produce such certificates:

* decompose_int reduces a determinant-1 integer matrix to the identity by
  euclidean row/column operations and replays the inverse operations as a
  word over Z.
* decompose_mod splits Z/N into prime-power factors Z/q, decomposes each
  local image by unit pivoting (any entry outside (p) is a unit there and
  can pivot directly), and multiplies each local coefficient by the CRT
  idempotent of its factor, so it acts trivially in every other factor.
  One path serves every N; at a prime power the idempotent is 1.

lift_to_int turns a mod-N word into an integer matrix, which is what makes
the reduction map SL_n(Z) -> SL_n(Z/N) surjective in an executable sense.
Evaluating a word, over Z or Z/N, is intmat.elementary_product on its
generators.

Column swaps needed during reduction are emitted as three elementary
operations realizing the signed swap (c_k, c_j) -> (c_j, -c_k), so every
certificate consists of elementary generators only. No attempt is made to
minimize word length; a decomposition is a certificate, not an optimizer.
Reduction keeps pivot choices deterministic (smallest absolute value, then
smallest index), so equal inputs always yield identical words.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .errors import ParseError
from .intmat import IntMatrix, _reduce, elementary_product, identity_rows, require_det_one
from .modular import ModMatrix, crt_idempotent
from .primes import factorize

__all__ = [
    "ElementaryGen",
    "ElementaryWord",
    "decompose_int",
    "decompose_mod",
    "lift_to_int",
]

_GEN_RE = re.compile(r"E\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(-?\d+)\s*\)$")


@dataclass(frozen=True)
class ElementaryGen:
    """One generator 1 + a*e_ij with 1-based off-diagonal position (i, j)."""

    i: int
    j: int
    a: int

    def __post_init__(self):
        if not type(self.i) is type(self.j) is type(self.a) is int:  # 0.5: TypeError; True -> 1
            for name in ("i", "j", "a"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.i < 1 or self.j < 1:
            raise ValueError(f"generator position ({self.i},{self.j}) must be 1-based")
        if self.i == self.j:
            raise ValueError("elementary generator requires i != j")

    def inverse(self) -> ElementaryGen:
        return ElementaryGen(self.i, self.j, -self.a)

    def to_text(self) -> str:
        return f"E({self.i},{self.j},{self.a})"


@dataclass(frozen=True)
class ElementaryWord:
    """An ordered product of elementary generators over Z or over Z/N.

    modulus None means the word lives over Z; otherwise coefficients are kept
    reduced into [0, modulus). Evaluation is the left-to-right product.
    """

    n: int
    gens: tuple[ElementaryGen, ...]
    modulus: int | None = None

    def __post_init__(self):
        # operator.index, as in the matrix core: n = 2.5 or Z/5.5 is a TypeError.
        n = operator.index(self.n)
        m = self.modulus
        gens = tuple(self.gens)
        if m is not None:
            if (m := operator.index(m)) < 2:
                raise ValueError(f"word modulus must be >= 2, got {m}")
            gens = tuple(g if 0 <= g.a < m else ElementaryGen(g.i, g.j, g.a % m) for g in gens)
        for g in gens:
            if g.i > n or g.j > n:
                raise ValueError(f"generator {g.to_text()} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "modulus", m)

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
        rows = elementary_product(self.n, ((g.i - 1, g.j - 1, g.a) for g in self.gens), N)
        return IntMatrix(rows) if N is None else ModMatrix(rows, N)

    def to_text(self) -> str:
        body = ";".join(g.to_text() for g in self.gens)
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
                try:
                    gens.append(ElementaryGen(int(m.group(1)), int(m.group(2)), int(m.group(3))))
                except ValueError as e:
                    raise ParseError(str(e)) from None
        if n is None:
            if not gens:
                raise ParseError("cannot infer dimension of an empty word")
            n = max(max(g.i, g.j) for g in gens)
        try:
            return cls(n, tuple(gens), modulus)
        except ValueError as e:
            raise ParseError(str(e)) from None


class _Reducer:
    """Mutable working matrix that records the row/column operations applied.

    add_row(dst, src, c) performs row_dst += c*row_src, i.e. multiplies by
    1 + c*e_{dst,src} on the left; add_col(dst, src, c) performs
    col_dst += c*col_src, i.e. multiplies by 1 + c*e_{src,dst} on the right.
    Once the matrix is reduced to the identity, word_ops() replays the
    inverses as the 0-based (i, j, a), a unreduced, of the word that
    reconstructs the original matrix.
    """

    def __init__(self, rows, modulus: int | None = None):
        self.m = [list(r) for r in _reduce(rows, modulus)]
        self.n = len(self.m)
        self.modulus = modulus
        self._lefts: list[tuple[int, int, int]] = []  # (i, j, c) for E_ij(c) on the left
        self._rights: list[tuple[int, int, int]] = []  # (i, j, c) for E_ij(c) on the right

    def _norm(self, c: int) -> int:
        return c if self.modulus is None else c % self.modulus

    def add_row(self, dst: int, src: int, c: int) -> None:
        c = self._norm(c)
        if c == 0:
            return
        m = self.m
        for col in range(self.n):
            m[dst][col] = self._norm(m[dst][col] + c * m[src][col])
        self._lefts.append((dst, src, c))

    def add_col(self, dst: int, src: int, c: int) -> None:
        c = self._norm(c)
        if c == 0:
            return
        m = self.m
        for row in range(self.n):
            m[row][dst] = self._norm(m[row][dst] + c * m[row][src])
        self._rights.append((src, dst, c))

    def swap_cols_signed(self, k: int, j: int) -> None:
        """(col_k, col_j) -> (col_j, -col_k) as three elementary column operations."""
        self.add_col(k, j, 1)
        self.add_col(j, k, -1)
        self.add_col(k, j, 1)

    def is_identity(self) -> bool:
        return [tuple(r) for r in self.m] == list(identity_rows(self.n))

    def word_ops(self) -> list[tuple[int, int, int]]:
        # The recorded operations give L * X * R = 1 with L the left ops
        # composed last-to-first and R the right ops composed first-to-last,
        # so X = (inverses of lefts, in order) * (inverses of rights, reversed).
        return [(i, j, -c) for i, j, c in self._lefts + self._rights[::-1]]


def _cleanup_diagonal(red: _Reducer, inv) -> None:
    """Turn a diagonal matrix of unit entries and determinant 1 into the identity.

    Works on adjacent slots (k, k+1) in ascending order, each time converting
    diag(a, b) into diag(1, a*b):

        (a 0; 0 b) -> (a a; 0 b) -> (1 a; (a^-1 - 1)b b) -> (1 a; 0 ab) -> (1 0; 0 ab)
    """
    m, n = red.m, red.n
    for k in range(n - 1):
        a = m[k][k]
        if a == 1:
            continue
        b = m[k + 1][k + 1]
        ainv = inv(a)
        red.add_col(k + 1, k, 1)
        red.add_col(k, k + 1, ainv - 1)
        red.add_row(k + 1, k, -(ainv - 1) * b)
        red.add_col(k + 1, k, -a)


def decompose_int(x: IntMatrix) -> ElementaryWord:
    """Certificate of elementary generation for x in SL_n(Z).

    Euclidean reduction: repeated division with remainder shrinks the active
    row to a single entry (necessarily +-1, since the gcd of the row divides
    the determinant of the active block), a signed column swap moves it onto
    the diagonal, and row operations clear the column below. The final
    diagonal of +-1 entries is swept to the identity via _cleanup_diagonal.
    Raises NotUnimodular unless det(x) == 1. The returned word evaluates to
    x exactly.
    """
    require_det_one(x)
    n = x.n
    red = _Reducer(x.rows)
    m = red.m
    for k in range(n - 1):
        while True:
            nz = [j for j in range(k, n) if m[k][j] != 0]
            piv = min(nz, key=lambda j: (abs(m[k][j]), j))
            rest = [j for j in nz if j != piv]
            if not rest:
                break
            for j in rest:
                q = m[k][j] // m[k][piv]
                red.add_col(j, piv, -q)
        if piv != k:
            red.swap_cols_signed(k, piv)
        a = m[k][k]
        assert abs(a) == 1, "pivot of a unimodular block must be a unit"
        for i in range(k + 1, n):
            if m[i][k]:
                red.add_row(i, k, -m[i][k] * a)
    _cleanup_diagonal(red, lambda a: a)  # units of Z are self-inverse
    assert red.is_identity()
    return ElementaryWord(n, tuple(ElementaryGen(i + 1, j + 1, a) for i, j, a in red.word_ops()))


def _decompose_local(rows, q: int, p: int) -> list[tuple[int, int, int]]:
    """The 0-based (i, j, a) of a word over Z/q, q = p^k with p prime, for
    the rows of an element of SL_n(Z/q); the rows may be given unreduced,
    and so are the returned coefficients.

    Over the local ring Z/p^k any entry not divisible by p is invertible, so
    no euclidean loop is needed: pick a unit in the active row (such an entry
    exists, else the determinant would be divisible by p), swap it onto the
    diagonal, and clear its row and column with exact unit divisions. The
    caller has checked that the determinant is 1 mod q.
    """
    n = len(rows)
    red = _Reducer(rows, modulus=q)
    m = red.m
    for k in range(n - 1):
        piv = next((j for j in range(k, n) if m[k][j] % p != 0), None)
        assert piv is not None, "a det-1 row over a local ring must contain a unit"
        if piv != k:
            red.swap_cols_signed(k, piv)
        ainv = pow(m[k][k], -1, q)
        for j in range(k + 1, n):
            if m[k][j]:
                red.add_col(j, k, -m[k][j] * ainv)
        for i in range(k + 1, n):
            if m[i][k]:
                red.add_row(i, k, -m[i][k] * ainv)
    _cleanup_diagonal(red, lambda a: pow(a, -1, q))
    assert red.is_identity()
    return red.word_ops()


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
    require_det_one(y)
    N = y.modulus
    gens = []
    for p, s in factorize(N):
        q = p**s
        e, local = crt_idempotent(q, N), _decompose_local(y.rows, q, p)
        gens += [ElementaryGen(i + 1, j + 1, a * e % N) for i, j, a in local]
    return ElementaryWord(y.n, tuple(gens), modulus=N)


def lift_to_int(y: ModMatrix) -> IntMatrix:
    """An integer matrix of determinant 1 that reduces to y mod N.

    Decomposes y into elementary generators over Z/N and reads the same word
    over Z with the canonical coefficients in [0, N). The result is a product
    of integer elementary matrices, hence has determinant exactly 1, and its
    reduction mod N is y.
    """
    word = decompose_mod(y)
    integer_word = ElementaryWord(word.n, word.gens)
    return integer_word.evaluate()
