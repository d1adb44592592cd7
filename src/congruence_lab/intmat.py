"""Exact arithmetic for square matrices over Z and over Z/N.

The row kernel, which every algorithm calls, works on tuples of rows over Z
or Z/N: product_of_rows, power_of_rows, det_of_rows, cofactors
(det(top + (x,)) = c.x) and elementary_product (products of 1 + a*e_ij).
The classes wrap its results.

SquareMatrix is the one matrix core: rows plus a ring tag, with modulus None
meaning Z (the convention of ElementaryWord). It alone validates rows and
holds the product, power, det, trace, identity test and text. IntMatrix
(here), ModMatrix (modular.py) and TracelessMatrix (witnesses.py) are thin
subclasses that add only what differs between the rings.

Entries are plain Python ints, so products, determinants, and inverses are
computed without overflow or rounding. Matrices are immutable and hashable;
all operations return new values. require_det_one (require_det_one_rows on
bare rows) is the one statement of the determinant-1 precondition, shared by
inverse, the Gamma(N) maps, matrix_order, minkowski_probe and the
decompositions over Z and Z/N.

Text format (used by the CLI and test fixtures): rows separated by ';',
entries by ',', e.g. "1,2;0,1" for [[1,2],[0,1]]. Whitespace is insignificant
and negative entries are permitted.
"""

from __future__ import annotations

import functools
import re
from operator import add, index, mul

from .errors import BadModulus, DimensionMismatch, NotUnimodular, ParseError

__all__ = ["IntMatrix", "sample_sl"]

# Bound on |a| for the random elementary matrices 1 + a*e_ij of the samplers.
_COEFF_BOUND = 5

_INT_RE = re.compile(r"-?\d+$")

Rows = tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=16)  # immutable, so built once per n and shared
def identity_rows(n: int) -> Rows:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _reduce(rows: Rows, N: int | None) -> Rows:
    return rows if N is None else tuple(tuple(e % N for e in r) for r in rows)


def parse_entries(text: str) -> Rows:
    """Parse the bare "a,b;c,d" part of the matrix text format."""
    rows = []
    for row_text in text.split(";"):
        entries = []
        for tok in row_text.split(","):
            tok = tok.strip()
            if not _INT_RE.match(tok):
                raise ParseError(f"bad matrix entry {tok!r}")
            entries.append(int(tok))
        rows.append(tuple(entries))
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParseError(f"matrix text {text!r} is not square")
    return tuple(rows)


def _det_bareiss(rows: Rows) -> int:
    """Fraction-free elimination; every interior division is exact."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def product_of_rows(a: Rows, b: Rows, N: int | None = None) -> Rows:
    """Rows of the product a*b, over Z, or over Z/N reduced into [0, N) when N is given."""
    cols = tuple(zip(*b))
    if N is None:
        return tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in a)
    return tuple(tuple(sum(map(mul, r, c)) % N for c in cols) for r in a)


def power_of_rows(a: Rows, e: int, N: int | None = None) -> Rows:
    """Rows of a^e for e >= 0 by square-and-multiply, over Z or over Z/N as
    product_of_rows; a must already be reduced when N is given."""
    result = None
    while e:
        if e & 1:
            result = a if result is None else product_of_rows(result, a, N)
        e >>= 1
        if e:
            a = product_of_rows(a, a, N)
    return identity_rows(len(a)) if result is None else result


def det_of_rows(rows: Rows) -> int:
    """Exact determinant; closed forms up to 3x3, Bareiss above; 1 for no rows."""
    n = len(rows)
    if n <= 1:
        return rows[0][0] if n else 1
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return _det_bareiss(rows)


def cofactors(top: Rows) -> tuple[int, ...]:
    """The c with det(top + (x,)) = c.x for every row x, where top holds n - 1
    rows of length n: the signed minors of top. cofactors(()) is (1,)."""
    n = len(top) + 1
    minors = (det_of_rows(tuple(r[:j] + r[j + 1 :] for r in top)) for j in range(n))
    return tuple((-1) ** (n - 1 + j) * d for j, d in enumerate(minors))


def _refuse(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # on this error path only
    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


class Frozen:
    """Base of the immutable value classes: equality, hashing and repr over
    the fields named in __match_args__, and no assignment after __init__.
    Written out by hand so that the package imports neither inspect nor ast;
    reprs, messages and FrozenInstanceError match the standard library's."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__match_args__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self.__match_args__))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        _refuse("assign to", name)

    def __delattr__(self, name):
        _refuse("delete", name)


class SquareMatrix(Frozen):
    """Immutable square matrix over Z (modulus None) or over Z/N, N >= 2.

    The one implementation behind IntMatrix, ModMatrix and TracelessMatrix,
    which keep only what differs. Over Z/N the entries are kept reduced into
    [0, N). The public constructor validates and reduces its input; results
    built here are already in that form and go through _wrap unchecked.
    Slots, not a per-instance dict: the enumerations build millions of these.
    """

    __slots__ = ("rows", "modulus")
    __match_args__ = ("rows", "modulus")

    def __init__(self, rows: Rows, modulus: int | None):
        # operator.index, not int: a float, str or Fraction is a TypeError, not truncated.
        N = modulus
        if N is not None and (N := index(N)) < 2:
            raise BadModulus(f"modulus must be >= 2, got {N}")
        rows = _reduce(tuple(tuple(map(index, r)) for r in rows), N)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError(f"{type(self).__name__} requires a non-empty square array of entries")
        _set_rows(self, rows)
        _set_modulus(self, N)

    @classmethod
    def _wrap(cls, rows: Rows, modulus: int | None = None):
        """Wrap already reduced square rows; the slot descriptors skip Frozen's __setattr__."""
        m = object.__new__(cls)
        _set_rows(m, rows)
        _set_modulus(m, modulus)
        return m

    def __reduce__(self):
        # Default unpickling and copying set slots by setattr, which Frozen refuses.
        return self._wrap, (self.rows, self.modulus)

    @property
    def n(self) -> int:
        return len(self.rows)

    def _require_peer(self, other: SquareMatrix, verb: str, joiner: str) -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")
        if len(self.rows) != len(other.rows):
            raise DimensionMismatch(
                f"cannot {verb} {self.n}x{self.n} {joiner} {other.n}x{other.n}"
            )

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_peer(other, "multiply", "by")
        return self._wrap(product_of_rows(self.rows, other.rows, self.modulus), self.modulus)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_peer(other, "add", "and")
        rows = tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows))
        return self._wrap(_reduce(rows, self.modulus), self.modulus)

    def __pow__(self, e: int):
        """Square-and-multiply; negative exponents are refused here."""
        if e < 0:
            raise ValueError(f"negative powers of {type(self).__name__} are not supported")
        return self._wrap(power_of_rows(self.rows, e, self.modulus), self.modulus)

    def det(self) -> int:
        d = det_of_rows(self.rows)
        return d if self.modulus is None else d % self.modulus

    def trace(self) -> int:
        t = sum(self.rows[i][i] for i in range(self.n))
        return t if self.modulus is None else t % self.modulus

    def is_identity(self) -> bool:
        return self.rows == identity_rows(self.n)

    def to_text(self) -> str:
        body = ";".join(",".join(map(str, r)) for r in self.rows)
        return body if self.modulus is None else f"{body} mod {self.modulus}"

    __str__ = to_text


_set_rows, _set_modulus = SquareMatrix.rows.__set__, SquareMatrix.modulus.__set__


class IntMatrix(SquareMatrix):
    """Immutable square matrix over Z."""

    __slots__ = ()
    __match_args__ = ("rows",)  # the modulus is always None, and repr leaves it out

    def __init__(self, rows: Rows):
        SquareMatrix.__init__(self, rows, None)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(identity_rows(n))

    @classmethod
    def from_text(cls, text: str) -> IntMatrix:
        if "mod" in text:
            raise ParseError(f"unexpected modulus suffix in integer matrix {text!r}")
        return cls(parse_entries(text))

    def __mul__(self, other: IntMatrix | int) -> IntMatrix:
        if isinstance(other, int):
            return self._wrap(tuple(tuple(other * e for e in r) for r in self.rows))
        return SquareMatrix.__mul__(self, other)

    def __rmul__(self, other: int) -> IntMatrix:
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        return self + (-1) * other

    def __pow__(self, e: int) -> IntMatrix:
        return self.inverse() ** (-e) if e < 0 else SquareMatrix.__pow__(self, e)

    def inverse(self) -> IntMatrix:
        """Integer inverse via the adjugate; requires det == 1."""
        require_det_one(self)
        n, rows = self.n, self.rows
        # column j of the adjugate: the cofactors of the other rows, signed for moving row j last
        cols = [[(-1) ** (n - 1 - j) * c for c in cofactors(rows[:j] + rows[j + 1 :])] for j in range(n)]
        return self._wrap(tuple(zip(*cols)))


def require_det_one(x: SquareMatrix) -> None:
    """Raise NotUnimodular unless det(x) == 1, over Z/N when x has a modulus."""
    require_det_one_rows(x.rows, x.modulus)


def require_det_one_rows(rows: Rows, N: int | None = None) -> None:
    """require_det_one on bare rows, over Z/N when N is given."""
    d = det_of_rows(rows)
    if N is not None:
        d %= N
    if d != 1:
        where = "" if N is None else f" mod {N}"
        raise NotUnimodular(f"determinant is {d}{where}, expected 1")


def elementary_product(n: int, ops, N: int | None = None) -> Rows:
    """Rows of the left-to-right product of 1 + a*e_ij over 0-based (i, j, a).

    Right-multiplying by 1 + a*e_ij adds a times column i to column j, so the
    product costs n multiply-adds per factor. Over Z/N (N given) every entry
    is reduced as it changes, so entries stay in [0, N) however long ops is.
    """
    rows = [list(r) for r in identity_rows(n)]
    if N is None:
        for i, j, a in ops:
            for r in rows:
                r[j] += a * r[i]
    else:
        for i, j, a in ops:
            for r in rows:
                r[j] = (r[j] + a * r[i]) % N
    return tuple(map(tuple, rows))


def random_elementary_rows(n: int, length: int, rng, scale: int = 1) -> Rows:
    """Rows of a product of `length` random elementary matrices 1 + scale*a*e_ij.

    Coefficients satisfy 1 <= |a| <= _COEFF_BOUND. Used by sample_sl and by the
    congruence-subgroup sampler (scale = N yields elements of Gamma(N)). At
    n = 1 there is no off-diagonal position, and no draw is made.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    if n == 1:
        return identity_rows(1)
    ops = []
    for _ in range(length):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        a = rng.randint(1, _COEFF_BOUND) * scale
        if rng.randrange(2):
            a = -a
        ops.append((i, j, a))
    return elementary_product(n, ops)


def sample_sl(n: int, length: int, seed: int) -> IntMatrix:
    """Deterministic pseudo-random element of SL_n(Z).

    Returns the product of `length` random elementary matrices with
    coefficients 1 <= |a| <= 5; the same seed always yields the same matrix.
    """
    import random  # here, not at the top: only the samplers draw
    return IntMatrix(random_elementary_rows(n, length, random.Random(seed)))
