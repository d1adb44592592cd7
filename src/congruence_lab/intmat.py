"""Exact arithmetic for square matrices over Z and over Z/N.

SquareMatrix is the one matrix core: rows plus a ring tag, with modulus None
meaning Z (the convention of ElementaryWord). It alone validates rows and
holds the product, power, det, trace, identity test and text. IntMatrix
(here), ModMatrix (modular.py) and TracelessMatrix (witnesses.py) are thin
subclasses that add only what differs between the rings.

Entries are plain Python ints, so products, determinants, and inverses are
computed without overflow or rounding. Matrices are immutable and hashable;
all operations return new values. require_det_one is the one statement of
the determinant-1 precondition, shared by inverse, the Gamma(N) maps,
matrix_order and the decompositions over Z and Z/N.

Text format (used by the CLI and test fixtures): rows separated by ';',
entries by ',', e.g. "1,2;0,1" for [[1,2],[0,1]]. Whitespace is insignificant
and negative entries are permitted.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from operator import add, mul

from .errors import BadModulus, DimensionMismatch, NotUnimodular, ParseError

__all__ = ["IntMatrix", "sample_sl"]

# Bound on |a| for the random elementary matrices 1 + a*e_ij of the samplers.
_COEFF_BOUND = 5

_INT_RE = re.compile(r"-?\d+$")

Rows = tuple[tuple[int, ...], ...]


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


def det_of_rows(rows: Rows) -> int:
    """Exact determinant; closed forms up to 3x3, Bareiss above."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return _det_bareiss(rows)


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable square matrix over Z (modulus None) or over Z/N, N >= 2.

    The one implementation behind IntMatrix, ModMatrix and TracelessMatrix,
    which keep only what differs. Over Z/N the entries are kept reduced into
    [0, N). The public constructor validates and reduces its input; results
    built here are already in that form and go through _wrap unchecked.
    Slots, not a per-instance dict: the enumerations build millions of these.
    """

    __slots__ = ("rows", "modulus")
    rows: Rows
    modulus: int | None

    def __post_init__(self):
        N = self.modulus
        if N is not None and N < 2:
            raise BadModulus(f"modulus must be >= 2, got {N}")
        rows = _reduce(tuple(tuple(map(int, r)) for r in self.rows), N)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError(f"{type(self).__name__} requires a non-empty square array of entries")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _wrap(cls, rows: Rows, modulus: int | None = None):
        """Wrap a square tuple of tuples whose entries are already reduced."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "modulus", modulus)
        return m

    def __reduce__(self):
        # Default unpickling and copying set slots by setattr, which frozen refuses.
        return self._wrap, (self.rows, self.modulus)

    @staticmethod
    def _product(a: Rows, b: Rows, N: int | None) -> Rows:
        cols = tuple(zip(*b))
        if N is None:
            return tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in a)
        return tuple(tuple(sum(map(mul, r, c)) % N for c in cols) for r in a)

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
        return self._wrap(self._product(self.rows, other.rows, self.modulus), self.modulus)

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
        N = self.modulus
        result, base = identity_rows(self.n), self.rows
        while e:
            if e & 1:
                result = self._product(result, base, N)
            if e > 1:
                base = self._product(base, base, N)
            e >>= 1
        return self._wrap(result, N)

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


@dataclass(frozen=True, init=False)
class IntMatrix(SquareMatrix):
    """Immutable square matrix over Z."""

    __slots__ = ()
    modulus: None = field(init=False, repr=False)

    def __init__(self, rows: Rows):
        SquareMatrix.__init__(self, rows, None)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(identity_rows(n))

    @classmethod
    def elementary(cls, n: int, i: int, j: int, a: int) -> IntMatrix:
        """The elementary matrix 1 + a*e_ij (1-based indices, i != j)."""
        if i == j:
            raise ValueError("elementary matrix requires i != j")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"elementary position ({i},{j}) out of range for n={n}")
        rows = [list(r) for r in identity_rows(n)]
        rows[i - 1][j - 1] = int(a)
        return cls(rows)

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
        if n == 1:
            return self  # det 1 makes it the identity
        # entry (i, j) is the signed minor with row j and column i struck out
        return self._wrap(
            tuple(
                tuple(
                    (-1) ** (i + j)
                    * det_of_rows(tuple(r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j))
                    for j in range(n)
                )
                for i in range(n)
            )
        )


def require_det_one(x: SquareMatrix) -> None:
    """Raise NotUnimodular unless det(x) == 1, over Z/N when x has a modulus."""
    d = x.det()
    if d != 1:
        where = "" if x.modulus is None else f" mod {x.modulus}"
        raise NotUnimodular(f"determinant is {d}{where}, expected 1")


def random_elementary_rows(n: int, length: int, rng: random.Random, scale: int = 1) -> Rows:
    """Rows of a product of `length` random elementary matrices 1 + scale*a*e_ij.

    Coefficients satisfy 1 <= |a| <= _COEFF_BOUND. Used by sample_sl and by the
    congruence-subgroup sampler (scale = N yields elements of Gamma(N)).
    """
    rows = [list(r) for r in identity_rows(n)]
    if n == 1:
        return identity_rows(1)
    for _ in range(length):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        a = rng.randint(1, _COEFF_BOUND) * scale
        if rng.randrange(2):
            a = -a
        for r in range(n):
            rows[r][j] += a * rows[r][i]
    return tuple(tuple(r) for r in rows)


def sample_sl(n: int, length: int, seed: int) -> IntMatrix:
    """Deterministic pseudo-random element of SL_n(Z).

    Returns the product of `length` random elementary matrices with
    coefficients 1 <= |a| <= 5; the same seed always yields the same matrix.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    rng = random.Random(seed)
    return IntMatrix(random_elementary_rows(n, length, rng))
