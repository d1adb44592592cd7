"""Exact arithmetic for square matrices over Z and over Z/N.

The row kernel, which every algorithm calls, works on tuples of rows over Z
or Z/N: product_of_rows (m rows times an n x n b), power_of_rows,
det_of_rows, cofactors (det(top + (x,)) = c.x) and elementary_product
(products of 1 + a*e_ij, each given by the 1-based (i, j, a) of an
elementary word). Each has a generic route, and closed forms only where a
workload runs them:

    product_of_rows     2x2 over Z (minkowski_probe) and Z/N (mod_spectrum),
                        3x3 over Z/N (enumerate_sl at n = 3)
    det_of_rows         2x2 (the SL_2 det-1 checks), 3x3 (the SL_3 ones and
                        cofactors at n = 4), 4x4 (decompose_int at n = 4)
    elementary_product  2x2 over Z (lift_to_int and the samplers)

The det over Z/N is det_of_rows reduced mod N. The classes wrap the kernel's
results; IntMatrix.inverse is the one fraction-free Gauss-Jordan pass over
[x | 1], O(n^3) as the Bareiss det above 4x4 (cofactors serves only the
last-row solves of modular._sl_rows over Z/N and torsion._congruence_kernel).
Two integer helpers are stated here once for every module: level_of_rows,
the gcd of the entries of rows - 1 (gamma_level, the kernel orders of
mod_spectrum), and power_below, which builds b^e only below a bound (the
enumeration cap, phi_k's depth and the sizes named as "b^e").

SquareMatrix is the one matrix core: rows plus a ring tag, with modulus None
meaning Z (the convention of ElementaryWord). It alone validates rows and
holds the product, power, det, trace, identity test and text. IntMatrix and
ModMatrix (here) and TracelessMatrix (witnesses.py) are thin subclasses
that add only what differs between the rings.

Entries are plain Python ints, so products, determinants, and inverses are
computed without overflow or rounding. Matrices are immutable and hashable;
all operations return new values. require_det_one (require_det_one_rows on
bare rows) is the one statement of the determinant-1 precondition, shared by
the Gamma(N) maps, matrix_order, minkowski_probe and the decompositions over
Z and Z/N; inverse reads the determinant off its own elimination and refuses
it with the same message (_not_unimodular). require_ring states their other
precondition once: a matrix over the wrong ring is a TypeError, never an
answer about a residue representative.

Text format (used by the CLI and test fixtures): rows separated by ';',
entries by ',', e.g. "1,2;0,1" for [[1,2],[0,1]]. Whitespace is insignificant
and negative entries are permitted.
"""

from __future__ import annotations

import functools
import math
import re
from collections import deque
from itertools import repeat
from operator import add, index, mul

from .errors import BadModulus, DimensionMismatch, NotUnimodular, ParseError

__all__ = ["IntMatrix", "ModMatrix", "sample_sl"]

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
        top = m[k]
        piv = top[k]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * piv - a * top[j]) // prev
        prev = piv
    return sign * m[n - 1][n - 1]


def product_of_rows(a: Rows, b: Rows, N: int | None = None) -> Rows:
    """Rows of the product a*b of m rows of length n and n x n rows b, over Z,
    or over Z/N reduced into [0, N) when N is given. A closed form, one
    comprehension over the rows of a, at 2x2 over Z (minkowski_probe) and
    over Z/N (mod_spectrum) and at 3x3 over Z/N (the cofactor tables of
    enumerate_sl at n = 3); zip and sum for the rest."""
    n = len(b)
    if n == 2:
        (b0, b1), (b2, b3) = b
        if N is None:
            return tuple([(x * b0 + y * b2, x * b1 + y * b3) for x, y in a])
        return tuple([((x * b0 + y * b2) % N, (x * b1 + y * b3) % N) for x, y in a])
    if n == 3 and N is not None:
        (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
        return tuple([((x * b0 + y * b3 + z * b6) % N, (x * b1 + y * b4 + z * b7) % N,
                       (x * b2 + y * b5 + z * b8) % N) for x, y, z in a])
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
    """Exact determinant; closed forms up to 4x4, Bareiss above; 1 for no rows.

    The 2x2 form serves the SL_2 det-1 checks, the 3x3 one the SL_3 ones and
    cofactors at n = 4, the 4x4 one decompose_int's det-1 check at n = 4:
    the Laplace expansion along the first two rows, each 2x2 minor of those
    rows times the complementary minor of the last two, signed."""
    n = len(rows)
    if n <= 1:
        return rows[0][0] if n else 1
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
        return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2) - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1) + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0) + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
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


def _rebuild(cls, *state):  # the one callable every record's __reduce__ names
    return cls._wrap(*state)


class Frozen:
    """Base of the immutable value classes and their one record protocol.
    __reduce__ names the stored state, by default the __match_args__ fields,
    as (_rebuild, (cls, *state)) for cls._wrap, by default the constructor;
    == compares that state, hash hashes it without cls, and pickle rebuilds
    from it. copy and deepcopy return the record itself, as for a tuple: every
    record is immutable and holds only immutable values (tuples, ints, strs
    and other records). Written out by hand so that the package imports
    neither inspect nor ast; reprs, messages and FrozenInstanceError match the
    stdlib's."""

    __slots__ = ()

    @classmethod
    def _wrap(cls, *state):
        return cls(*state)

    def __reduce__(self):
        return _rebuild, (self.__class__, *[getattr(self, f) for f in self.__match_args__])

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__()[1] == other.__reduce__()[1]

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1][1:])

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
    built here are already in that form and go through _wrap unchecked, or
    _wrap_all for a whole list of them. Its record state: (rows, modulus).
    Slots, not a dict, as in ElementaryWord: enumerations build millions of these.
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
        """Wrap already reduced square rows; the slot descriptors skip Frozen's
        __setattr__, here, in _wrap_all and in __init__ only."""
        m = object.__new__(cls)
        _set_rows(m, rows)
        _set_modulus(m, modulus)
        return m

    @classmethod
    def _wrap_all(cls, rows_list: list[Rows], modulus: int | None = None) -> list:
        """_wrap over a list of already reduced rows, as three passes of map
        run in C, with no Python call per element: enumerate_sl wraps every
        element of a group."""
        ms = list(map(object.__new__, repeat(cls, len(rows_list))))
        deque(map(_set_rows, ms, rows_list), 0)
        deque(map(_set_modulus, ms, repeat(modulus)), 0)
        return ms

    def __reduce__(self):
        # The slots read directly: the hot path of list == and set() over an enumeration.
        return _rebuild, (self.__class__, self.rows, self.modulus)

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
        """Integer inverse; NotUnimodular, with require_det_one's message, unless det == 1.

        One fraction-free Gauss-Jordan pass over [x | 1] (Bareiss, Math. Comp.
        22, 1968). Column k pivots on the first nonzero entry at or below row
        k, swapped up with a sign flip; a column with none means det 0. Every
        other row becomes (p*row - row[k]*pivot) // prev, prev the previous
        pivot (1 at first). The divisions are exact: by Sylvester's identity
        each entry after step k is a (k+1)-minor of the row-swapped [x | 1].
        So the last pivot is sign * det, and at the end the left block is that
        times 1: for det 1 the right one is sign * x^-1. n steps over n - 1
        rows of 2n entries: O(n^3) operations on entries no larger than minors
        of x."""
        n = self.n
        m = [[*r, *e] for r, e in zip(self.rows, identity_rows(n))]
        sign = prev = 1
        for k in range(n):
            if not m[k][k]:
                r = next((r for r in range(k + 1, n) if m[r][k]), None)
                if r is None:
                    raise _not_unimodular(0)
                m[k], m[r] = m[r], m[k]
                sign = -sign
            pivot = m[k]
            p = pivot[k]
            for i, row in enumerate(m):
                if i != k:
                    c = row[k]
                    m[i] = [(p * a - c * b) // prev for a, b in zip(row, pivot)]
            prev = p
        if sign * prev != 1:
            raise _not_unimodular(sign * prev)
        return self._wrap(tuple([tuple([sign * e for e in row[n:]]) for row in m]))


class ModMatrix(SquareMatrix):
    """Immutable square matrix over Z/N with entries reduced into [0, N). It adds
    to the core only the identity of a given modulus and the "a,b;c,d mod N" parser."""

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


def is_one_mod(rows: Rows, N: int) -> bool:
    """True iff N divides every entry of rows - 1; the caller has checked N and the det."""
    for i, row in enumerate(rows):  # plain loops: no generator to set up on a hot path
        for j, e in enumerate(row):
            if (e - (i == j)) % N:
                return False
    return True


def level_of_rows(rows: Rows, N: int = 0) -> int:
    """gcd of N and the entries of rows - 1: the level of rows over Z for N = 0
    (0 for the identity), and the largest divisor of N it is 1 mod."""
    return math.gcd(N, *[e - (i == j) for i, r in enumerate(rows) for j, e in enumerate(r)])


def power_below(b: int, e: int, limit: int | None = None) -> int | None:
    """b^e if it is below limit, else None. The default limit is 10^4300,
    below which a power is written in full; past it (4301 digits pass
    CPython's default int -> str limit) a size is named as "b^e". As
    b^e >= 2^((bits of b - 1) * e), a power whose bound reaches the bit
    length of limit is never built."""
    bits = 14285 if limit is None else limit.bit_length()  # 10^4300 has 14285 bits
    if (b.bit_length() - 1) * e < bits and (q := b**e) < (10**4300 if limit is None else limit):
        return q
    return None


def require_det_one(x: SquareMatrix) -> None:
    """Raise NotUnimodular unless det(x) == 1, over Z/N when x has a modulus."""
    require_det_one_rows(x.rows, x.modulus)


def require_ring(x: SquareMatrix, name: str, modular: bool = False, hint: str = "") -> None:
    """Raise TypeError unless x lives over Z/N when modular is true, else over Z."""
    if (x.modulus is not None) != modular:
        ring = "Z" if x.modulus is None else f"Z/{x.modulus}"
        raise TypeError(f"{name} works over {'Z/N' if modular else 'Z'}, not {ring}{hint}")


def require_det_one_rows(rows: Rows, N: int | None = None) -> None:
    """require_det_one on bare rows, over Z/N when N is given."""
    d = det_of_rows(rows) if N is None else det_of_rows(rows) % N
    if d != 1:
        raise _not_unimodular(d, N)


def _not_unimodular(d: int, N: int | None = None) -> NotUnimodular:
    """The one refusal of a determinant d != 1, over Z/N when N is given."""
    return NotUnimodular(f"determinant is {d}{'' if N is None else f' mod {N}'}, expected 1")


def elementary_product(n: int, ops, N: int | None = None) -> Rows:
    """Rows of the left-to-right product of 1 + a*e_ij over 1-based (i, j, a),
    the generators of an elementary word as they are.

    Right-multiplying by 1 + a*e_ij adds a times column i to column j, so the
    product costs n multiply-adds per factor. At 2x2 over Z, for lift_to_int
    and the samplers, a closed form on four locals: (1, 2, a) adds a times
    column 1 to column 2, any other op a times column 2 to column 1.
    Otherwise each working row carries an unused column 0, so i and j index
    it directly. Every i != j must lie in 1..n: an index of 0 raises nothing
    and silently gives a wrong product (i = 0 adds nothing, j = 0 writes into
    the discarded column). Over Z/N (N given) every entry is reduced as it
    changes, so entries stay in [0, N) however long ops is.
    """
    if n == 2 and N is None:  # the rows (a b; c d)
        a, b, c, d = 1, 0, 0, 1
        for i, _, t in ops:
            if i == 1:
                b += t * a
                d += t * c
            else:
                a += t * b
                c += t * d
        return ((a, b), (c, d))
    rows = [[0, *r] for r in identity_rows(n)]
    if N is None:
        for i, j, a in ops:
            for r in rows:
                r[j] += a * r[i]
    else:
        for i, j, a in ops:
            for r in rows:
                r[j] = (r[j] + a * r[i]) % N
    return tuple([tuple(r[1:]) for r in rows])


def random_elementary_rows(n: int, length: int, rng, scale: int = 1) -> Rows:
    """Rows of a product of `length` random elementary matrices 1 + scale*a*e_ij.

    Coefficients satisfy 1 <= |a| <= _COEFF_BOUND. Used by sample_sl and by the
    congruence-subgroup sampler (scale = N yields elements of Gamma(N)). At
    n = 1 there is no off-diagonal position, and no draw is made.

    n and length pass through operator.index first. Each factor draws i in
    1..n, j in 1..n-1 (shifted past i), |a| in 1.._COEFF_BOUND, then a sign,
    each below its count w as randrange draws it on CPython 3.10-3.13: by
    getrandbits(w.bit_length()) until < w (w = 1 spends a bit, w = 2 two).
    """
    n, length = index(n), index(length)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    if n == 1:
        return identity_rows(1)
    bits = rng.getrandbits
    kn, kj, ka = n.bit_length(), (n - 1).bit_length(), _COEFF_BOUND.bit_length()
    ops = []
    for _ in range(length):
        while (i := bits(kn) + 1) > n: pass
        while (j := bits(kj) + 1) >= n: pass
        if j >= i:
            j += 1
        while (a := bits(ka) + 1) > _COEFF_BOUND: pass
        while (sign := bits(2)) >= 2: pass
        ops.append((i, j, -a * scale if sign else a * scale))
    return elementary_product(n, ops)


def sample_sl(n: int, length: int, seed: int) -> IntMatrix:
    """Deterministic pseudo-random element of SL_n(Z).

    Returns the product of `length` random elementary matrices with
    coefficients 1 <= |a| <= 5; the same seed always yields the same matrix,
    drawn from random.Random(seed).getrandbits as random_elementary_rows says.
    """
    import random  # here, not at the top: only the samplers draw
    return IntMatrix(random_elementary_rows(n, length, random.Random(seed)))
