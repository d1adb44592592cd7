"""Finite-quotient witnesses separating matrices from the identity.

Two separation routes are made executable here:

* Across primes: a non-identity X in SL_n(Z) stays non-identity mod any
  prime that does not divide its level, so a reduction mod the smallest such
  prime is a finite-quotient certificate (witness_rf).
* Down one p-chain: inside Gamma(p^k), the map sending 1 + p^k*Y to
  Y mod p lands in the additive group of traceless matrices over Z/p. It is
  a surjective homomorphism with kernel Gamma(p^(k+1)), so it detects
  exactly how deep in the chain a matrix sits. witness_p reads off the depth
  s of its argument and certifies it with a nonzero image in sl_n(Z/p) and a
  p-power quotient order (witnessing residual p-finiteness of Gamma(p)).

phi_general is the same depth-one map at an arbitrary composite level N,
with image in traceless matrices mod N and kernel Gamma(N^2). Both maps,
and witness_p, share one body (_depth_map): the maps check membership in
Gamma(step) first, while witness_p's level has already proved it (and det
x = 1). This module owns the p-chain precondition (_require_chain: p prime,
k >= 1). The laws of both maps, and the congruence x^p in Gamma(p^(k+1))
for x in Gamma(p^k), are checked in the selfcheck registry, not here.

Preimages of both maps are single elementary words, multiplied out by
intmat.elementary_product: 1 + a*step*e_ij for each off-diagonal entry, and
for each diagonal difference a 2x2 block that is itself a short word.

TracelessMatrix, the image type of both maps, is the additive view of the
matrix core in intmat.py: it adds the trace check, zero and is_zero, and
refuses products, which need not stay traceless.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from operator import index

from .errors import BadModulus, IdentityInput, NotInGamma, NotPrime
from .gamma import gamma_level, gamma_member
from .intmat import Frozen, IntMatrix, Rows, SquareMatrix, elementary_product
from .modular import ModMatrix, sl_order_formula
from .primes import is_prime, next_prime

__all__ = [
    "TracelessMatrix",
    "CongruenceWitness",
    "sl_basis",
    "sl_elements",
    "phi_k",
    "phi_preimage",
    "phi_general",
    "phi_general_preimage",
    "witness_rf",
    "witness_p",
]


class TracelessMatrix(SquareMatrix):
    """Element of sl_n(Z/m), m required: entries reduced into [0, m), trace = 0 mod m."""

    __slots__ = ()

    def __init__(self, rows: Rows, modulus: int):
        SquareMatrix.__init__(self, rows, index(modulus))
        if self.trace() != 0:
            raise ValueError("trace must vanish mod the modulus")

    @classmethod
    def zero(cls, n: int, modulus: int) -> TracelessMatrix:
        n, modulus = _sl_shape(n, modulus)
        return cls(tuple((0,) * n for _ in range(n)), modulus)

    def is_zero(self) -> bool:
        return all(e == 0 for r in self.rows for e in r)

    def __add__(self, other: TracelessMatrix) -> TracelessMatrix:
        if isinstance(other, TracelessMatrix) and (self.n, self.modulus) != (other.n, other.modulus):
            raise ValueError("can only add traceless matrices of equal shape and modulus")
        return SquareMatrix.__add__(self, other)

    def __mul__(self, other):
        return NotImplemented

    __pow__ = __mul__


def _sl_shape(n: int, modulus: int) -> tuple[int, int]:
    """n and m of sl_n(Z/m) through operator.index: m >= 2, then n >= 1."""
    if (modulus := index(modulus)) < 2:
        raise BadModulus(f"modulus must be >= 2, got {modulus}")
    if (n := index(n)) < 1:
        raise ValueError("dimension must be >= 1")
    return n, modulus


def sl_basis(n: int, modulus: int) -> tuple[TracelessMatrix, ...]:
    """The n^2 - 1 standard generators of sl_n(Z/m): off-diagonal matrix
    units e_ij plus the adjacent diagonal differences e_ii - e_(i+1)(i+1)."""
    n, modulus = _sl_shape(n, modulus)

    def unit(*cells: tuple[int, int, int]) -> TracelessMatrix:
        rows = [[0] * n for _ in range(n)]
        for i, j, value in cells:
            rows[i][j] = value
        return TracelessMatrix(tuple(map(tuple, rows)), modulus)

    off_diagonal = [unit((i, j, 1)) for i in range(n) for j in range(n) if i != j]
    return (*off_diagonal, *(unit((i, i, 1), (i + 1, i + 1, -1)) for i in range(n - 1)))


def sl_elements(n: int, modulus: int) -> Iterator[TracelessMatrix]:
    """All m^(n^2 - 1) elements of sl_n(Z/m); the last diagonal entry is
    forced by tracelessness. Intended for small exhaustive checks."""
    n, modulus = _sl_shape(n, modulus)
    for flat in itertools.product(range(modulus), repeat=n * n - 1):
        # row-major, so the first n - 1 diagonal entries sit at i * (n + 1)
        entries = (*flat, -sum(flat[i * (n + 1)] for i in range(n - 1)) % modulus)
        # reduced and traceless by construction, so the checks are skipped
        yield TracelessMatrix._wrap(tuple(entries[r * n : (r + 1) * n] for r in range(n)), modulus)


def _require_chain(p: int, k: int = 1) -> None:
    """Refuse a p that is not prime, then a chain depth k below 1."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("chain depth k must be >= 1")


def _depth_map(x: IntMatrix, step: int, m: int) -> TracelessMatrix:
    """The depth map on Gamma(step): x = 1 + step*Y goes to Y mod m. The
    caller has checked that x lies in Gamma(step)."""
    return TracelessMatrix(
        tuple(tuple((e - (i == j)) // step for j, e in enumerate(row)) for i, row in enumerate(x.rows)), m
    )


def _power_text(p: int, k: int) -> str:
    """p^k in full, or named "p^k" (and never built) past 4300 digits, as
    the enumeration cap names a size."""
    if (p.bit_length() - 1) * k < 14285 and (q := p**k) < 10**4300:  # 10^4300 has 14285 bits
        return str(q)
    return f"{p}^{k}"


def phi_k(x: IntMatrix, p: int, k: int) -> TracelessMatrix:
    """Depth map on Gamma(p^k): send x = 1 + p^k*Y to Y mod p.

    A homomorphism into sl_n(Z/p) (the trace vanishes mod p because
    det x = 1) whose kernel is exactly Gamma(p^(k+1)).

    An x != 1 in Gamma(p^k) has p^k <= max |x - 1| < 2^b, b the bit length
    of that largest entry. As p^k >= 2^((bits of p - 1) * k), once that
    exponent reaches b only the identity is left; Gamma(2^b) holds it and
    nothing else, so it stands in for Gamma(p^k), and p^k is never built.
    """
    _require_chain(p, k)
    p, k = index(p), index(k)
    b = max(abs(e - (i == j)).bit_length() for i, row in enumerate(x.rows) for j, e in enumerate(row))
    step = 1 << b if (p.bit_length() - 1) * k >= b else p**k
    if not gamma_member(x, step):
        raise NotInGamma(f"matrix is not congruent to 1 mod {_power_text(p, k)}")
    return _depth_map(x, step, p)


def _step_preimage(t: TracelessMatrix, name: str, p: int | None = None, depth: int = 1) -> IntMatrix:
    """Element of Gamma(step), step = m^depth for m = t.modulus, whose depth-map
    image is t, as one elementary word. A t that is not a TracelessMatrix is a
    TypeError naming the caller; then, when p is given, m != p is a ValueError.

    Built additively from generator preimages: 1 + a*step*e_ij hits a*e_ij.
    For the diagonal, the block (1+c, c; -c, 1-c) at slots (k, k+1), written
    as the word E(k,k+1,-1) E(k+1,k,-c) E(k,k+1,1), has determinant 1 and
    depth-map image e_kk - e_(k+1)(k+1) + e_k(k+1) - e_(k+1)k when c = step;
    two off-diagonal preimages cancel the off-diagonal part. With c = a*step
    for the partial sums a of t's diagonal, the differences telescope to the
    right diagonal.
    """
    if not isinstance(t, TracelessMatrix):
        raise TypeError(f"{name} needs a TracelessMatrix, got {type(t).__name__}")
    n, m = t.n, t.modulus
    if p is not None and m != p:
        raise ValueError(f"target lives mod {m}, expected mod {p}")
    step = m**depth
    ops = [
        (i, j, a * step)
        for i, row in enumerate(t.rows, 1)
        for j, a in enumerate(row, 1)
        if i != j and a
    ]
    for k, partial in enumerate(itertools.accumulate(t.rows[i][i] for i in range(n - 1)), 1):
        if c := partial % m * step:
            ops += [(k, k + 1, -1), (k + 1, k, -c), (k, k + 1, 1), (k, k + 1, -c), (k + 1, k, c)]
    return IntMatrix._wrap(elementary_product(n, ops))


def phi_preimage(t: TracelessMatrix, p: int, k: int) -> IntMatrix:
    """Constructive surjectivity of phi_k: an element of Gamma(p^k) mapping to t."""
    p, k = index(p), index(k)
    _require_chain(p, k)
    return _step_preimage(t, "phi_preimage", p, k)


def phi_general(x: IntMatrix, N: int) -> TracelessMatrix:
    """Depth map on Gamma(N) for arbitrary N >= 2: x = 1 + N*Y goes to Y mod N.

    A homomorphism onto sl_n(Z/N) with kernel Gamma(N^2).
    """
    if (N := index(N)) < 2:
        raise BadModulus(f"level must be >= 2, got {N}")
    if not gamma_member(x, N):
        raise NotInGamma(f"matrix is not congruent to 1 mod {N}")
    return _depth_map(x, N, N)


def phi_general_preimage(t: TracelessMatrix) -> IntMatrix:
    """Element of Gamma(N) mapping to t under phi_general, N = t.modulus."""
    return _step_preimage(t, "phi_general_preimage")


class CongruenceWitness(Frozen):
    """A finite quotient separating `target` from the identity.

    For kind "residual-finite" the quotient is SL_n(Z/p) and the image is the
    (non-identity) reduction of the target. For kind "residual-p-finite" the
    quotient is the p-group Gamma(p)/Gamma(p^(s+1)) and the image is the
    nonzero value of the depth map phi_s in sl_n(Z/p).
    """

    __match_args__ = ("kind", "prime", "level", "quotient_order", "image", "target")

    def __init__(self, kind: str, prime: int, level: int, quotient_order: int,
                 image: ModMatrix | TracelessMatrix, target: IntMatrix):
        vars(self).update(zip(self.__match_args__, (kind, prime, level, quotient_order, image, target)))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "prime": self.prime,
            "level": self.level,
            "quotient_order": str(self.quotient_order),
            "image": self.image.to_text(),
        }


def _separable_level(x: IntMatrix) -> int:
    """gamma_level(x), refusing the identity (level 0) with IdentityInput."""
    if level := gamma_level(x):
        return level
    raise IdentityInput("the identity is not separated from itself")


def witness_rf(x: IntMatrix) -> CongruenceWitness:
    """Residual-finiteness witness: reduction mod the smallest prime that
    does not divide the level of x. Raises IdentityInput for x == 1."""
    level = _separable_level(x)
    p = 2
    while level % p == 0:
        p = next_prime(p)
    image = ModMatrix(x.rows, p)
    assert not image.is_identity()
    return CongruenceWitness(kind="residual-finite", prime=p, level=p,
                             quotient_order=sl_order_formula(x.n, p), image=image, target=x)


def witness_p(x: IntMatrix, p: int) -> CongruenceWitness:
    """Residual-p-finiteness witness for x in Gamma(p).

    Reads the exact depth s of x in the p-chain (the p-adic valuation of its
    level), then certifies x against the quotient Gamma(p)/Gamma(p^(s+1)),
    whose order is a power of p, via the nonzero image phi_s(x).
    """
    _require_chain(p)
    level = _separable_level(x)
    if level % p != 0:
        raise NotInGamma(f"matrix is not congruent to 1 mod {p}")
    step = p  # p^s for the depth s
    while level % (step * p) == 0:
        step *= p
    image = _depth_map(x, step, p)  # the level has checked det x = 1 and x in Gamma(step)
    assert not image.is_zero()
    # |Gamma(p) / Gamma(p^(s+1))| = |SL_n(Z/p^(s+1))| / |SL_n(Z/p)| = p^(s(n^2 - 1))
    return CongruenceWitness(kind="residual-p-finite", prime=p, level=step * p,
                             quotient_order=step ** (x.n * x.n - 1), image=image, target=x)
