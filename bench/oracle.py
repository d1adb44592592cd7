"""Independent arithmetic used to check every output the benchmark receives.

Nothing here calls into congruence_lab, except that decomposition words are
parsed back with ElementaryWord.from_text (the public text format is part of
what is checked). Matrices are tuples of row tuples of ints; a modulus of None
means the integers. The algorithms are deliberately different from the
production ones where that is cheap: Leibniz and fraction elimination for
determinants, iterated multiplication for finite orders, Minkowski's
reduction mod 3 for infinite orders, and a closed form for |SL_n(Z/N)| that
the library does not use.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import sys
from fractions import Fraction


class OracleError(AssertionError):
    """An output of the program disagrees with the oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


@contextlib.contextmanager
def unlimited_int_text():
    """Lift CPython's int<->str digit limit inside the block only."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------- matrices


def identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def reduce(rows, N: int) -> tuple:
    return tuple(tuple(e % N for e in r) for r in rows)


def mul(a, b, N: int | None = None) -> tuple:
    cols = list(zip(*b))
    if N is None:
        return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in cols) for r in a)
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) % N for c in cols) for r in a)


def power(a, e: int, N: int | None = None) -> tuple:
    result = identity(len(a)) if N is None else reduce(identity(len(a)), N)
    base = a
    while e:
        if e & 1:
            result = mul(result, base, N)
        e >>= 1
        if e:
            base = mul(base, base, N)
    return result


def det(rows) -> int:
    """Leibniz expansion up to 4x4, exact fraction elimination above."""
    n = len(rows)
    if n <= 4:
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for a in range(n):
                for b in range(a + 1, n):
                    if perm[a] > perm[b]:
                        sign = -sign
            prod = sign
            for i in range(n):
                prod *= rows[i][perm[i]]
            total += prod
        return total
    m = [[Fraction(e) for e in r] for r in rows]
    result = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            result = -result
        result *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    expect(result.denominator == 1, "determinant of an integer matrix is not an integer")
    return int(result)


def block_diag(blocks, n: int) -> tuple:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    at = 0
    for b in blocks:
        for i, r in enumerate(b):
            for j, e in enumerate(r):
                rows[at + i][at + j] = e
        at += len(b)
    return tuple(tuple(r) for r in rows)


def text(rows) -> str:
    return ";".join(",".join(str(e) for e in r) for r in rows)


def parse(matrix_text: str) -> tuple[tuple, int | None]:
    """Parse "a,b;c,d" or "a,b;c,d mod N" into (rows, modulus)."""
    body, _, mod = matrix_text.partition("mod")
    rows = tuple(tuple(int(t) for t in r.split(",")) for r in body.strip().split(";"))
    return rows, (int(mod) if mod.strip() else None)


def level(rows) -> int:
    """gcd of the entries of X - 1; 0 for the identity."""
    g = 0
    for i, r in enumerate(rows):
        for j, e in enumerate(r):
            g = math.gcd(g, e - (i == j))
    return g


def member(rows, N: int) -> bool:
    return all((e - (i == j)) % N == 0 for i, r in enumerate(rows) for j, e in enumerate(r))


def depth_image(rows, step: int, p: int) -> tuple:
    """Y mod p for X = 1 + step*Y."""
    expect(member(rows, step), f"matrix is not congruent to 1 mod {step}")
    return tuple(tuple(((e - (i == j)) // step) % p for j, e in enumerate(r)) for i, r in enumerate(rows))


# ---------------------------------------------------------- number theory

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by small trial division, then Pollard rho."""
    out: dict[int, int] = {}
    for p in range(2, 1000):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def sl_count(n: int, N: int) -> int:
    """|SL_n(Z/N)| = prod over p^s || N of p^((s-1)(n^2-1) + n(n-1)/2) * prod_{k=2..n} (p^k - 1)."""
    total = 1
    for p, s in factorize(N).items():
        total *= p ** ((s - 1) * (n * n - 1) + n * (n - 1) // 2)
        for k in range(2, n + 1):
            total *= p**k - 1
    return total


def prime_in(lo: int, hi: int, rng: random.Random) -> int:
    while True:
        c = rng.randrange(lo, hi) | 1
        if is_prime(c):
            return c


# ------------------------------------------------------------------ orders


def finite_order_mod(rows, N: int, limit: int = 100_000) -> int:
    """Order of a matrix over Z/N by iterated multiplication."""
    one = reduce(identity(len(rows)), N)
    x = reduce(rows, N)
    y, k = x, 1
    while y != one:
        y = mul(y, x, N)
        k += 1
        expect(k <= limit, f"order mod {N} exceeds {limit}")
    return k


def check_order(rows, claimed: int | None) -> None:
    """A finite claim k needs x^k = 1 and x^(k/q) != 1 for every prime q | k.

    An infinite claim is certified by a power whose trace exceeds n (finite
    order forces every eigenvalue onto the unit circle), or else by
    Minkowski: the kernel of reduction mod 3 is torsion-free, so a finite
    order would equal the order mod 3, and x to that power is not 1.
    """
    n = len(rows)
    one = identity(n)
    if claimed is not None:
        expect(claimed >= 1 and power(rows, claimed) == one, f"x^{claimed} != 1")
        for q in factorize(claimed):
            expect(power(rows, claimed // q) != one, f"x^{claimed // q} == 1, so the order is below {claimed}")
        return
    y = rows
    for _ in range(4):
        if abs(sum(y[i][i] for i in range(n))) > n:
            return
        y = mul(y, rows)
    k = finite_order_mod(rows, 3)
    expect(power(rows, k) != one, f"claimed infinite, but x^{k} == 1")


def spectrum(n: int, N: int) -> frozenset[int]:
    """Element orders of SL_n(Z/N) by walking every entry tuple."""
    orders = set()
    for flat in itertools.product(range(N), repeat=n * n):
        rows = tuple(flat[r * n : (r + 1) * n] for r in range(n))
        if det(rows) % N == 1:
            orders.add(finite_order_mod(rows, N))
    return frozenset(orders)


# ------------------------------------------------------------------- words


def evaluate_gens(n: int, gens, N: int | None) -> tuple:
    """Product of elementary matrices 1 + a*e_ij, left to right."""
    rows = [list(r) for r in identity(n)]
    for i, j, a in gens:
        for r in rows:
            r[j - 1] += a * r[i - 1]
            if N is not None:
                r[j - 1] %= N
    return tuple(tuple(r) for r in rows)


def check_word_text(word_text: str, n: int, rows, N: int | None) -> int:
    """Parse a word back with the public parser and evaluate it here.

    Returns the word length.
    """
    from congruence_lab import ElementaryWord

    word = ElementaryWord.from_text(word_text, n)
    expect(word.n == n and word.modulus == N, f"word {word_text[:40]!r} has the wrong ring or size")
    gens = [(g.i, g.j, g.a) for g in word.gens]
    target = rows if N is None else reduce(rows, N)
    expect(evaluate_gens(n, gens, N) == target, "word does not evaluate to its input")
    return len(gens)
