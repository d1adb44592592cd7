"""Factoring and primality against oracles that share no code with primes.py.

Trial division up to sqrt(n) (tests/helpers.py) decides every n below
2*10^4 and picks the primes that the product tests multiply, so those
products have known factorizations. sympy, when installed, decides the
20-24 digit inputs. The pinned strong pseudoprimes pass every shorter
prefix of the library's 13 bases.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import BadModulus
from congruence_lab.primes import _trial_division, euler_phi, factorize, is_prime, next_prime

from tests.helpers import factorize_by_trial_division, is_prime_by_trial_division

SMALL_PRIMES = [p for p in range(2, 1000) if is_prime_by_trial_division(p)]
# psi_9 passes the strong test to the bases 2..23, psi_12 to 2..37, psi_13 to 2..41.
PSI_9 = 3825123056546413051
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def _prime_at_or_above(n: int) -> int:
    while not is_prime_by_trial_division(n):
        n += 1
    return n


def test_agrees_with_trial_division_up_to_2e4():
    primes = [n for n in range(2, 20_100) if is_prime_by_trial_division(n)]
    for n in range(1, 20_001):
        assert factorize(n) == factorize_by_trial_division(n), n
        assert is_prime(n) == (n in primes), n
    for a, b in zip(primes, primes[1:]):
        assert next_prime(a) == next_prime(b - 1) == b
    assert [is_prime(n) for n in (-7, 0, 1)] == [False] * 3
    with pytest.raises(ValueError):
        factorize(0)


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 10**8))
def test_is_prime_on_multiples_of_small_primes(p, m):
    assert is_prime(p * m) == is_prime_by_trial_division(p * m)


def test_is_prime_stops_trial_division_at_the_first_factor():
    # one division settles 2 * (10^17 + 3); all d < 1000 took 300 times as long
    assert _trial_division(2 * (10**17 + 3), first=True) == ([(2, 1)], 10**17 + 3, False)
    assert _trial_division(2 * 3 * 5 * 7, first=True)[0] == [(2, 1)]
    assert _trial_division(2 * 3 * 5 * 7) == ([(2, 1), (3, 1), (5, 1)], 7, True)
    assert not is_prime(2 * (10**17 + 3))


def test_float_arguments_are_type_errors():
    # a float is refused, not answered in floats: factorize(12.0) gave [(2, 2), (3.0, 1)]
    for call in (factorize, is_prime, next_prime, euler_phi):
        for n in (12.0, 7.0, 0.5):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call(n)
    assert (factorize(True), is_prime(True), next_prime(True), euler_phi(True)) == ([], False, 2, 1)


def test_euler_phi_counts_units():
    for n in range(1, 400):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


# Primes from below 1000 (trial division's part) and from 10^3..10^7 (the
# cofactor that Miller-Rabin and rho get), so products straddle the handover.
_primes = st.one_of(
    st.sampled_from(SMALL_PRIMES), st.integers(1000, 10**7).map(_prime_at_or_above)
)


@settings(deadline=None)
@given(st.lists(_primes, min_size=1, max_size=6))
def test_products_of_known_primes(ps):
    n = math.prod(ps)
    assert factorize(n) == [(p, ps.count(p)) for p in sorted(set(ps))]
    assert is_prime(n) == (len(ps) == 1)


@settings(deadline=None)
@given(
    st.integers(1000, 10**8).map(_prime_at_or_above),
    st.integers(2, 3),
    st.sampled_from([1, 2, 999, 1009]),
)
def test_prime_powers_above_1000(p, e, k):
    # a square or cube of a prime past trial division, times small primes or p itself
    want = dict(factorize_by_trial_division(k))
    want[p] = want.get(p, 0) + e
    assert factorize(k * p**e) == sorted(want.items())
    assert not is_prime(p**e)


def test_strong_pseudoprimes_are_composite():
    assert factorize(PSI_9) == [(149491, 1), (747451, 1), (34233211, 1)]
    assert factorize(PSI_12) == [(399165290221, 1), (798330580441, 1)]
    assert not is_prime(PSI_9) and not is_prime(PSI_12)
    for n in (PSI_9, PSI_12):
        assert math.prod(p**e for p, e in factorize(n)) == n


def test_outside_the_supported_range_is_bad_modulus():
    # psi_13 and the Mersenne prime 2^89 - 1 pass all 13 bases, and from psi_13
    # on that no longer proves primality.
    for n in (PSI_13, 2**89 - 1):
        with pytest.raises(BadModulus, match="outside the supported range"):
            is_prime(n)
        with pytest.raises(BadModulus, match="outside the supported range"):
            factorize(3 * n)
    assert not is_prime(2**89 + 1)  # composite: a failing base is still exact
    # Two prime factors next to 10^12: rho does not split it within its budget.
    with pytest.raises(BadModulus, match="outside the supported range"):
        factorize(999999999989 * 1000000000039)


def test_agrees_with_sympy_on_20_to_24_digits():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2015)
    for _ in range(25):
        n = rng.randrange(10**19, 10**24)
        assert factorize(n) == sorted(sympy.factorint(n).items()), n
        assert is_prime(n) == sympy.isprime(n), n
    # Products of sympy's primes: a small cofactor times a prime near 10^13, as
    # the benchmark's moduli, and semiprimes whose least factor is past 10^9.
    for _ in range(10):
        k, p = rng.randrange(1, 10**6), sympy.nextprime(rng.randrange(10**12, 10**13))
        assert factorize(k * p) == sorted(sympy.factorint(k).items()) + [(p, 1)]
        p, q = (sympy.nextprime(rng.randrange(10**e, 10 ** (e + 1))) for e in (9, 12))
        assert factorize(p * q) == [(p, 1), (q, 1)] and not is_prime(p * q)
    for e in range(19, 25):
        p = sympy.nextprime(10**e)
        assert factorize(p) == [(p, 1)] and is_prime(p) and next_prime(p - 1) == p
    assert next_prime(10**18) == 10**18 + 3
