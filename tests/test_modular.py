import pytest
from hypothesis import given

from congruence_lab import (
    BadModulus,
    CapExceeded,
    IntMatrix,
    ModMatrix,
    crt_combine,
    enumerate_sl,
    mod_spectrum,
    sl_order_formula,
)

from congruence_lab.primes import factorize

from tests.helpers import brute_force_sl, unimodular_matrices


@pytest.mark.parametrize(
    "N,factors",
    [
        (12, ((2, 2), (3, 1))),
        (7, ((7, 1),)),
        (360, ((2, 3), (3, 2), (5, 1))),
        (2, ((2, 1),)),
        (1024, ((2, 10),)),
    ],
)
def test_crt_split(N, factors):
    # the prime-power split of N that every CRT route in the library uses
    assert tuple(factorize(N)) == factors


def test_crt_combine():
    assert crt_combine([(1, 2), (2, 3)]) == 5
    x = crt_combine([(0, 4), (3, 9), (1, 5)])
    assert x % 4 == 0 and x % 9 == 3 and x % 5 == 1 and 0 <= x < 180


def test_mod_reduce_examples():
    assert ModMatrix(IntMatrix([[2, 1], [1, 1]]).rows, 2) == ModMatrix([[0, 1], [1, 1]], 2)
    for n in (1, 2, 3):
        assert ModMatrix(IntMatrix.identity(n).rows, 7).is_identity()


def test_mod_reduce_negative_entries():
    assert ModMatrix(IntMatrix([[-1, -7], [3, -2]]).rows, 5).rows == ((4, 3), (3, 3))


@given(unimodular_matrices(2), unimodular_matrices(2))
def test_mod_reduce_homomorphism(x, y):
    for N in (2, 3, 4, 6, 9):
        assert ModMatrix((x * y).rows, N) == ModMatrix(x.rows, N) * ModMatrix(y.rows, N)


def test_enumerate_sl22_explicit():
    expected = [
        ModMatrix(((0, 1), (1, 0)), 2),
        ModMatrix(((0, 1), (1, 1)), 2),
        ModMatrix(((1, 0), (0, 1)), 2),
        ModMatrix(((1, 0), (1, 1)), 2),
        ModMatrix(((1, 1), (0, 1)), 2),
        ModMatrix(((1, 1), (1, 0)), 2),
    ]
    assert enumerate_sl(2, 2) == expected


def test_enumerate_sl1_is_trivial():
    for N in (2, 5, 9):
        assert enumerate_sl(1, N) == [ModMatrix(((1,),), N)]


def test_enumerate_sl32_count():
    assert len(enumerate_sl(3, 2)) == 168


def test_enumerate_dets_are_one():
    assert all(m.det() == 1 for m in enumerate_sl(2, 5))


def test_enumeration_is_lexicographically_sorted():
    flat = [sum(m.rows, ()) for m in enumerate_sl(2, 4)]
    assert flat == sorted(flat)


def test_cap_exceeded_carries_required_value():
    with pytest.raises(CapExceeded) as exc:
        enumerate_sl(3, 12)
    assert exc.value.requested == 12**9
    assert exc.value.cap == 10_000_000
    assert str(exc.value.requested) in str(exc.value)


@pytest.mark.parametrize("n,N", [(2, N) for N in range(2, 13)] + [(3, N) for N in (2, 3, 4)])
def test_enumerate_sl_matches_brute_force(n, N):
    assert enumerate_sl(n, N) == brute_force_sl(n, N)


WALKS = [enumerate_sl, mod_spectrum]


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize(
    "n,N,cap", [(2, 10, 9999), (2, 6, 1295), (2, 8, 4095), (3, 12, None), (1, 7, 6)]
)
def test_cap_is_checked_on_n_squared_entry_space(walk, n, N, cap):
    with pytest.raises(CapExceeded) as exc:
        walk(n, N, cap=cap)
    assert exc.value.requested == N ** (n * n)
    assert exc.value.cap == (10_000_000 if cap is None else cap)


@pytest.mark.parametrize("walk", WALKS)
def test_cap_equal_to_entry_space_is_enough(walk):
    for n, N in [(2, 10), (2, 6), (2, 8), (1, 7)]:
        walk(n, N, cap=N ** (n * n))


@pytest.mark.parametrize("walk", WALKS)
def test_walks_reject_bad_arguments(walk):
    for N in (1, 0, -3):
        with pytest.raises(BadModulus):
            walk(2, N)
    # BadModulus is not a ValueError; (0, 1) shows the dimension is checked first
    for n, N in [(0, 5), (-1, 5), (0, 1)]:
        with pytest.raises(ValueError):
            walk(n, N)


def test_cap_override():
    assert len(enumerate_sl(2, 2, cap=16)) == 6
    with pytest.raises(CapExceeded):
        enumerate_sl(2, 2, cap=15)


@pytest.mark.parametrize(
    "n,N,expected",
    [(2, 2, 6), (2, 3, 24), (3, 2, 168), (2, 6, 144), (2, 1, 1), (3, 1, 1), (1, 7, 1)],
)
def test_sl_order_formula_values(n, N, expected):
    assert sl_order_formula(n, N) == expected


def test_sl_order_formula_matches_enumeration():
    for n, N in [(2, N) for N in range(2, 9)] + [(3, 2), (3, 3)]:
        assert sl_order_formula(n, N) == len(enumerate_sl(n, N))


def test_sl_order_crt_multiplicative():
    for n in (2, 3):
        for N in range(2, 61):
            expected = 1
            for p, s in factorize(N):
                expected *= sl_order_formula(n, p**s)
            assert sl_order_formula(n, N) == expected


def test_prime_power_tower_identity():
    # |SL_n(Z/p^k)| == p^((k-1)(n^2-1)) * |SL_n(Z/p)|, checked by enumeration
    for n, p, k in [(2, 2, 2), (2, 2, 3), (2, 3, 2)]:
        count = len(enumerate_sl(n, p**k))
        assert count == p ** ((k - 1) * (n * n - 1)) * len(enumerate_sl(n, p))


def test_modmatrix_text_roundtrip():
    y = ModMatrix(((0, 1), (1, 1)), 2)
    assert y.to_text() == "0,1;1,1 mod 2"
    assert ModMatrix.from_text("0,1;1,1 mod 2") == y
    assert ModMatrix.from_text(" 0 , 1 ; 1 , 1   mod  2 ") == y


def test_modmatrix_entries_reduced():
    y = ModMatrix(((5, -1), (7, 3)), 4)
    assert y.rows == ((1, 3), (3, 3))


def test_modmatrix_power():
    y = ModMatrix(((1, 1), (0, 1)), 5)
    assert y**5 == ModMatrix.identity(2, 5)
    assert y**0 == ModMatrix.identity(2, 5)
    with pytest.raises(ValueError):
        y**-1


def test_modmatrix_modulus_mismatch():
    with pytest.raises(ValueError):
        ModMatrix.identity(2, 2) * ModMatrix.identity(2, 3)


def test_modmatrix_bad_modulus():
    with pytest.raises(BadModulus):
        ModMatrix(((1,),), 1)
    with pytest.raises(BadModulus):
        sl_order_formula(2, 0)
