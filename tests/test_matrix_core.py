"""What IntMatrix, ModMatrix and TracelessMatrix share and what keeps them apart.

The three classes are views of one ring-tagged square-matrix core; these
tests pin the class contracts that a shared implementation could blur:
equality, hashing and products across types, mismatch errors, negative
powers, slots without a dict and modulus validation. test_value_classes.py
covers their immutability with the other records'.
"""

import pytest

from congruence_lab import (
    BadModulus,
    DimensionMismatch,
    IntMatrix,
    ModMatrix,
    TracelessMatrix,
    decompose_int,
    decompose_mod,
    enumerate_sl,
    gamma_level,
    gamma_member,
    lift_to_int,
    matrix_order,
    phi_general,
    phi_k,
    sample_sl,
    witness_p,
    witness_rf,
)

R = ((0, 1), (0, 0))  # traceless, so every class accepts it
MAKERS = [IntMatrix, lambda r: ModMatrix(r, 5), lambda r: TracelessMatrix(r, 5)]


def _one_of_each():
    return [IntMatrix(R), ModMatrix(R, 5), TracelessMatrix(R, 5)]


def test_cross_type_equality_is_false():
    a, b, c = _one_of_each()
    assert a != b and b != a
    assert b != c and c != b
    assert a != c and c != a
    assert ModMatrix(R, 5) != ModMatrix(R, 7)
    assert TracelessMatrix(R, 5) != TracelessMatrix(R, 7)
    assert a != R and b != R


@pytest.mark.parametrize("left", range(3))
@pytest.mark.parametrize("right", range(3))
def test_cross_type_product_raises_type_error(left, right):
    if left == right:
        return
    x, y = _one_of_each()[left], _one_of_each()[right]
    with pytest.raises(TypeError):
        x * y


def test_scalar_multiples_are_integer_only():
    y = ModMatrix(R, 5)
    with pytest.raises(TypeError):
        y * 2
    with pytest.raises(TypeError):
        2 * y
    assert 3 * IntMatrix(R) == IntMatrix(R) * 3 == IntMatrix(((0, 3), (0, 0)))


def test_modmatrix_product_mismatches():
    with pytest.raises(ValueError):
        ModMatrix.identity(2, 2) * ModMatrix.identity(2, 3)
    with pytest.raises(DimensionMismatch):
        ModMatrix.identity(2, 5) * ModMatrix.identity(3, 5)
    # the modulus is compared before the dimension
    with pytest.raises(ValueError):
        ModMatrix.identity(2, 2) * ModMatrix.identity(3, 3)


def test_intmatrix_sum_mismatch():
    with pytest.raises(DimensionMismatch):
        IntMatrix.identity(2) + IntMatrix.identity(3)
    with pytest.raises(TypeError):
        IntMatrix(R) + ModMatrix(R, 5)


def test_traceless_sum_mismatch_is_value_error():
    # ValueError proper: DimensionMismatch is not a ValueError
    with pytest.raises(ValueError):
        TracelessMatrix.zero(2, 3) + TracelessMatrix.zero(3, 3)
    with pytest.raises(ValueError):
        TracelessMatrix.zero(2, 3) + TracelessMatrix.zero(2, 5)
    with pytest.raises(TypeError):
        TracelessMatrix(R, 5) + ModMatrix(R, 5)


def test_traceless_sum_stays_traceless_and_reduced():
    a = TracelessMatrix(((1, 2), (0, 2)), 3)
    s = a + a + a
    assert type(s) is TracelessMatrix
    assert s.is_zero() and s == TracelessMatrix.zero(2, 3)


def test_negative_powers():
    x = sample_sl(3, 8, seed=11)
    for k in range(1, 5):
        assert x**-k == x.inverse() ** k
    with pytest.raises(ValueError):
        ModMatrix(((1, 1), (0, 1)), 5) ** -1


def test_traceless_has_no_product():
    t = TracelessMatrix(R, 5)
    for op in (lambda: t * t, lambda: t**2, lambda: 2 * t, lambda: t * 2):
        with pytest.raises(TypeError):
            op()


def test_hashes_agree_for_equal_values():
    pairs = [
        (IntMatrix([[1, 2], [3, 7]]), IntMatrix(((1, 2), (3, 7)))),
        (ModMatrix(((5, -1), (7, 3)), 4), ModMatrix(((1, 3), (3, 3)), 4)),
        (TracelessMatrix(((4, 1), (0, -1)), 3), TracelessMatrix(((1, 1), (0, 2)), 3)),
        (enumerate_sl(2, 3)[0], ModMatrix(((0, 1), (2, 0)), 3)),
        (ModMatrix((sample_sl(2, 6, 1) ** 3).rows, 7), ModMatrix(sample_sl(2, 6, 1).rows, 7) ** 3),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


def test_products_keep_their_class():
    x = sample_sl(2, 5, seed=3)
    y = ModMatrix(x.rows, 6)
    assert type(x * x) is type(x**3) is type(x - x) is type(x.inverse()) is IntMatrix
    assert type(y * y) is type(y**3) is ModMatrix
    assert all(type(m) is ModMatrix for m in enumerate_sl(2, 4))


@pytest.mark.parametrize("m", _one_of_each(), ids=lambda m: type(m).__name__)
def test_instances_carry_no_dict(m):
    # Millions of these are built by the enumerations; a per-instance dict
    # would cost memory and cyclic-GC time.
    assert not hasattr(m, "__dict__")


@pytest.mark.parametrize("cls", [ModMatrix, TracelessMatrix])
def test_modulus_below_two_is_bad_modulus(cls):
    for N in (1, 0, -3):
        with pytest.raises(BadModulus):
            cls(R, N)
    # the modulus is checked before the shape
    with pytest.raises(BadModulus):
        cls(((1, 2), (3,)), 1)
    with pytest.raises(BadModulus):
        ModMatrix.identity(2, 1)


@pytest.mark.parametrize("make", MAKERS)
def test_non_integral_entries_are_type_errors(make):
    # truncating would make [[1.5, 0.5], [0, 1]] the identity and parse strings
    for rows in ([[1.5, 0.5], [0, 1]], [["7", "0"], ["0", "1"]], [[0, 1.0], [0, 0]]):
        with pytest.raises(TypeError):
            make(rows)
    m = make([[False, True], [0, 0]])  # int subclasses pass and are stored as int
    assert m.rows == R and all(type(e) is int for r in m.rows for e in r)


def test_non_integral_modulus_is_type_error():
    for cls in (ModMatrix, TracelessMatrix):
        for N in (5.5, 5.0, "5"):
            with pytest.raises(TypeError):
                cls(R, N)
    with pytest.raises(BadModulus):  # still checked before the shape
        ModMatrix(((1, 2), (3,)), False)
    y = ModMatrix(((0, -1), (1, 0)), True + 4)
    assert y.modulus == 5 and type(y.modulus) is int and y.det() == 1


@pytest.mark.parametrize("make", MAKERS)
def test_non_square_is_value_error(make):
    for rows in ([[0, 1], [0]], [], [[]]):
        with pytest.raises(ValueError):
            make(rows)


def test_text_of_each_class():
    assert str(IntMatrix(((1, -2), (0, 1)))) == "1,-2;0,1"
    assert str(ModMatrix(((1, -2), (0, 1)), 5)) == "1,3;0,1 mod 5"
    assert str(TracelessMatrix(((1, -2), (0, -1)), 5)) == "1,3;0,4 mod 5"
    assert TracelessMatrix(R, 5).to_text() == ModMatrix(R, 5).to_text()


_MOD5 = ModMatrix(((0, 1), (4, 0)), 5)  # det 1 mod 5; its rows have det -4 over Z
_OVER_Z = IntMatrix(((1, 1), (0, 1)))
_SL5 = TracelessMatrix(((0, 1), (4, 0)), 5)  # additive sl_2(Z/5): its rows have det 1 mod 5


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: decompose_int(_MOD5), "decompose_int works over Z, not Z/5"),
        (lambda: gamma_level(_MOD5), "gamma_level works over Z, not Z/5"),
        (lambda: gamma_member(_MOD5, 2), "gamma_member works over Z, not Z/5"),
        (lambda: phi_k(_MOD5, 2, 1), "gamma_member works over Z, not Z/5"),
        (lambda: phi_general(_MOD5, 2), "gamma_member works over Z, not Z/5"),
        (lambda: witness_rf(_MOD5), "gamma_level works over Z, not Z/5"),
        (lambda: witness_p(_MOD5, 2), "gamma_level works over Z, not Z/5"),
        (lambda: matrix_order(_MOD5), "matrix_order works over Z, not Z/5; "),
        (lambda: decompose_mod(_OVER_Z), "decompose_mod works over Z/N, not Z$"),
        (lambda: lift_to_int(_OVER_Z), "lift_to_int works over Z/N, not Z$"),
        (lambda: decompose_mod(_SL5), "decompose_mod needs a ModMatrix, got TracelessMatrix$"),
        (lambda: lift_to_int(_SL5), "lift_to_int needs a ModMatrix, got TracelessMatrix$"),
    ],
    ids=[
        "decompose_int", "gamma_level", "gamma_member", "phi_k", "phi_general",
        "witness_rf", "witness_p", "matrix_order", "decompose_mod", "lift_to_int",
        "decompose_mod-traceless", "lift_to_int-traceless",
    ],
)  # fmt: skip
def test_a_matrix_over_the_wrong_ring_is_a_type_error(call, message):
    # over Z, an answer about _MOD5 would be about one residue representative
    with pytest.raises(TypeError, match="^" + message):
        call()
