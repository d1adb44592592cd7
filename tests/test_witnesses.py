import pytest

from congruence_lab import (
    BadModulus,
    IdentityInput,
    IntMatrix,
    ModMatrix,
    NotInGamma,
    NotPrime,
    TracelessMatrix,
    gamma_member,
    matrix_order,
    phi_general,
    phi_general_preimage,
    phi_k,
    phi_preimage,
    sample_gamma,
    sample_sl,
    sl_basis,
    sl_elements,
    sl_order_formula,
    witness_p,
    witness_rf,
)

E12_MOD2 = TracelessMatrix(((0, 1), (0, 0)), 2)


def test_traceless_validation():
    TracelessMatrix(((0, 1), (0, 0)), 2)
    with pytest.raises(ValueError):
        TracelessMatrix(((1, 0), (0, 1)), 3)
    t = TracelessMatrix(((1, 0), (0, -1)), 3)
    assert t.rows == ((1, 0), (0, 2))
    assert t.to_text() == "1,0;0,2 mod 3"


def test_traceless_addition():
    a = TracelessMatrix(((1, 2), (0, 2)), 3)
    b = TracelessMatrix(((2, 0), (1, 1)), 3)
    assert a + b == TracelessMatrix(((0, 2), (1, 0)), 3)


def test_sl_basis_and_element_counts():
    for n, m in [(2, 2), (2, 3), (3, 2), (3, 5)]:
        assert len(sl_basis(n, m)) == n * n - 1
        assert len(set(sl_elements(n, m))) == m ** (n * n - 1)


def test_sl_elements_match_the_validating_constructor():
    for n, m in [(2, 3), (3, 2)]:
        for t in sl_elements(n, m):
            assert t == TracelessMatrix(t.rows, m)
    with pytest.raises(BadModulus):
        next(sl_elements(2, 1))


def test_phi_k_examples():
    assert phi_k(IntMatrix([[1, 2], [0, 1]]), 2, 1) == E12_MOD2
    for p, k in [(2, 1), (3, 2), (5, 1)]:
        assert phi_k(IntMatrix.identity(3), p, k).is_zero()


def test_phi_k_validates():
    with pytest.raises(NotInGamma):
        phi_k(IntMatrix([[1, 1], [0, 1]]), 2, 1)
    with pytest.raises(NotPrime):
        phi_k(IntMatrix([[1, 4], [0, 1]]), 4, 1)
    with pytest.raises(ValueError):
        phi_k(IntMatrix([[1, 2], [0, 1]]), 2, 0)


def test_phi_k_kernel_is_next_level():
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        q = p**k
        for t in range(40):
            x = sample_gamma(2, q, 4, seed=t)
            assert phi_k(x, p, k).is_zero() == gamma_member(x, q * p)
            deep = sample_gamma(2, q * p, 4, seed=t)
            assert phi_k(deep, p, k).is_zero()


def test_phi_k_kernel_exhaustive_small_case():
    # every x = 1 + 2M with M entries in [-2, 2] and det(x) = 1: the image
    # vanishes exactly on Gamma(4)
    import itertools

    hits = 0
    for flat in itertools.product(range(-2, 3), repeat=4):
        x = IntMatrix.identity(2) + 2 * IntMatrix((flat[:2], flat[2:]))
        if x.det() != 1:
            continue
        hits += 1
        assert phi_k(x, 2, 1).is_zero() == gamma_member(x, 4)
    assert hits == 42  # size of the det-1 slice of this family


def test_phi_preimage_of_offdiagonal_is_single_elementary():
    e12_mod3 = TracelessMatrix(((0, 1), (0, 0)), 3)
    assert phi_preimage(e12_mod3, 3, 2) == IntMatrix([[1, 9], [0, 1]])


def test_phi_preimage_of_diagonal_difference_uses_block():
    diag = TracelessMatrix(((1, 0), (0, -1)), 3)
    x = phi_preimage(diag, 3, 1)
    assert x.det() == 1
    assert gamma_member(x, 3)
    assert phi_k(x, 3, 1) == diag


def test_phi_preimage_of_zero_is_identity():
    assert phi_preimage(TracelessMatrix.zero(2, 5), 5, 1) == IntMatrix.identity(2)


def test_phi_preimage_modulus_must_match_prime():
    with pytest.raises(ValueError):
        phi_preimage(E12_MOD2, 3, 1)


def test_phi_preimage_hits_every_element_small():
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        images = set()
        for t in sl_elements(2, p):
            x = phi_preimage(t, p, k)
            assert gamma_member(x, p**k)
            img = phi_k(x, p, k)
            assert img == t
            images.add(img)
        assert len(images) == p**3


def test_preimages_with_a_diagonal_are_frozen():
    # regression snapshots: the preimage construction must never drift
    t = TracelessMatrix(((1, 2, 0), (0, 2, 1), (1, 0, 0)), 3)
    assert phi_preimage(t, 3, 2).rows == (
        (-1037357, -116865, 162),
        (-57591, -6488, 9),
        (-6471, -729, 1),
    )
    t = TracelessMatrix(((5, 0, 3), (1, 4, 0), (0, 2, 3)), 12)
    assert phi_general_preimage(t).rows == (
        (183297661, -3849080148144, -35642715084),
        (-2378868, 49954595377, 462582576),
        (5097600, -107044853304, -991241819),
    )


def test_phi_general_examples():
    assert phi_general(IntMatrix([[1, 3], [0, 1]]), 3) == TracelessMatrix(((0, 1), (0, 0)), 3)
    for t in range(20):
        deep = sample_gamma(2, 9, 3, seed=t)
        assert phi_general(deep, 3).is_zero()


def test_phi_general_validates():
    with pytest.raises(NotInGamma):
        phi_general(IntMatrix([[1, 1], [0, 1]]), 2)


def test_phi_general_kernel_is_square_level():
    for N in (2, 3, 4):
        for t in range(30):
            x = sample_gamma(2, N, 4, seed=50 + t)
            assert phi_general(x, N).is_zero() == gamma_member(x, N * N)


def test_witness_rf_examples():
    w = witness_rf(IntMatrix([[1, 2], [0, 1]]))
    assert (w.kind, w.prime, w.level) == ("residual-finite", 3, 3)
    assert w.quotient_order == 24
    assert not w.image.is_identity()
    assert witness_rf(IntMatrix([[0, -1], [1, 0]])).prime == 2


def test_witness_rf_rejects_identity():
    with pytest.raises(IdentityInput):
        witness_rf(IntMatrix.identity(2))


def test_witness_rf_nontrivial_on_samples():
    found = 0
    t = 0
    while found < 60:
        x = sample_sl(2, 4 + t % 7, seed=t)
        t += 1
        if x.is_identity():
            continue
        found += 1
        w = witness_rf(x)
        assert not w.image.is_identity()
        assert ModMatrix(x.rows, w.prime) == w.image


def test_witness_p_examples():
    w = witness_p(IntMatrix([[1, 2], [0, 1]]), 2)
    assert (w.level, w.quotient_order) == (4, 8)
    assert w.image == E12_MOD2
    assert witness_p(IntMatrix([[1, 4], [0, 1]]), 2).level == 8
    assert witness_p(IntMatrix([[1, 4], [0, 1]]), 2).image == E12_MOD2
    w3 = witness_p(IntMatrix([[1, 9], [0, 1]]), 3)
    assert w3.level == 27
    assert w3.image == TracelessMatrix(((0, 1), (0, 0)), 3)


def test_witness_p_validates():
    with pytest.raises(IdentityInput):
        witness_p(IntMatrix.identity(2), 2)
    with pytest.raises(NotInGamma):
        witness_p(IntMatrix([[1, 1], [0, 1]]), 2)
    with pytest.raises(NotPrime):
        witness_p(IntMatrix([[1, 4], [0, 1]]), 4)


def test_witness_p_quotient_is_p_power():
    for p in (2, 3):
        found = 0
        t = 0
        while found < 40:
            x = sample_gamma(2, p, 4, seed=t)
            t += 1
            if x.is_identity():
                continue
            found += 1
            w = witness_p(x, p)
            assert not w.image.is_zero()
            q = w.quotient_order
            while q % p == 0:
                q //= p
            assert q == 1


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 5), (4, 3)])
def test_witness_p_quotient_order_is_the_ratio_of_group_orders(n, p):
    # |Gamma(p) / Gamma(p^(s+1))| = |SL_n(Z/p^(s+1))| / |SL_n(Z/p)| at the depth s of x
    for s in (1, 2, 3):
        w = witness_p(sample_gamma(n, p**s, 6, seed=s), p)
        assert w.level % p ** (s + 1) == 0
        assert w.quotient_order == sl_order_formula(n, w.level) // sl_order_formula(n, p)


def test_witness_json_wire_format():
    doc = witness_p(IntMatrix([[1, 2], [0, 1]]), 2).to_json()
    assert doc == {
        "kind": "residual-p-finite",
        "prime": 2,
        "level": 4,
        "quotient_order": "8",
        "image": "0,1;0,0 mod 2",
    }
    doc_rf = witness_rf(IntMatrix([[1, 2], [0, 1]])).to_json()
    assert doc_rf["kind"] == "residual-finite"
    assert doc_rf["quotient_order"] == "24"
    assert doc_rf["image"] == "1,2;0,1 mod 3"


def test_two_prime_separation_forces_torsion_freeness():
    # elements of Gamma(6) carry witnesses along p=2 and p=3 simultaneously;
    # any torsion there would need order a power of both primes, hence none
    checked = 0
    for t in range(30):
        x = sample_gamma(2, 6, 4, seed=t)
        if x.is_identity():
            continue
        checked += 1
        assert matrix_order(x).kind == "infinite"
        assert not witness_p(x, 2).image.is_zero()
        assert not witness_p(x, 3).image.is_zero()
    assert checked > 20
