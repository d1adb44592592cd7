import hashlib

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

from congruence_lab import intmat

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
        assert len({t.rows for t in sl_elements(n, m)}) == m ** (n * n - 1)


def test_sl_elements_match_the_validating_constructor():
    for n, m in [(2, 3), (3, 2)]:
        for t in sl_elements(n, m):
            assert t == TracelessMatrix(t.rows, m)
    with pytest.raises(BadModulus):
        next(sl_elements(2, 1))


def test_sl_constructors_take_n_and_the_modulus_through_index():
    # a missing modulus was accepted, and sl_basis(0, 2) gave ()
    for call in (lambda: TracelessMatrix(((0, 1), (0, 0)), None), lambda: sl_basis(2, None),
                 lambda: sl_basis(1, None), lambda: next(sl_elements(2, None)), lambda: sl_basis(2.0, 3),
                 lambda: next(sl_elements(2, 3.0)), lambda: TracelessMatrix.zero(2.0, 5)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
    for call in (lambda: sl_basis(0, 2), lambda: next(sl_elements(0, 2)), lambda: sl_basis(-1, 5),
                 lambda: TracelessMatrix.zero(0, 5)):
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            call()
    with pytest.raises(BadModulus):
        sl_basis(1, 1)
    assert sl_basis(1, 5) == () and list(sl_elements(1, 5)) == [TracelessMatrix.zero(1, 5)]


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


def test_phi_k_agrees_with_the_definition_at_every_depth():
    # membership and image straight from x = 1 + p^k*Y, for k up to and past
    # the bit length of the entries, where p^k is no longer built
    for p in (2, 3, 5):
        for seed in range(12):
            x = sample_gamma(2 + seed % 3, p ** (1 + seed % 3), 4, seed)
            bits = max(abs(e).bit_length() for row in x.rows for e in row) + 1
            for k in range(1, bits + 3):
                q = p**k
                if gamma_member(x, q):
                    y = (x - IntMatrix.identity(x.n)).rows
                    assert phi_k(x, p, k).rows == tuple(tuple(e // q % p for e in row) for row in y)
                else:
                    with pytest.raises(NotInGamma, match=f"mod {q}$"):
                        phi_k(x, p, k)


def test_phi_k_at_a_huge_depth_builds_no_power():
    # only the identity lies in Gamma(p^k) once p^k passes every entry of x - 1,
    # and a level of more than 4300 digits is named as a power, not printed
    with pytest.raises(NotInGamma, match=r"mod 2\^1000000000$"):
        phi_k(IntMatrix([[1, 2], [0, 1]]), 2, 10**9)
    assert phi_k(IntMatrix.identity(3), 3, 10**9) == TracelessMatrix.zero(3, 3)
    with pytest.raises(TypeError):  # a depth that is not an integer, even where no power is built
        phi_k(IntMatrix.identity(2), 2, 40.0)
    with pytest.raises(NotInGamma, match=f"mod {2**14284}$"):  # 4300 digits
        phi_k(IntMatrix([[1, 2], [0, 1]]), 2, 14284)
    with pytest.raises(NotInGamma, match=r"mod 2\^14285$"):  # 4301 digits
        phi_k(IntMatrix([[1, 2], [0, 1]]), 2, 14285)
    # a level below the entries is built, and named by the same rule
    x = IntMatrix([[1, 3 * 2**15000], [0, 1]])
    assert phi_k(x, 2, 15000) == E12_MOD2
    with pytest.raises(NotInGamma, match=r"mod 2\^15001$"):
        phi_k(x, 2, 15001)


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


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: phi_general_preimage(ModMatrix(((1, 1), (0, 1)), 5)), "phi_general_preimage needs a TracelessMatrix, got ModMatrix$"),
        (lambda: phi_general_preimage(IntMatrix(((1, 1), (0, 1)))), "phi_general_preimage needs a TracelessMatrix, got IntMatrix$"),
        (lambda: phi_preimage(IntMatrix(((1, 1), (0, 1))), 2, 1), "phi_preimage needs a TracelessMatrix, got IntMatrix$"),
        (lambda: phi_preimage(ModMatrix(((1, 1), (0, 1)), 3), 2, 1), "phi_preimage needs a TracelessMatrix, got ModMatrix$"),
    ],
    ids=["general-mod", "general-int", "chain-int", "chain-mod-other-prime"],
)  # fmt: skip
def test_a_preimage_target_that_is_not_traceless_is_a_type_error(call, message):
    # the mod-5 target gave 381,80;100,21, whose depth image is not the target
    with pytest.raises(TypeError, match="^" + message):
        call()


def test_phi_preimage_takes_p_and_k_through_index():
    # 2.0 or 1.0 gave an IntMatrix with float entries
    for p, k in ((2.0, 1), (2, 1.0)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            phi_preimage(E12_MOD2, p, k)
    assert phi_preimage(E12_MOD2, 2, True) == IntMatrix([[1, 2], [0, 1]])


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


def test_witness_p_computes_one_det(monkeypatch):
    # the level proves det x = 1 and x in Gamma(p^s), so the depth map is
    # taken without checking either again
    det, calls = intmat.det_of_rows, []

    def counted(rows):
        calls.append(rows)
        return det(rows)

    monkeypatch.setattr(intmat, "det_of_rows", counted)
    for n, p in [(2, 2), (3, 3), (4, 5), (8, 2)]:
        x = sample_gamma(n, p * p, 3 * n, n)
        calls.clear()
        assert witness_p(x, p).level % p == 0
        assert len(calls) == 1


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


def _traceless_from(x: IntMatrix, m: int) -> TracelessMatrix:
    """x's rows mod m, with the last diagonal entry set to make the trace vanish."""
    rows = [list(r) for r in x.rows]
    rows[-1][-1] = -sum(rows[i][i] for i in range(x.n - 1))
    return TracelessMatrix(tuple(map(tuple, rows)), m)


def _witness_layer_lines():
    for n in (2, 3, 4):
        for p in (2, 3, 5):
            for seed in range(8):
                x = sample_sl(n, 3 + seed, seed)
                yield str(witness_rf(x).to_json()) if not x.is_identity() else "identity"
                for k in (1, 2):
                    g = sample_gamma(n, p**k, 3, seed)
                    yield phi_k(g, p, k).to_text()
                    yield str(witness_p(g, p).to_json()) if not g.is_identity() else "identity"
                    yield phi_preimage(_traceless_from(x, p), p, k).to_text()
                for N in (p, 2 * p, p * p):
                    yield phi_general(sample_gamma(n, N, 3, seed), N).to_text()
                    yield phi_general_preimage(_traceless_from(x, N)).to_text()


def test_witness_layer_is_pinned_by_snapshot():
    # the bytes of every witness, depth image and preimage: a rewrite of the
    # witness layer must give the same answers, not just correct ones
    h = hashlib.sha256()
    for line in _witness_layer_lines():
        h.update((line + "\n").encode())
    assert h.hexdigest() == "d97f7061883dc8a883d0d19f10aae2d8e0bd862ea5bca5b8046e0c7447a1e5cf"
