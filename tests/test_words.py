import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from congruence_lab import (
    ElementaryGen,
    ElementaryWord,
    IntMatrix,
    ModMatrix,
    NotUnimodular,
    ParseError,
    decompose_int,
    decompose_mod,
    enumerate_sl,
    lift_to_int,
    sample_sl,
    sl_order_formula,
)

from congruence_lab.words import _decompose_local

from tests.helpers import elementary_words, unimodular_matrices


def test_empty_word_evaluates_to_identity():
    assert ElementaryWord(3, ()).evaluate() == IntMatrix.identity(3)
    assert ElementaryWord(2, (), modulus=6).evaluate() == ModMatrix.identity(2, 6)


def test_single_generator():
    w = ElementaryWord(2, (ElementaryGen(1, 2, 5),))
    assert w.evaluate() == IntMatrix([[1, 5], [0, 1]])


@given(elementary_words(2), elementary_words(2))
def test_concatenation_is_product(w1, w2):
    assert (w1 + w2).evaluate() == w1.evaluate() * w2.evaluate()


@given(elementary_words(3, modulus=6), elementary_words(3, modulus=6))
def test_concatenation_is_product_mod(w1, w2):
    assert (w1 + w2).evaluate() == w1.evaluate() * w2.evaluate()


@given(st.sampled_from([None, 6]).flatmap(lambda N: elementary_words(3, modulus=N)))
def test_evaluate_is_the_product_of_its_generators(w):
    # an independent route: each generator written out as 1 + a*e_ij, multiplied by `*`
    def matrix(cells):
        rows = [[int(r == c) for c in range(w.n)] for r in range(w.n)]
        for i, j, a in cells:
            rows[i - 1][j - 1] = a
        return IntMatrix(rows) if w.modulus is None else ModMatrix(rows, w.modulus)

    product = matrix(())
    for g in w.gens:
        product = product * matrix([(g.i, g.j, g.a)])
    assert w.evaluate() == product


@given(elementary_words(3))
def test_every_word_evaluates_to_det_one(w):
    assert w.evaluate().det() == 1


def test_generator_validation():
    with pytest.raises(ValueError):
        ElementaryGen(1, 1, 3)
    with pytest.raises(TypeError):
        ElementaryGen(1, 2, 0.5)  # truncated, it would evaluate to the identity
    with pytest.raises(TypeError):
        ElementaryGen(1.0, 2, 1)
    with pytest.raises(TypeError):
        ElementaryGen(1, "2", 1)
    g = ElementaryGen(True, 2, True)  # int subclasses pass and are stored as int
    assert g == ElementaryGen(1, 2, 1) and type(g.i) is type(g.a) is int
    with pytest.raises(ValueError):
        ElementaryGen(0, 1, 3)
    with pytest.raises(ValueError):
        ElementaryWord(2, (ElementaryGen(1, 3, 1),))
    for n, modulus in [(2, 5.5), (2.5, None), (2.0, 5)]:
        # "E(1,2,3) | Z/5.5" would print, but neither parse nor evaluate
        with pytest.raises(TypeError):
            ElementaryWord(n, (ElementaryGen(1, 2, 3),), modulus)


def test_decompose_identity_is_empty():
    for n in (1, 2, 3, 4):
        assert len(decompose_int(IntMatrix.identity(n))) == 0


def test_decompose_already_elementary():
    word = decompose_int(IntMatrix([[1, 5], [0, 1]]))
    assert word.gens == (ElementaryGen(1, 2, 5),)


def test_decompose_rotation_roundtrip():
    x = IntMatrix([[0, -1], [1, 0]])
    word = decompose_int(x)
    assert word.modulus is None
    assert word.evaluate() == x


def test_decompose_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        decompose_int(IntMatrix([[0, 1], [1, 0]]))
    with pytest.raises(NotUnimodular):
        decompose_int(IntMatrix([[2, 0], [0, 1]]))


@given(unimodular_matrices(2, max_len=10))
def test_decompose_roundtrip_dim2(x):
    assert decompose_int(x).evaluate() == x


@given(unimodular_matrices(3, max_len=10))
@settings(deadline=None)
def test_decompose_roundtrip_dim3(x):
    assert decompose_int(x).evaluate() == x


def test_decompose_seeded_samples():
    for n in (2, 3):
        for t in range(100):
            x = sample_sl(n, 3 + t % 15, seed=1000 + t)
            assert decompose_int(x).evaluate() == x


def test_decompose_emits_offdiagonal_generators_and_bounded_words():
    # every emitted generator is elementary (det 1 by shape); pin the observed
    # maximum word length over a fixed seeded corpus as a regression ceiling
    max_len = 0
    for t in range(200):
        x = sample_sl(3, 3 + t % 15, seed=4000 + t)
        w = decompose_int(x)
        assert all(g.i != g.j for g in w.gens)
        max_len = max(max_len, len(w))
    print(f"max emitted word length over seeded corpus: {max_len}")
    assert max_len <= 64  # observed 32; double as regression headroom


def test_decompose_local_identity():
    assert len(decompose_mod(ModMatrix.identity(2, 4))) == 0


def test_decompose_local_example():
    y = ModMatrix([[0, 1], [3, 0]], 4)
    assert y.det() == 1
    word = decompose_mod(y)
    assert word.modulus == 4
    assert word.evaluate() == y


def test_decompose_local_exhaustive_mod3():
    els = enumerate_sl(2, 3)
    assert len(els) == 24
    for y in els:
        assert decompose_mod(y).evaluate() == y


def test_decompose_local_exhaustive_mod4_and_mod9():
    for N in (4, 9):
        for y in enumerate_sl(2, N):
            assert decompose_mod(y).evaluate() == y


def test_decompose_local_dim3():
    for y in enumerate_sl(3, 2):
        assert decompose_mod(y).evaluate() == y


def test_decompose_local_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        decompose_mod(ModMatrix([[1, 0], [0, 3]], 4))


def test_decompose_mod_agrees_with_local_at_prime_powers():
    # a single CRT factor has idempotent 1: the local operations, reduced, are the word
    for N, p in ((2, 2), (3, 3), (5, 5), (4, 2)):
        for y in enumerate_sl(2, N):
            local = _decompose_local(y.rows, N, p)
            assert decompose_mod(y).gens == tuple(
                ElementaryGen(i + 1, j + 1, a % N) for i, j, a in local
            )


def test_decompose_mod_and_lift_three_crt_factors():
    # N = 30 and 60 have three prime-power factors, so every word is three
    # lifted local words; the round trip and the lift's det are the oracle
    for y in enumerate_sl(2, 30)[::97]:
        assert decompose_mod(y).evaluate() == y
        lifted = lift_to_int(y)
        assert lifted.det() == 1 and ModMatrix(lifted.rows, 30) == y
    for t in range(40):
        x = sample_sl(3, 4 + t % 12, seed=6000 + t)
        for N in (30, 60):
            y = ModMatrix(x.rows, N)
            word = decompose_mod(y)
            assert word.modulus == N and word.evaluate() == y
            lifted = lift_to_int(y)
            assert lifted.det() == 1 and ModMatrix(lifted.rows, N) == y


def test_decompose_mod_identity_is_empty():
    assert len(decompose_mod(ModMatrix.identity(2, 6))) == 0


def test_decompose_mod_coefficients_canonical():
    for y in enumerate_sl(2, 6)[:20]:
        for g in decompose_mod(y).gens:
            assert 0 <= g.a < 6


def test_lift_identity():
    assert lift_to_int(ModMatrix.identity(2, 5)) == IntMatrix.identity(2)


def test_lift_example():
    y = ModMatrix([[0, 1], [4, 0]], 5)
    assert y.det() == 1
    lifted = lift_to_int(y)
    assert lifted.det() == 1
    assert ModMatrix(lifted.rows, 5) == y


def test_reduction_covers_whole_group():
    # the reduced lifts hit every element, i.e. reduction is onto
    for N in (2, 3, 4, 5):
        els = enumerate_sl(2, N)
        image = {ModMatrix(lift_to_int(y).rows, N) for y in els}
        assert len(image) == sl_order_formula(2, N)


def test_word_text_roundtrip():
    w = ElementaryWord(2, (ElementaryGen(1, 2, 5), ElementaryGen(2, 1, -1)))
    assert w.to_text() == "E(1,2,5);E(2,1,-1) | Z"
    assert ElementaryWord.from_text(w.to_text()) == w
    wm = ElementaryWord(2, (ElementaryGen(1, 2, 5),), modulus=6)
    assert wm.to_text() == "E(1,2,5) | Z/6"
    assert ElementaryWord.from_text(wm.to_text()) == wm
    empty = ElementaryWord(2, ())
    assert ElementaryWord.from_text(empty.to_text(), n=2) == empty


@pytest.mark.parametrize(
    "bad",
    ["E(1,2,5)", "E(1,1,5) | Z", "E(1,2) | Z", "| Q", "E(1,2,5) | Z/x", "E(1,2,1) | Z/\u00b2", "| Z"],
)
def test_word_text_errors(bad):
    with pytest.raises(ParseError):
        ElementaryWord.from_text(bad)


def test_word_coefficients_reduced_mod_n():
    w = ElementaryWord(2, (ElementaryGen(1, 2, 7),), modulus=6)
    assert w.gens[0].a == 1
