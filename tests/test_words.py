import copy
import dataclasses
import hashlib
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from congruence_lab import (
    ElementaryWord,
    IntMatrix,
    ModMatrix,
    NotUnimodular,
    ParseError,
    TracelessMatrix,
    decompose_int,
    decompose_mod,
    enumerate_sl,
    lift_to_int,
    phi_general,
    phi_general_preimage,
    phi_k,
    phi_preimage,
    sample_gamma,
    sample_sl,
    sl_order_formula,
)

from congruence_lab import intmat, witnesses, words
from congruence_lab.primes import _crt_plan
from congruence_lab.words import _Gen, _word_ops

from tests.helpers import elementary_distances, elementary_words, unimodular_matrices


def test_empty_word_evaluates_to_identity():
    assert ElementaryWord(3, ()).evaluate() == IntMatrix.identity(3)
    assert ElementaryWord(2, (), modulus=6).evaluate() == ModMatrix.identity(2, 6)


def test_single_generator():
    w = ElementaryWord(2, ((1, 2, 5),))
    assert w.evaluate() == IntMatrix([[1, 5], [0, 1]])
    # a generator is its plain triple, and keeps the field names readers use
    (g,) = w.gens
    assert g == (1, 2, 5) and (g.i, g.j, g.a) == (1, 2, 5)


@given(elementary_words(2), elementary_words(2))
def test_concatenation_is_product(w1, w2):
    assert (w1 + w2).evaluate() == w1.evaluate() * w2.evaluate()


@given(elementary_words(3, modulus=6), elementary_words(3, modulus=6))
def test_concatenation_is_product_mod(w1, w2):
    assert (w1 + w2).evaluate() == w1.evaluate() * w2.evaluate()


@given(st.sampled_from([(3, None), (3, 6), (2, None), (2, 6), (2, 2**61 - 1)])
       .flatmap(lambda ring: elementary_words(ring[0], modulus=ring[1])))
def test_evaluate_is_the_product_of_its_generators(w):
    # an independent route: each generator written out as 1 + a*e_ij, multiplied by `*`;
    # over Z at n = 2 it checks the closed form of elementary_product, else the generic loop
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
    with pytest.raises(ValueError, match="requires i != j"):
        ElementaryWord(2, ((1, 1, 3),))
    # a = 0.5 truncated would evaluate to the identity
    for gen in [(1, 2, 0.5), (1.0, 2, 1), (1, "2", 1)]:
        with pytest.raises(TypeError):
            ElementaryWord(2, (gen,))
    w = ElementaryWord(2, ((True, 2, True),))  # int subclasses pass and are stored as int
    assert w.gens == ((1, 2, 1),) and all(type(x) is int for x in w.gens[0])
    with pytest.raises(ValueError, match="must be 1-based"):
        ElementaryWord(2, ((0, 1, 3),))
    with pytest.raises(ValueError, match="out of range for n=2"):
        ElementaryWord(2, ((1, 3, 1),))
    # the checks run in this order: 1-based, then i != j, then the range
    # (against the reduced a), so a generator failing several gets the first
    for n, gens, modulus, message in [
        (2, ((0, 0, 1),), None, r"\(0,0\) must be 1-based"),
        (2, ((3, 3, 1),), None, "requires i != j"),
        (0, ((1, 2, 3),), None, r"E\(1,2,3\) out of range for n=0"),
        (2, ((1, 3, 7),), 5, r"E\(1,3,2\) out of range for n=2"),
        (-1, ((0, 5, 1),), None, r"\(0,5\) must be 1-based"),
        (2, (), 1, r"^word modulus must be >= 2, got 1$"),
    ]:
        with pytest.raises(ValueError, match=message):
            ElementaryWord(n, gens, modulus)
    with pytest.raises(ParseError, match=r"^word modulus must be >= 2, got 1$"):
        ElementaryWord.from_text("E(1,2,1) | Z/1")
    # + joins words only: of equal n over one ring
    w = ElementaryWord(2, ((1, 2, 1),))
    with pytest.raises(TypeError):
        w + 1
    for other in (ElementaryWord(3, ((1, 2, 1),)), ElementaryWord(2, ((1, 2, 1),), 5)):
        with pytest.raises(ValueError, match=r"^can only concatenate words of equal dimension and ring$"):
            w + other
    for n in (0, -1):
        # "| Z" would print and parse back, and fail only in evaluate
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            ElementaryWord(n, ())
    for n, modulus in [(2, 5.5), (2.5, None), (2.0, 5)]:
        # "E(1,2,3) | Z/5.5" would print, but neither parse nor evaluate
        with pytest.raises(TypeError):
            ElementaryWord(n, ((1, 2, 3),), modulus)


def test_decompose_identity_is_empty():
    for n in (1, 2, 3, 4):
        assert len(decompose_int(IntMatrix.identity(n))) == 0


def test_decompose_already_elementary():
    word = decompose_int(IntMatrix([[1, 5], [0, 1]]))
    assert word.gens == ((1, 2, 5),)


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


@pytest.mark.parametrize(
    "n,N,stop", [(2, 3, None), (2, 9, None), (3, 2, None), (2, 6, 20)], ids=["2-3", "2-9", "3-2", "2-6-first-20"]
)
def test_decompose_mod_round_trip(n, N, stop):
    # each word, of every element or of the first 20 of SL_2(Z/6), has each a in
    # [0, N) and evaluates back to its element. The registry's
    # decompose-mod-exhaustive (test_full_check) round-trips all of SL_2(Z/4)
    # and SL_2(Z/6); those 20 stay here for their coefficients.
    for y in enumerate_sl(n, N)[:stop]:
        word = decompose_mod(y)
        assert word.evaluate() == y and all(0 <= a < N for _, _, a in word._ops)


def test_decompose_local_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        decompose_mod(ModMatrix([[1, 0], [0, 3]], 4))


def _sl3_mod_12_sample():
    # SL_3(Z/12) has 241,532,928 elements: every 29th of SL_3(Z/4), each joined
    # by the CRT (x = 9a + 4b mod 12) with the elements of SL_3(Z/3) in turn
    mod4, mod3 = enumerate_sl(3, 4)[::29], enumerate_sl(3, 3)
    for t, a in enumerate(mod4):
        b = mod3[t % len(mod3)]
        yield ModMatrix([[9 * u + 4 * v for u, v in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)], 12)


def test_decompose_mod_joins_one_lifted_local_word_per_factor():
    # at n >= 3 the word of Z/N is the local words of _word_ops, one per
    # prime-power factor q and in that order, by their lengths: the part of
    # factor q has each a in [0, N), is 0 mod N/q and, reduced mod q,
    # multiplies out to y mod q by elementary_product, a route not through
    # _mod_ops. On a sample of SL_3(Z/12)
    plan = _crt_plan(12)
    for y in _sl3_mod_12_sample():
        ops, start = decompose_mod(y)._ops, 0
        assert all(0 <= v < 12 for _, _, v in ops)
        for _, _, q, _ in plan:
            part = ops[start : start + len(_word_ops(y.rows, q, 1, q))]
            start += len(part)
            assert all(v % (12 // q) == 0 for _, _, v in part)
            y_mod_q = tuple(tuple(v % q for v in r) for r in y.rows)
            assert intmat.elementary_product(3, [(i, j, v % q) for i, j, v in part], q) == y_mod_q
        assert start == len(ops)


def _sweep_2x2(N):
    # One pass over SL_2(Z/N). Each word has at most 4 ops, each a in (0, N),
    # and evaluates to y; so does the word of _word_ops, the oracle, joined
    # over the CRT factors. Each lift has det 1, reduces to y and has entries
    # in [0, bound]. Returns the longest word and the largest lift entry.
    longest = largest = 0
    for y in enumerate_sl(2, N, cap=N**4):
        word = decompose_mod(y)
        assert len(word) <= 4 and all(0 < v < N for _, _, v in word._ops) and word.evaluate() == y
        oracle = [op for _, _, q, e in _crt_plan(N) for op in _word_ops(y.rows, q, e, N)]
        assert intmat.elementary_product(2, oracle, N) == y.rows
        lifted = lift_to_int(y)
        assert lifted.det() == 1 and ModMatrix(lifted.rows, N) == y and min(min(r) for r in lifted.rows) >= 0
        longest, largest = max(longest, len(word)), max(largest, *map(max, lifted.rows))
    return longest, largest


@pytest.mark.parametrize("N", [*range(2, 13), 30])
def test_2x2_words_have_the_elementary_width_and_lifts_the_stated_bound(N):
    # the longest word is the width of SL_2(Z/N) in the E_ij(a), by a
    # breadth-first search (N <= 12), and the largest lift entry is the bound
    # of lift_to_int, (N-1)^4 + 3(N-1)^2 + 1, reached exactly when 3 | N
    longest, largest = _sweep_2x2(N)
    bound = (N - 1) ** 4 + 3 * (N - 1) ** 2 + 1
    assert largest == bound if N % 3 == 0 else largest < bound
    if N <= 12:
        dist = elementary_distances(2, N)
        assert len(dist) == sl_order_formula(2, N)
        assert longest == max(dist.values()) == (3 if N == 2 else 4)


def test_2x2_route_refuses_a_column_with_no_unit(monkeypatch):
    # the det-1 test rules such a column out; with it bypassed, the search
    # for t stops after N tries with AssertionError: at N = 4 and 5 a zero
    # column, at N = 12 the column (3, 0), which has a unit mod 4 only
    monkeypatch.setattr(words, "require_det_one", lambda y: None)
    for rows, N in (([[0, 0], [0, 1]], 4), ([[0, 0], [0, 1]], 5), ([[3, 3], [0, 3]], 12)):
        for f in (decompose_mod, lift_to_int):
            with pytest.raises(AssertionError, match="^a det-1 column over Z/N must be unimodular$"):
                f(ModMatrix(rows, N))


def test_word_ops_refuse_a_row_that_vanishes_from_the_diagonal_on():
    # the determinant check rules such a row out; reached anyway, both rings
    # stop with AssertionError, not with an error from inside the pivot search
    for rows in ([[0, 0], [0, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 1]], [[1, 2, 3], [2, 4, 6], [0, 0, 1]]):
        for ring in ((), (4, 1, 4), (5, 1, 5)):
            with pytest.raises(AssertionError, match="det-1 row"):
                _word_ops(rows, *ring)


def test_every_op_handed_to_elementary_product_is_one_based(monkeypatch):
    # elementary_product pads its rows with an unused column 0, so a stray
    # 0-based op would give a wrong product without raising: every builder of
    # ops (sampler, elimination, CRT lift, depth-map preimages) is checked here
    product, seen = intmat.elementary_product, []

    def checked(n, ops, N=None):
        ops = list(ops)
        assert all(1 <= i <= n and 1 <= j <= n and i != j for i, j, _ in ops)
        seen.append(len(ops))
        return product(n, ops, N)

    for module in (intmat, words, witnesses):
        monkeypatch.setattr(module, "elementary_product", checked)
    for n in (2, 3, 4):
        x = sample_sl(n, 6 * n, n)
        assert decompose_int(x).evaluate() == x
        g = sample_gamma(n, 6, 3 * n, n)
        for N in (6, 9, 7):
            y = ModMatrix(x.rows, N)
            assert decompose_mod(y).evaluate() == y
            assert ModMatrix(lift_to_int(y).rows, N) == y
        t = phi_general(g, 6)
        assert phi_general(phi_general_preimage(t), 6) == t
    t = TracelessMatrix(((1, 2), (0, 2)), 3)
    assert phi_k(phi_preimage(t, 3, 2), 3, 2) == t
    assert len(seen) > 20


def test_decompose_mod_and_lift_three_crt_factors():
    # N = 30 and 60 have three prime-power factors, so at n = 3 every word is
    # three lifted local words; the round trip and the lift's det are the
    # oracle. SL_2(Z/30) is swept whole by the width and lift-bound test
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


def test_lift_identity():
    assert lift_to_int(ModMatrix.identity(2, 5)) == IntMatrix.identity(2)


def test_lift_example():
    y = ModMatrix([[0, 1], [4, 0]], 5)
    assert y.det() == 1
    lifted = lift_to_int(y)
    assert lifted.det() == 1
    assert ModMatrix(lifted.rows, 5) == y


def test_reduction_covers_whole_group():
    # the reduced lifts hit every element, i.e. reduction is onto; each lift
    # is the word of decompose_mod read over Z, as lift_to_int promises
    for N in (2, 3, 4, 5, 12):
        els = enumerate_sl(2, N)
        lifts = [lift_to_int(y) for y in els]
        for y, lifted in zip(els, lifts):
            assert lifted == ElementaryWord(y.n, decompose_mod(y).gens).evaluate()
        image = {ModMatrix(lifted.rows, N) for lifted in lifts}
        assert len(image) == sl_order_formula(2, N)


def test_word_text_roundtrip():
    w = ElementaryWord(2, ((1, 2, 5), (2, 1, -1)))
    assert w.to_text() == "E(1,2,5);E(2,1,-1) | Z"
    assert ElementaryWord.from_text(w.to_text()) == w
    wm = ElementaryWord(2, ((1, 2, 5),), modulus=6)
    assert wm.to_text() == "E(1,2,5) | Z/6"
    assert ElementaryWord.from_text(wm.to_text()) == wm
    empty = ElementaryWord(2, ())
    assert ElementaryWord.from_text(empty.to_text(), n=2) == empty
    for word in (w, wm, empty):
        for twin in (pickle.loads(pickle.dumps(word)), copy.deepcopy(word)):
            assert twin == word and twin.to_text() == word.to_text()
            assert [g.a for g in twin.gens] == [g.a for g in word.gens]


_BAD_WORDS = [
    ("E(1,2,5)", None), ("E(1,1,5) | Z", None), ("E(1,2) | Z", None), ("| Q", None),
    ("E(1,2,5) | Z/x", None), ("E(1,2,1) | Z/\u00b2", None), ("| Z", None),
    ("E(0,1,5) | Z", None), ("| Z", 0), ("| Z", -1),
]  # fmt: skip


@pytest.mark.parametrize(
    "bad, n", _BAD_WORDS, ids=[text if n is None else f"{text} n={n}" for text, n in _BAD_WORDS]
)
def test_word_text_errors(bad, n):
    with pytest.raises(ParseError):
        ElementaryWord.from_text(bad, n)


def _words_of_every_builder():
    x = sample_sl(3, 12, 7)
    built = ElementaryWord(3, ((1, 2, 5), (3, 1, -4)))
    return [
        built,
        ElementaryWord._wrap(2, [(1, 2, 3), (2, 1, 4)], 5),
        ElementaryWord.from_text("E(1,2,7);E(2,1,-3) | Z/6"),
        built + decompose_int(x),
        decompose_int(x),
        decompose_mod(ModMatrix(x.rows, 12)),
        decompose_mod(ModMatrix(((0, 5), (7, 0)), 12)),
    ]


def test_gens_is_a_cached_named_tuple_view_of_the_stored_triples():
    # a word keeps plain triples and builds the _Gen view on its first read,
    # which changes nothing else about it: compare with a twin built alike
    for w, twin in zip(_words_of_every_builder(), _words_of_every_builder()):
        text, h, r = w.to_text(), hash(w), repr(twin)
        gens = w.gens
        assert gens is w.gens and type(gens) is tuple and len(gens) == len(w)
        assert all(type(t) is tuple for t in w._ops) and gens == w._ops
        assert all(type(g) is _Gen and (g.i, g.j, g.a) == g for g in gens)
        assert w.to_text() == text and hash(w) == h == hash(twin) and w == twin and repr(w) == r
        assert h == hash((w.n, gens, w.modulus))  # the stored state hashes as the fields the repr shows
        for other in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert type(other) is ElementaryWord and other == w and other.to_text() == text and other.gens == gens
        assert pickle.dumps(w) == pickle.dumps(twin)  # the cached view is not part of the state
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'gens'"):
            w.gens = ()
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'gens'"):
            del w.gens
        assert w.gens is gens


def test_words_have_slots_and_pickle_as_before():
    # no instance dict from any builder; every field, stored or the gens view,
    # refuses assignment and deletion; and the pickle of these words, their
    # gens read first, has pinned bytes: the gens slot is not part of the state
    words = _words_of_every_builder()
    for w in words:
        assert not hasattr(w, "__dict__") and w.gens is w.gens
        for name in ("n", "modulus", "_ops", "gens"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(w, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(w, name)
    digest = hashlib.sha256(pickle.dumps(words, protocol=4)).hexdigest()
    assert digest == "7ab36ac6beb08fd98f146c0b9971889b94f8b4e66d6af496f84f7ab02cc4281b"


_REFUSALS = [
    (IntMatrix(((2, 1), (1, 1))), TypeError, "{} works over Z/N, not Z"),
    (TracelessMatrix(((1, 2), (0, 2)), 3), TypeError, "{} needs a ModMatrix, got TracelessMatrix"),
    (ModMatrix(((2, 0), (0, 1)), 9), NotUnimodular, "determinant is 2 mod 9, expected 1"),
    (ModMatrix(((1, 3), (2, 1)), 12), NotUnimodular, "determinant is 7 mod 12, expected 1"),
    (ModMatrix(((0, 1), (1, 0)), 12), NotUnimodular, "determinant is 11 mod 12, expected 1"),
    (IntMatrix.identity(3), TypeError, "{} works over Z/N, not Z"),
    (TracelessMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 2)), 4), TypeError, "{} needs a ModMatrix, got TracelessMatrix"),
    (ModMatrix(((1, 0, 0), (0, 2, 0), (0, 0, 1)), 27), NotUnimodular, "determinant is 2 mod 27, expected 1"),
    (ModMatrix(((1, 1, 0), (0, 1, 0), (3, 0, 5)), 30), NotUnimodular, "determinant is 5 mod 30, expected 1"),
]
_REFUSAL_IDS = ["Z-2", "traceless-2", "det-2-mod-9", "det-7-mod-12", "det-11-mod-12", "Z-3", "traceless-3",
                "det-2-mod-27-n3", "det-5-mod-30-n3"]


@pytest.mark.parametrize("x, error, text", _REFUSALS, ids=_REFUSAL_IDS)
def test_decompose_mod_and_lift_refuse_as_before(x, error, text):
    # the type and whole message of require_ring, the class check or
    # require_det_one, whether the inline det-1 test at n = 2 ran first or not
    for f in (decompose_mod, lift_to_int):
        with pytest.raises(error) as raised:
            f(x)
        assert type(raised.value) is error and str(raised.value) == text.format(f.__name__)


def test_word_coefficients_reduced_mod_n():
    w = ElementaryWord(2, ((1, 2, 7),), modulus=6)
    assert w.gens[0].a == 1


def _seeded_sample_lines():
    # every word and lift over seeded samples, n = 1..6, at moduli with one,
    # two and three prime-power factors
    for n in range(1, 7):
        for seed in range(60):
            x = sample_sl(n, 3 + seed % 25, seed)
            yield decompose_int(x).to_text()
            for N in (8, 12, 27, 30, 49, 360):
                y = ModMatrix(x.rows, N)
                yield decompose_mod(y).to_text()
                yield lift_to_int(y).to_text()


def _finite_quotient_lines():
    # all of SL_2(Z/12), the group the finite-quotients benchmark decomposes
    # and lifts, and every 37th element of SL_3(Z/4), where a row's first
    # entry is often a non-unit and the pivot needs a column swap
    for y in enumerate_sl(2, 12) + enumerate_sl(3, 4)[::37]:
        yield decompose_mod(y).to_text()
        yield lift_to_int(y).to_text()


def _integer_exact_lines():
    # the integer words at the lengths the integer-exact benchmark decomposes
    # (entries well past those of the seeded samples), n = 2..8 with more
    # seeds at n = 4, and each word's product, which must be the sample
    for n in range(2, 9):
        for seed in range(12 if n == 4 else 4):
            x = sample_sl(n, 10 * n, seed)
            w = decompose_int(x)
            product = w.evaluate()
            assert product == x
            yield w.to_text()
            yield product.to_text()


def _large_modulus_lines():
    # words and lifts past the seeded samples' n <= 6: n = 7..12 at moduli
    # with three factors, a prime near 10^6, 3^20 and the prime 2^61 - 1
    for n in range(7, 13):
        for seed in range(10):
            x = sample_sl(n, 10 * n, seed)
            for N in (360, 999983, 3**20, 2**61 - 1):
                y = ModMatrix(x.rows, N)
                yield decompose_mod(y).to_text()
                yield lift_to_int(y).to_text()


@pytest.mark.parametrize(
    "lines, digest",
    [
        (_seeded_sample_lines, "f703490a5aea8dd5f0dc64774063ef914d95a5fe6e16c023b9d23d6df75a47c0"),
        (_finite_quotient_lines, "d58bd106e1beacfff2ffa8e1bac253ecc77d7538bd3980020f33d9056507729e"),
        (_integer_exact_lines, "86ae0d67074ddfddcfdbabdfef825160f4b11227c8cb2265864ffcc9133d8be3"),
        (_large_modulus_lines, "9dd849a43bb3ebbb1519f4bd05e1561e7f9c0e0d7d922c3f85337c123c661fd4"),
    ],
    ids=["seeded-samples", "finite-quotients", "integer-exact", "large-moduli"],
)
def test_words_are_pinned_by_snapshot(lines, digest):
    # the bytes of every line: a rewrite of the elimination must give the
    # same words, not just correct ones
    h = hashlib.sha256()
    for line in lines():
        h.update((line + "\n").encode())
    assert h.hexdigest() == digest


def _decomposed_words():
    for n in range(1, 7):
        for seed in range(20):
            x = sample_sl(n, 3 + seed % 25, seed)
            yield decompose_int(x)
            for N in (8, 12, 30):
                yield decompose_mod(ModMatrix(x.rows, N))
    for y in enumerate_sl(2, 12) + enumerate_sl(3, 4):
        yield decompose_mod(y)


def test_decomposed_words_equal_their_checked_rebuild():
    # the decompositions build their words without the constructor's checks;
    # the constructor must accept each one as it is and build the same value
    # and of the same types, which is what a repr would tell apart
    for w in _decomposed_words():
        checked = ElementaryWord(w.n, w.gens, w.modulus)
        assert w == checked
        assert type(w.n) is int and type(w.modulus) is type(checked.modulus)
        assert all(type(g) is _Gen and all(type(e) is int for e in g) for g in w.gens)


@given(
    st.sampled_from([3, 4]).flatmap(unimodular_matrices),
    st.sampled_from([8, 9, 25, 27, 49]),
)
@settings(deadline=None)
def test_decompose_mod_and_lift_at_prime_powers_dim3_and_dim4(x, q):
    # at n >= 3 the local pivot search needs column swaps whenever the first
    # entry of a row is a non-unit, which small prime powers make common
    y = ModMatrix(x.rows, q)
    assert decompose_mod(y).evaluate() == y
    lifted = lift_to_int(y)
    assert lifted.det() == 1 and ModMatrix(lifted.rows, q) == y
