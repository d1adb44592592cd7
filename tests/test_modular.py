import copy
import gc
import itertools
import math
import operator
import pickle
import random
import sys
import tracemalloc

import pytest
from hypothesis import given

from congruence_lab import (
    BadModulus,
    CapExceeded,
    IntMatrix,
    ModMatrix,
    ParseError,
    decompose_mod,
    enumerate_sl,
    gamma_member,
    lift_to_int,
    minkowski_probe,
    mod_spectrum,
    phi_general,
    sample_sl,
    sl_elements,
    sl_order_formula,
)

from congruence_lab import modular, primes
from congruence_lab.modular import _check_enumeration, _completions, _sl_rows
from congruence_lab.primes import _crt_plan, factorize

from tests.helpers import brute_force_sl, det_permutation_oracle, unimodular_matrices


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


def test_crt_idempotent():
    # for every q = p^s || N: the one e in [0, N) that is 1 mod q and 0 mod N/q
    for N in range(2, 501):
        plan = _crt_plan(N)
        assert [(p, s) for p, s, _, _ in plan] == factorize(N)
        for p, s, q, e in plan:
            assert q == p**s
            assert 0 <= e < N and e % q == 1 and e % (N // q) == 0
            assert e * e % N == e
        assert sum(e for *_, e in plan) % N == 1  # the idempotents of the factors split 1
    assert [e for *_, e in _crt_plan(4)] == [1] and [e for *_, e in _crt_plan(6)] == [3, 4]


def test_crt_plan_factors_each_modulus_once(monkeypatch):
    # enumeration, spectra, the index, words and lifts all read the cached plan,
    # so between them they factor a modulus once
    factorize, calls = primes.factorize, []

    def counted(N):
        calls.append(N)
        return factorize(N)

    N = 1000003 * 1000033
    monkeypatch.setattr(primes, "factorize", counted)
    _crt_plan.cache_clear()
    try:
        y = ModMatrix(sample_sl(3, 12, 5).rows, N)
        order = math.prod(p**3 * (p**2 - 1) * (p**3 - 1) for p in (1000003, 1000033))
        for _ in range(10):
            assert decompose_mod(y).evaluate() == y
            assert ModMatrix(lift_to_int(y).rows, N) == y
            assert sl_order_formula(3, N) == order
        assert calls == [N]
        plan = _crt_plan(N)
        assert [(p, s, q) for p, s, q, _ in plan] == [(1000003, 1, 1000003), (1000033, 1, 1000033)]
        assert all(e % q == 1 and e % (N // q) == 0 for _, _, q, e in plan)
        for _ in range(2):
            els = enumerate_sl(2, 12)
            assert len(els) == sl_order_formula(2, 12) == 1152
            assert mod_spectrum(2, 12) == {1, 2, 3, 4, 6, 12}
            for y in els[::37]:
                assert decompose_mod(y).evaluate() == y
                assert ModMatrix(lift_to_int(y).rows, 12) == y
        assert calls == [N, 12]
    finally:
        _crt_plan.cache_clear()


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


def test_cap_exceeded_carries_required_value():
    with pytest.raises(CapExceeded) as exc:
        enumerate_sl(3, 12)
    assert exc.value.requested == 12**9
    assert exc.value.cap == 10_000_000
    assert str(exc.value.requested) in str(exc.value)


@pytest.mark.parametrize("n,N", [(2, N) for N in range(2, 13)] + [(3, N) for N in (2, 3, 4)])
def test_enumerate_sl_matches_brute_force(n, N):
    assert enumerate_sl(n, N) == brute_force_sl(n, N)


@pytest.mark.parametrize(
    "n,p,s",
    [(2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (2, 7, 1), (2, 2, 3), (2, 3, 2), (2, 11, 1),
     (3, 2, 1), (3, 3, 1), (3, 2, 2)],
)
def test_sl_local_is_sorted_and_matches_brute_force(n, p, s):
    # the listing of SL_n(Z/p^s) comes out strictly increasing with no sort;
    # the brute-force walk is in order too
    local = _sl_rows(n, p**s)
    assert all(a < b for a, b in zip(local, local[1:]))
    assert local == [y.rows for y in brute_force_sl(n, p**s)]


def test_sl_local_n4_is_sorted_with_det_one():
    # 2^16 entry tuples: the closed-form count and the Leibniz det are the oracle
    local = _sl_rows(4, 2)
    assert all(a < b for a, b in zip(local, local[1:]))
    assert all(det_permutation_oracle(rows) % 2 == 1 for rows in local)
    assert len(local) == sl_order_formula(4, 2)


def _solve_cases(n: int, N: int) -> list[tuple[int, ...]]:
    """Every vector at n = 2; at n = 3 a seeded sample, with one vector of each
    kind: gcd(c_n, N) = 1, a proper divisor of N, and N itself, a vector that
    is not unimodular, and c_1 = 0 with c_n a unit."""
    vectors = list(itertools.product(range(N), repeat=n))
    if n == 2:
        return vectors
    d = min(p for p, _ in factorize(N))
    kinds = [(2, 3, 1), (1, 2, d), (1, 1, 0), (d, d * (N // d - 1), 0), (0, 5 % N, N - 1)]
    return kinds + random.Random(N).sample(vectors, 40)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [4, 6, 8, 9, 12, 30])
def test_completions_match_a_filter_over_every_row(n, N):
    # the oracle: every row y of (Z/N)^n with cof.y = 1 mod N, in order
    space = list(itertools.product(range(N), repeat=n))
    cases = _solve_cases(n, N)
    gs = {math.gcd(cof[-1], N) for cof in cases if math.gcd(*cof, N) == 1}
    assert 1 in gs and N in gs and gs - {1, N}
    assert any(math.gcd(*cof, N) > 1 for cof in cases)
    assert any(cof[0] == 0 and math.gcd(cof[-1], N) == 1 for cof in cases)
    for cof in cases:
        ys = _completions(cof, N, space)
        expected = [y for y in space if sum(map(operator.mul, cof, y)) % N == 1]
        assert ys == expected, cof
        assert all(map(operator.is_, ys, expected))


@pytest.mark.parametrize("n,N", [(3, 4), (2, 12), (2, 30)])
def test_enumerate_sl_shares_rows(n, N):
    # one tuple per distinct row, not one per element: at most N^n row objects
    els = enumerate_sl(n, N)
    assert len({id(r) for y in els for r in y.rows}) <= N**n < len(els) * n


def test_enumerate_sl_three_crt_factors():
    # N = 30 = 2*3*5: the last entries run through progressions of all eight
    # steps N/g, g | 30. N^(n^2) tuples is too many to brute-force,
    # so the closed-form count and the shape of the list are the oracle.
    els = enumerate_sl(2, 30)
    assert len(els) == sl_order_formula(2, 30) == 6 * 24 * 120
    rows = [y.rows for y in els]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert all(y.modulus == 30 and y.det() == 1 for y in els)
    assert all(0 <= e < 30 for r in rows for row in r for e in row)


@pytest.mark.parametrize("n,N", [(3, 4), (2, 30), (4, 2)])
def test_enumerate_sl_bulk_built_elements_are_plain_mod_matrices(n, N):
    # enumerate_sl wraps its rows without calling the constructor, so the
    # validating constructor is the oracle for every element it returns
    els = enumerate_sl(n, N)
    assert len(els) == sl_order_formula(n, N)
    for m in els:
        assert type(m) is ModMatrix and not hasattr(m, "__dict__")
        assert m.modulus == N and m == ModMatrix(m.rows, N)
    rows = [m.rows for m in els]
    for back in (pickle.loads(pickle.dumps(els)), list(map(copy.copy, els))):
        assert [m.rows for m in back] == rows
        assert all(type(m) is ModMatrix and m.modulus == N for m in back)


def test_enumerate_sl_records_form_no_cycles():
    # the premise of the collector pause in enumerate_sl: its records hold
    # only tuples of ints, so once dropped, refcounting frees all of them
    gc.collect()
    for n, N in ((3, 4), (2, 12)):
        els = enumerate_sl(n, N)
        del els
    assert gc.collect() == 0


def test_enumerate_sl_starts_no_collection():
    # counts, not times: before the pause, enumerate_sl(3, 4) alone started
    # 125 collections on 3.10 and 3.11, 64 on 3.12 and 23 on 3.13. The one
    # young pass that the caller's next allocation may start comes after.
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    for n, N in ((3, 4), (2, 12)):
        gc.collect()
        gc.callbacks.append(hook)
        try:
            enumerate_sl(n, N)
        finally:
            gc.callbacks.remove(hook)
    assert starts == []


def test_enumerate_sl_restores_the_collector_state(monkeypatch):
    def boom(*args):
        raise RuntimeError("inside the pause")

    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            enumerate_sl(2, 12)
            assert gc.isenabled() is enabled
        with monkeypatch.context() as m:
            m.setattr(modular, "_sl_rows", boom)
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                with pytest.raises(RuntimeError, match="inside the pause"):
                    enumerate_sl(2, 12)
                assert gc.isenabled() is enabled
    finally:
        gc.enable()


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


@pytest.mark.parametrize("walk", WALKS)
def test_sl1_of_a_large_prime_builds_no_rows(walk):
    # SL_1 is trivial; listing the q one-entry rows of Z/q would take about 1 GB here
    tracemalloc.start()
    try:
        walk(1, 9999991)
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("walk", WALKS)
def test_huge_entry_space_is_refused_without_its_digits(walk):
    # 2^4000000 has 1.2M digits; it is named as a power and never built
    with pytest.raises(CapExceeded) as exc:
        walk(2000, 2)
    assert exc.value.requested is None and exc.value.cap == 10_000_000
    assert len(str(exc.value)) < 200 and "size 2^4000000 exceeds" in str(exc.value)


@pytest.mark.parametrize(
    "n,N,exact",
    [(119, 2, True), (120, 2, False), (94, 3, True), (95, 3, False),
     (2, 10**1075 - 1, True), (2, 10**1075, False)],
    ids=["2^14161", "2^14400", "3^8836", "3^9025", "(10^1075-1)^4", "10^4300"],
)
def test_cap_exceeded_digits_bound(n, N, exact):
    # exact up to 4300 digits (CPython's default int -> str limit), a power above;
    # 3^9025 has 4306 digits although its bit-length bound does not show it
    with pytest.raises(CapExceeded) as exc:
        _check_enumeration(n, N, None)
    size = N ** (n * n)
    assert (size < 10**4300) is exact
    assert exc.value.requested == (size if exact else None)
    assert f"size {size if exact else f'{N}^{n * n}'} exceeds" in str(exc.value)


def test_cap_past_the_digit_bound_is_compared_exactly():
    # a cap this long prints only with the int -> str limit lifted, as cli.run does
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _check_enumeration(120, 2, 2**14400)
        with pytest.raises(CapExceeded) as exc:
            _check_enumeration(120, 2, 2**14400 - 1)
    finally:
        sys.set_int_max_str_digits(limit)
    assert exc.value.requested is None


def test_cap_past_the_digit_limit_is_named_by_its_bits():
    # at CPython's default int -> str limit the cap cannot print; the error
    # is still CapExceeded, and names the cap by its bit length
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(CapExceeded) as exc:
            enumerate_sl(120, 2, cap=2**14400 - 1)
        message = str(exc.value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert exc.value.requested is None and exc.value.cap == 2**14400 - 1
    assert message == (
        "search space of size 2^14400 exceeds enumeration cap <14400-bit integer>; "
        "required cap: 2^14400"
    )


def test_cap_override():
    assert len(enumerate_sl(2, 2, cap=16)) == 6
    with pytest.raises(CapExceeded):
        enumerate_sl(2, 2, cap=15)


class _Index:
    """An integer stand-in with __index__ and nothing else: no comparison, power or bit_length."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


_T = IntMatrix(((1, 5), (0, 1)))


# (call, the same call with plain ints), or (call, None) where the call must raise TypeError
@pytest.mark.parametrize(
    "call,plain",
    [
        (lambda: gamma_member(_T, 2.5), None),
        (lambda: gamma_member(_T, _Index(5)), lambda: gamma_member(_T, 5)),
        (lambda: gamma_member(_T, True), lambda: gamma_member(_T, 1)),
        (lambda: sl_order_formula(2, 2.5), None),
        (lambda: sl_order_formula(2.0, 3), None),
        (lambda: sl_order_formula(_Index(2), _Index(3)), lambda: sl_order_formula(2, 3)),
        (lambda: sl_order_formula(True, 5), lambda: sl_order_formula(1, 5)),
        (lambda: enumerate_sl(2, 2.5), None),
        (lambda: enumerate_sl(2, 2, cap=16.0), None),
        (lambda: enumerate_sl(_Index(2), _Index(3), _Index(81)), lambda: enumerate_sl(2, 3)),
        (lambda: enumerate_sl(True, 2), lambda: enumerate_sl(1, 2)),
        (lambda: mod_spectrum(2, 2.5), None),
        (lambda: mod_spectrum(2, 3, cap=81.0), None),
        (lambda: mod_spectrum(_Index(2), _Index(3), _Index(81)), lambda: mod_spectrum(2, 3)),
        (lambda: minkowski_probe(3.5, 2, 1), None),
        (lambda: minkowski_probe(3, 2.0, 1), None),
        (lambda: minkowski_probe(_Index(3), _Index(2), 1), lambda: minkowski_probe(3, 2, 1)),
        (lambda: minkowski_probe(3, True, 1), lambda: minkowski_probe(3, 1, 1)),
        (lambda: phi_general(_T, 0.5), None),
        (lambda: phi_general(_T, _Index(5)), lambda: phi_general(_T, 5)),
        (lambda: list(sl_elements(2, 0.5)), None),
        (lambda: list(sl_elements(2, _Index(2))), lambda: list(sl_elements(2, 2))),
    ],
    ids=[
        "member-N-float", "member-N-index", "member-N-True",
        "index-N-float", "index-n-float", "index-index", "index-n-True",
        "enumerate-N-float", "enumerate-cap-float", "enumerate-index", "enumerate-True",
        "spectrum-N-float", "spectrum-cap-float", "spectrum-index",
        "probe-N-float", "probe-trials-float", "probe-index", "probe-trials-True",
        "phi-N-float", "phi-N-index", "sl-elements-m-float", "sl-elements-m-index",
    ],
)  # fmt: skip
def test_integer_arguments_go_through_index(call, plain):
    # a float is a TypeError, not a wrong answer or an AttributeError; an __index__
    # stand-in and True give the answer of the int they stand for, and ModMatrix
    # equality compares moduli, so an enumeration must carry the int modulus
    if plain is None:
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
    else:
        assert call() == plain()


@pytest.mark.parametrize(
    "n,N,expected",
    [
        (2, 2, 6), (2, 3, 24), (3, 2, 168), (2, 6, 144),
        (1, 1, 1), (2, 1, 1), (3, 1, 1), (5, 1, 1), (1, 7, 1),
    ],
)
def test_sl_order_formula_values(n, N, expected):
    assert sl_order_formula(n, N) == expected


def test_sl_order_formula_is_gl_over_units():
    # |SL_n(Z/p^s)| = p^((s-1)(n^2-1)) |GL_n(F_p)| / (p - 1), at sizes where the
    # formula multiplies by halves, and at a prime past trial division
    for n in (7, 9, 17, 40):
        for p, s in [(2, 1), (3, 2), (7, 3), (10**18 + 3, 1)]:
            gl = math.prod(p**n - p**i for i in range(n))
            assert sl_order_formula(n, p**s) == p ** ((s - 1) * (n * n - 1)) * gl // (p - 1)
    assert sl_order_formula(40, 12) == sl_order_formula(40, 4) * sl_order_formula(40, 3)


def test_modmatrix_text_roundtrip():
    y = ModMatrix(((0, 1), (1, 1)), 2)
    assert y.to_text() == "0,1;1,1 mod 2"
    assert ModMatrix.from_text("0,1;1,1 mod 2") == y
    assert ModMatrix.from_text(" 0 , 1 ; 1 , 1   mod  2 ") == y
    assert ModMatrix.from_text("0,1;1,1 mod \u0662") == y  # a decimal digit, as in entries
    with pytest.raises(ParseError, match=r"^missing 'mod N' suffix in '1,0;0,1'$"):
        ModMatrix.from_text("1,0;0,1")


def test_modmatrix_entries_reduced():
    y = ModMatrix(((5, -1), (7, 3)), 4)
    assert y.rows == ((1, 3), (3, 3))


def test_modmatrix_power():
    y = ModMatrix(((1, 1), (0, 1)), 5)
    assert y**5 == ModMatrix.identity(2, 5)
    assert y**0 == ModMatrix.identity(2, 5)
    with pytest.raises(ValueError):
        y**-1


def test_modmatrix_bad_modulus():
    with pytest.raises(BadModulus):
        ModMatrix(((1,),), 1)
    with pytest.raises(BadModulus):
        sl_order_formula(2, 0)
    with pytest.raises(ValueError, match=r"^dimension must be >= 1$"):
        sl_order_formula(0, 5)
