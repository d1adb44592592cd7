import hashlib
import json
import tracemalloc
from math import comb, lcm

import hypothesis.strategies as st
import pytest
from hypothesis import given

from congruence_lab import (
    BadModulus,
    CounterexampleFound,
    IntMatrix,
    ModMatrix,
    NotUnimodular,
    OrderResult,
    TORSION_ORDER_4,
    TORSION_ORDER_6,
    gamma_level,
    gamma_member,
    matrix_order,
    minkowski_probe,
    mod_spectrum,
    sample_sl,
    selfcheck,
    sl_order_formula,
)

from congruence_lab.primes import euler_phi, factorize
from congruence_lab import torsion
from congruence_lab.torsion import _charpoly
from tests.helpers import (
    brute_force_spectrum,
    candidate_orders_walk,
    cyclic_walk_spectrum,
    det_permutation_oracle,
    int_matrices,
    order_by_candidate_powers,
)

# The subset walk behind order_by_candidate_powers, the reference for
# matrix_order, is pinned by hand, by divisor closure and by a closed form.


def test_candidate_orders_small_dimensions():
    assert candidate_orders_walk(1) == frozenset({1, 2})
    assert candidate_orders_walk(2) == frozenset({1, 2, 3, 4, 6})
    # frozen by hand: subsets of {1,2,3,4,6} with totient sum <= 3 give the same lcms
    assert candidate_orders_walk(3) == frozenset({1, 2, 3, 4, 6})


def _least_dimension(m: int) -> int:
    """Least n such that GL_n(Z) has an element of order m (Kuzmanovich and
    Pavlichenkov, 2002): the sum of phi(p^a) over the prime powers exactly
    dividing m, less 1 when m = 2 (mod 4) and m > 2."""
    if m == 2:
        return 1
    total = sum(euler_phi(p**a) for p, a in factorize(m))
    return total - 1 if m % 4 == 2 else total


@pytest.mark.parametrize("n", range(1, 21))
def test_candidate_orders_match_subset_walk(n):
    walk = candidate_orders_walk(n)
    # the closed form is checked up to four times the walk's largest order
    scan = range(1, 4 * max(walk) + 1)
    assert walk == frozenset(m for m in scan if _least_dimension(m) <= n)


def test_candidate_orders_grow_with_dimension():
    assert {5, 8, 10, 12} <= candidate_orders_walk(4)


def test_candidate_orders_divisor_closed():
    for n in (2, 3, 4):
        cands = candidate_orders_walk(n)
        for d in cands:
            for e in range(1, d + 1):
                if d % e == 0:
                    assert e in cands


def test_matrix_order_examples():
    assert matrix_order(TORSION_ORDER_4).value == 4
    assert matrix_order(TORSION_ORDER_6).value == 6
    assert matrix_order(IntMatrix([[1, 1], [0, 1]])).kind == "infinite"
    assert matrix_order(IntMatrix.identity(2)).value == 1
    assert matrix_order(IntMatrix([[-1, 0], [0, -1]])).value == 2


def test_matrix_order_requires_unimodular():
    with pytest.raises(NotUnimodular):
        matrix_order(IntMatrix([[0, 1], [1, 0]]))


def test_matrix_order_refuses_a_modulus():
    # order 4 in SL_2(Z/5), which an answer over Z would get wrong
    with pytest.raises(TypeError, match="mod_spectrum"):
        matrix_order(ModMatrix(((0, -1), (1, 0)), 5))


@given(st.integers(1, 6).flatmap(lambda n: int_matrices(n, bound=7)))
def test_charpoly_matches_leibniz_at_n_plus_1_points(a):
    # n + 1 values fix a monic polynomial of degree n
    chi, n = _charpoly(a.rows), a.n
    for t in range(n + 1):
        shifted = [[t * (i == j) - e for j, e in enumerate(r)] for i, r in enumerate(a.rows)]
        assert sum(c * t**k for k, c in enumerate(chi)) == det_permutation_oracle(shifted)


def _block_diagonal(blocks) -> IntMatrix:
    n = sum(b.n for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        rows += [(0,) * offset + r + (0,) * (n - offset - b.n) for r in b.rows]
        offset += b.n
    return IntMatrix(rows)


def _conjugate(x: IntMatrix, seed: int) -> IntMatrix:
    g = sample_sl(x.n, x.n + 2, seed)
    return g * x * g.inverse()


def _jordan(n: int) -> IntMatrix:
    return IntMatrix([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)])


def _permutation(n: int, cycles) -> IntMatrix:
    image, start = list(range(n)), 0
    for length in cycles:
        for k in range(length):
            image[start + k] = start + (k + 1) % length
        start += length
    return IntMatrix([[int(image[j] == i) for j in range(n)] for i in range(n)])


def _companion(n: int) -> IntMatrix:
    """Companion matrix of t^n - 3t + (-1)^n for n >= 2. It has det 1, trace
    0 from n = 3 on, and a real root strictly between -1 and 1, which is no
    root of unity: its order is infinite."""
    rows = [[int(j == i - 1) for j in range(n)] for i in range(n)]
    rows[0][n - 1] = -((-1) ** n)
    rows[1][n - 1] += 3
    return IntMatrix(rows)


def _differential_inputs(n: int) -> list[IntMatrix]:
    # words up to length 2n; the shorter ones often have |tr x| <= n
    xs = [sample_sl(n, length, seed) for length in (1, 2, n, 2 * n) for seed in range(10)]
    if n >= 2:
        # a characteristic polynomial with a factor that is not cyclotomic
        xs += [_companion(n), _conjugate(_companion(n), n)]
    # torsion blocks: the powers of the order-4 and order-6 elements
    pool = [TORSION_ORDER_4**k for k in (1, 2, 3)] + [TORSION_ORDER_6**k for k in range(1, 6)]
    one = IntMatrix.identity(1)
    for i in range(len(pool)):
        blocks = [pool[(i + j) % len(pool)] for j in range(n // 2)] + [one] * (n % 2)
        xs.append(_conjugate(_block_diagonal(blocks), i))
    # infinite order with a characteristic polynomial that is all cyclotomic
    cyclotomic = [_jordan(n)] if n >= 2 else []
    if n % 2 == 0:
        cyclotomic.append((-1) * _jordan(n))
    if n >= 4:
        cyclotomic.append(_block_diagonal([TORSION_ORDER_4, _jordan(n - 2)]))
    xs += cyclotomic + [_conjugate(x, n) for x in cyclotomic]
    return xs


@pytest.mark.parametrize("n", range(1, 9))
def test_matrix_order_matches_candidate_powers(n):
    charpoly_path_kinds = set()
    for x in _differential_inputs(n):
        result = matrix_order(x)
        assert result.value == order_by_candidate_powers(x), x
        if abs(x.trace()) <= n and not x.is_identity():
            charpoly_path_kinds.add(result.kind)
    if n >= 2:
        assert charpoly_path_kinds == {"finite", "infinite"}


@pytest.mark.parametrize(
    "n,cycles", [(12, (5, 7)), (15, (5, 7)), (15, (3, 5, 7))], ids=["35@12", "35@15", "105@15"]
)
def test_matrix_order_of_conjugated_permutations(n, cycles):
    x = _conjugate(_permutation(n, cycles), n)
    assert matrix_order(x).value == order_by_candidate_powers(x) == lcm(*cycles)


def test_non_cyclotomic_factor_is_decided_without_a_power(monkeypatch):
    monkeypatch.setattr(IntMatrix, "__pow__", lambda x, e: pytest.fail(f"x**{e} computed"))
    for n in (3, 8, 20):
        assert matrix_order(_conjugate(_companion(n), n)) == OrderResult(None)


def test_matrix_order_is_exact_at_n_24():
    # J - 1 is nilpotent and nonzero, and |tr| = 303 > 24 for the sample
    assert matrix_order(_jordan(24)) == OrderResult(None)
    assert matrix_order(sample_sl(24, 72, 24)) == OrderResult(None)


def test_matrix_order_is_minimal():
    ident = IntMatrix.identity(2)
    for x in (TORSION_ORDER_4, TORSION_ORDER_6, TORSION_ORDER_6 * TORSION_ORDER_6):
        d = matrix_order(x).value
        assert x**d == ident
        for e in range(1, d):
            if d % e == 0:
                assert x**e != ident


def test_conjugation_preserves_order():
    g = sample_sl(2, 8, seed=11)
    conj = g * TORSION_ORDER_6 * g.inverse()
    assert matrix_order(conj).value == 6


def test_sampled_finite_orders_stay_in_candidate_set():
    cands = candidate_orders_walk(2)
    for t in range(60):
        res = matrix_order(sample_sl(2, 5, seed=t))
        if res.is_finite:
            assert res.value in cands


def test_mod_spectrum_values():
    assert mod_spectrum(2, 2) == frozenset({1, 2, 3})
    assert mod_spectrum(2, 3) == frozenset({1, 2, 3, 4, 6})
    for N in (2, 3, 5):
        assert mod_spectrum(1, N) == frozenset({1})


@pytest.mark.parametrize("n,N", [(2, N) for N in range(2, 13)] + [(3, 2), (3, 3)])
def test_mod_spectrum_matches_brute_force(n, N):
    assert mod_spectrum(n, N) == brute_force_spectrum(n, N)


# Every case the cyclic walk over the whole group finishes in about a second.
SPECTRUM_ORACLE_CASES = (
    [(1, N) for N in (2, 3, 12, 9999991)]
    + [(2, N) for N in range(2, 33)]
    + [(3, 2), (3, 3), (3, 4), (4, 2)]
)


@pytest.mark.parametrize("n,N", SPECTRUM_ORACLE_CASES)
def test_mod_spectrum_matches_cyclic_walk(n, N):
    assert mod_spectrum(n, N) == cyclic_walk_spectrum(n, N)


def _divisors(m: int) -> set[int]:
    return {d for d in range(1, m + 1) if m % d == 0}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_sl2_of_a_prime_field_has_the_classical_spectrum(p):
    # split and non-split tori give the divisors of p - 1 and p + 1; the
    # unipotents +-(1 1; 0 1) give p and 2p
    assert mod_spectrum(2, p) == _divisors(p - 1) | _divisors(p + 1) | {p, 2 * p}


def test_mod_spectrum_memory_follows_the_fibre():
    # the cyclic walk kept one dict entry per element: a 12 MB traced peak here
    tracemalloc.start()
    try:
        mod_spectrum(3, 4)
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


def test_mod_spectrum_divisor_closed_and_lagrange_bounded():
    cases = [(2, 2, None), (2, 3, None), (2, 4, None), (2, 5, None), (3, 2, None),
             (3, 5, None), (3, 7, 7**9), (4, 3, 3**16)]
    for n, N, cap in cases:
        spec = mod_spectrum(n, N, cap=cap)
        assert 1 in spec
        for d in spec:
            assert sl_order_formula(n, N) % d == 0
            for e in range(1, d + 1):
                if d % e == 0:
                    assert e in spec


def test_torsion_facts_bound_the_spectrum_mod_4(monkeypatch):
    # an order 12 in SL_2(Z/4) is no kernel order (1 or 2) times an order mod 2
    real = selfcheck.mod_spectrum
    monkeypatch.setattr(
        selfcheck, "mod_spectrum", lambda n, N: real(n, N) | ({12} if (n, N) == (2, 4) else set())
    )
    assert dict(selfcheck._CHECKS)["torsion-facts"](True, 0) == (False, "spectrum bound wrong")


def test_binomial_torsion_identity():
    # for prime-order torsion X with X^q = 1: -q(X - 1) == sum_{i=2}^{q} C(q,i) (X-1)^i
    neg_ident = IntMatrix([[-1, 0], [0, -1]])
    order3 = TORSION_ORDER_6 * TORSION_ORDER_6
    g = sample_sl(2, 6, seed=3)
    cases = [(neg_ident, 2), (order3, 3), (g * order3 * g.inverse(), 3)]
    for x, q in cases:
        assert matrix_order(x).value == q
        diff = x - IntMatrix.identity(2)
        lhs = (-q) * diff
        rhs = IntMatrix([[0, 0], [0, 0]])
        for i in range(2, q + 1):
            rhs = rhs + comb(q, i) * diff**i
        assert lhs == rhs


def test_minkowski_probe_zero_trials():
    assert minkowski_probe(3, 0, seed=1) == {"trials": 0, "failures": 0, "examples": []}


def test_minkowski_probe_runs_clean():
    for N in (3, 4):
        report = minkowski_probe(N, 400, seed=7)
        assert report["failures"] == 0
        assert report["trials"] == 400
        assert len(report["examples"]) == 5
        json.dumps(report)  # the report must be JSON-serializable
        for ex in report["examples"]:
            assert ex["level"] in (1, 2)
            assert ex["order"] in (2, 3, 4, 6)


def test_minkowski_probe_reports_are_pinned_by_snapshot():
    # the bytes of every report: the draw order of the generator and every
    # example (matrix, order, level) must survive a rewrite of the trial
    h = hashlib.sha256()
    for N in range(3, 8):
        for seed in range(20):
            report = minkowski_probe(N, 300, seed)
            h.update((json.dumps(report, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == "5073685e3f517a50b1a7b2a3986890889e083f0f3b9b0c26d8357be9855a34c3"


@pytest.mark.parametrize(
    "t, N, message",
    [
        # the identity conjugates to itself, which lies in every Gamma(N)
        (((1, 0), (0, 1)), 4, r"lies in Gamma\(4\)"),
        # a conjugate of 1 + 2e_12 is 1 mod 2, not 1 mod 3, and of infinite order
        (((1, 2), (0, 1)), 3, "does not square to 1"),
    ],
    ids=["identity", "unipotent"],
)
def test_minkowski_probe_falsification_checks_fire(monkeypatch, t, N, message):
    monkeypatch.setattr(torsion, "_torsion_pool", lambda: [IntMatrix(t)])
    with pytest.raises(CounterexampleFound, match=message):
        minkowski_probe(N, 1, seed=0)


def test_full_minkowski_check_reports_a_conjugate_of_level_3(monkeypatch):
    # with 1 + 3e_12 in place of the order-6 element, the first conjugate, by
    # sample_sl(2, 2, 4) = (0 -1; 1 1), lies in Gamma(3); g's off-diagonal entries
    # are not 0 mod 3, so a wrong sign in g^-1 would miss it. No probe is run.
    monkeypatch.setattr(selfcheck, "minkowski_probe", lambda N, trials, seed: {"failures": 0})
    fake = IntMatrix([[1, 3], [0, 1]])
    monkeypatch.setattr(selfcheck, "TORSION_ORDER_6", fake)
    g = sample_sl(2, 2, 4)
    assert gamma_level(g * fake * g.inverse()) % 3 == 0
    assert dict(selfcheck._CHECKS)["minkowski-probe"](False, 4) == (
        False, f"conjugate of {fake} by {g} has level >= 3"
    )


def test_minkowski_probe_requires_level_3():
    with pytest.raises(BadModulus):
        minkowski_probe(2, 10, seed=0)
    with pytest.raises(ValueError):
        minkowski_probe(3, -1, seed=0)


def test_conjugates_of_rotation_have_low_level():
    for t in range(50):
        g = sample_sl(2, 6, seed=t)
        conj = g * TORSION_ORDER_4 * g.inverse()
        assert gamma_level(conj) in (1, 2)


def test_neg_identity_is_the_gamma2_torsion():
    neg_ident = IntMatrix([[-1, 0], [0, -1]])
    assert gamma_member(neg_ident, 2)
    assert matrix_order(neg_ident).value == 2
    assert neg_ident * neg_ident == IntMatrix.identity(2)
