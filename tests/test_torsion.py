import hashlib
import json
import time
import tracemalloc
from collections import Counter
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
from congruence_lab.torsion import _charpoly, _charpoly_prime
from tests.helpers import (
    brute_force_orders,
    brute_force_spectrum,
    candidate_orders_walk,
    charpoly_by_faddeev_leverrier,
    cyclic_walk_spectrum,
    det_permutation_oracle,
    int_matrices,
    order_by_candidate_powers,
    sl_class_sizes,
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


@given(st.tuples(st.integers(1, 6), st.sampled_from((7, 10**6))).flatmap(lambda nb: int_matrices(*nb)))
def test_charpoly_matches_leibniz_at_n_plus_1_points(a):
    # n + 1 values fix a polynomial of degree n: the oracle's exactly, chi's mod P
    chi, exact, n = _charpoly(a.rows), charpoly_by_faddeev_leverrier(a.rows), a.n
    P = _charpoly_prime(n)
    assert len(chi) == n + 1 and all(abs(c) <= P // 2 for c in chi)
    for t in range(n + 1):
        shifted = [[t * (i == j) - e for j, e in enumerate(r)] for i, r in enumerate(a.rows)]
        det = det_permutation_oracle(shifted)
        assert sum(c * t**k for k, c in enumerate(exact)) == det
        assert sum(c * t**k for k, c in enumerate(chi)) % P == det % P
    if all(abs(c) <= P // 2 for c in exact):
        assert chi == exact


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


def _companion_of(chi) -> IntMatrix:
    """Companion matrix of the monic chi, coefficients lowest degree first."""
    n = len(chi) - 1
    return IntMatrix([[int(j == i - 1) for j in range(n - 1)] + [-chi[i]] for i in range(n)])


def _companion(n: int) -> IntMatrix:
    """Companion matrix of t^n - 3t + (-1)^n for n >= 2. It has det 1, trace
    0 from n = 3 on, and a real root strictly between -1 and 1, which is no
    root of unity: its order is infinite."""
    return _companion_of([(-1) ** n, -3] + [0] * (n - 2) + [1])


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


def test_charpoly_primes_are_mersenne_primes_above_the_coefficient_bound():
    # Lucas-Lehmer: for an odd prime e, 2^e - 1 is prime iff s_(e-2) = 0, where
    # s_0 = 4 and s_(i+1) = s_i^2 - 2; the last exponent, 86243, would take minutes
    for e in torsion._MERSENNE_EXPONENTS[:-1]:
        P, s = 2**e - 1, 4
        for _ in range(e - 2):
            s = (s * s - 2) % P
        assert s == 0
    assert [_charpoly_prime(n).bit_length() for n in (1, 63, 64, 91, 92)] == [61, 61, 89, 89, 107]
    for n in (1, 2, 63, 64, 91, 92, 525):
        P = _charpoly_prime(n)
        assert P > 2 * comb(n, n // 2)
        assert all(2**e - 1 <= 2 * comb(n, n // 2) for e in torsion._MERSENNE_EXPONENTS if 2**e - 1 < P)


@pytest.mark.parametrize("n", [64, 66])
def test_minus_one_has_order_2_where_its_charpoly_passes_2_to_the_61(n):
    # chi = (t + 1)^n, and C(64, 32) > (2^61 - 1)/2: mod 2^61 - 1 it would wrap
    assert 2 * comb(n, n // 2) > 2**61 - 1
    assert matrix_order((-1) * IntMatrix.identity(n)) == OrderResult(2)


@pytest.mark.parametrize("n", [3, 6, 11])
def test_charpoly_that_is_cyclotomic_only_mod_p_is_infinite_order(n, monkeypatch):
    # chi = (t - 1)^n + P*t^(n//2) has trace n and det 1, and chi = (t - 1)^n
    # mod P, so the lift strips to Phi_1^n and m = 1: one power, x^1 != 1,
    # decides, well within a second
    P = _charpoly_prime(n)
    chi = [comb(n, k) * (-1) ** (n - k) for k in range(n + 1)]
    lift = tuple(chi)
    chi[n // 2] += P
    powers = []
    power = IntMatrix.__pow__
    monkeypatch.setattr(IntMatrix, "__pow__", lambda x, e: powers.append(e) or power(x, e))
    for x in (_companion_of(chi), _conjugate(_companion_of(chi), n)):
        assert x.trace() == n and x.det() == 1
        assert charpoly_by_faddeev_leverrier(x.rows) == tuple(chi)
        assert _charpoly(x.rows) == lift
        t0 = time.perf_counter()
        assert matrix_order(x) == OrderResult(None)
        assert time.perf_counter() - t0 < 1.0
    assert powers == [1, 1]


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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 101, 211])
def test_sl2_of_a_prime_field_has_the_classical_spectrum(p):
    # split and non-split tori give the divisors of p - 1 and p + 1; the
    # unipotents +-(1 1; 0 1) give p and 2p. The default cap refuses p^4 past 10^7.
    # 5 s refuses the route that formed every polynomial over F_p: 6.5 s at p = 211.
    cap = p**4 if p > 53 else None
    t0 = time.perf_counter()
    assert mod_spectrum(2, p, cap=cap) == _divisors(p - 1) | _divisors(p + 1) | {p, 2 * p}
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("n,p", [(6, 2), (4, 3), (3, 5), (2, 211)])
def test_block_orbits_count_the_irreducible_polynomials(n, p):
    # Gauss: the monic irreducibles of degree d number (1/d) * sum over k | d of
    # mu(d/k) * p^k, t among them; one orbit of exponents stands for each other one
    def mu(m):
        primes = factorize(m)
        return 0 if any(e > 1 for _, e in primes) else (-1) ** len(primes)

    orbits = [d for size, _, _, d, _ in torsion._blocks(n, p) if size == d]
    for d in range(1, n + 1):
        gauss = sum(mu(d // k) * p**k for k in _divisors(d)) // d
        assert orbits.count(d) == gauss - (d == 1)


def test_mod_spectrum_memory_follows_the_fibre():
    # the cyclic walk kept one dict entry per element: a 12 MB traced peak at
    # (3,4); a listed Gamma(2)/Gamma(4) of 2^15 elements, 5 MB at (4,4)
    tracemalloc.start()
    try:
        for n, N, cap in ((3, 4, None), (4, 4, 4**16)):
            tracemalloc.reset_peak()
            mod_spectrum(n, N, cap=cap)
            assert tracemalloc.get_traced_memory()[1] < 1_000_000, (n, N)
    finally:
        tracemalloc.stop()


# Spectra the cyclic walk cannot finish in a second: the fibre walks pinned
# from the route that listed Gamma(p)/Gamma(p^t) before walking it, and the
# prime cases from the route that formed every irreducible polynomial over F_p.
# That route took 2.3 s at (3, 31); each case must answer within 5 s.
@pytest.mark.parametrize(
    "n,N,orders",
    [
        (3, 8, {1, 2, 3, 4, 6, 7, 8, 12, 14, 16, 28}),
        (3, 9, {1, 2, 3, 4, 6, 8, 9, 12, 13, 18, 24, 39}),
        (4, 4, {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15, 30}),
        (3, 5, {1, 2, 3, 4, 5, 6, 8, 10, 12, 20, 24, 31}),
        (3, 7, {1, 2, 3, 4, 6, 7, 8, 12, 14, 16, 19, 21, 24, 42, 48, 57}),
        (4, 3, {1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 18, 20, 24, 26, 40}),
        (4, 5, {1, 2, 3, 4, 5, 6, 8, 10, 12, 13, 15, 20, 24, 26, 30, 31, 39, 52, 60, 62, 78, 124, 156}),
        (5, 3, {1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 16, 18, 20, 24, 26, 39, 40, 52, 78, 80, 104, 121}),
        (6, 2, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 21, 28, 30, 31, 63}),
        (6, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 22, 24, 26, 28,
                30, 36, 39, 40, 52, 60, 78, 80, 91, 104, 120, 121, 182, 242, 364}),
        (3, 11, {1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 15, 19, 20, 22, 24, 30, 40, 55, 60, 110, 120, 133}),
        (3, 31, {1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 30, 31, 32, 40, 48, 60, 62, 64, 80, 93, 96,
                 120, 155, 160, 186, 192, 240, 310, 320, 331, 465, 480, 930, 960, 993}),
    ],
)
def test_mod_spectrum_pinned_fibre_walks(n, N, orders):
    t0 = time.perf_counter()
    assert mod_spectrum(n, N, cap=N ** (n * n)) == orders
    assert time.perf_counter() - t0 < 5.0


# The class equation: the classes mod_spectrum reads at a prime are every class
# of SL_n(F_p), each once, if their sizes add up to the order of the group. The
# eight prime cases above, then three larger primes, with 103 to 994 classes.
@pytest.mark.parametrize("n,p", [(3, 5), (3, 7), (4, 3), (4, 5), (5, 3), (6, 2), (6, 3), (3, 11),
                                 (2, 101), (2, 211), (3, 31)])
def test_class_sizes_add_up_to_the_group(n, p):
    assert sum(size for _, size in sl_class_sizes(n, p)) == sl_order_formula(n, p)


@pytest.mark.parametrize("n,p", [(2, 5), (2, 7), (3, 2), (3, 3)])
def test_class_sizes_count_the_elements_of_each_order(n, p):
    counts = Counter()
    for order, size in sl_class_sizes(n, p):
        counts[order] += size
    assert counts == brute_force_orders(n, p)


def test_mod_spectrum_divisor_closed_and_lagrange_bounded():
    cases = [(2, 2, None), (2, 3, None), (2, 4, None), (2, 5, None), (3, 2, None),
             (3, 5, None), (3, 7, 7**9), (4, 3, 3**16),
             # Gamma(p)/Gamma(p^t) walked as it is generated: |K| = 3^15, 3^16, 2^24.
             # 30 s each refuses listing K first: minutes, gigabytes or a MemoryError.
             (4, 9, 9**16), (3, 27, 27**9), (5, 4, 4**25)]
    for n, N, cap in cases:
        t0 = time.perf_counter()
        spec = mod_spectrum(n, N, cap=cap)
        assert time.perf_counter() - t0 < 30.0, (n, N)
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


def test_minkowski_probe_tests_the_same_conjugates(monkeypatch):
    # every conjugate the probe tests against Gamma(N), not just the first 5
    # examples of each report: a drift in the draws at any trial shows here
    h, count = hashlib.sha256(), 0
    is_one_mod = torsion.is_one_mod

    def record(rows, N):
        nonlocal count
        if N != 2:
            h.update(repr(rows).encode())
            count += 1
        return is_one_mod(rows, N)

    monkeypatch.setattr(torsion, "is_one_mod", record)
    for N in range(3, 7):
        for seed in (0, 7, 123):
            minkowski_probe(N, 2000, seed)
    assert count == 24000
    assert h.hexdigest() == "c47e749868212b36a4eaba21891e09997547341ea0120e9ae3970ff24029c8d9"


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
