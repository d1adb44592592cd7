import json
from math import comb

import pytest

from congruence_lab import (
    BadModulus,
    IntMatrix,
    NotUnimodular,
    TORSION_ORDER_4,
    TORSION_ORDER_6,
    candidate_orders,
    gamma_level,
    gamma_member,
    matrix_order,
    minkowski_probe,
    mod_spectrum,
    sample_sl,
    selfcheck,
    sl_order_formula,
)

from tests.helpers import brute_force_spectrum, candidate_orders_walk


def test_candidate_orders_small_dimensions():
    assert candidate_orders(1) == frozenset({1, 2})
    assert candidate_orders(2) == frozenset({1, 2, 3, 4, 6})
    # frozen by hand: subsets of {1,2,3,4,6} with totient sum <= 3 give the same lcms
    assert candidate_orders(3) == frozenset({1, 2, 3, 4, 6})


@pytest.mark.parametrize("n", range(1, 21))
def test_candidate_orders_match_subset_walk(n):
    assert candidate_orders(n) == candidate_orders_walk(n)


def test_candidate_orders_grow_with_dimension():
    assert {5, 8, 10, 12} <= candidate_orders(4)


def test_candidate_orders_divisor_closed():
    for n in (2, 3, 4):
        cands = candidate_orders(n)
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
    cands = candidate_orders(2)
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


def test_mod_spectrum_divisor_closed_and_lagrange_bounded():
    for n, N in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]:
        spec = mod_spectrum(n, N)
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
