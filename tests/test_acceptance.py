"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every value comparison is strict equality
(tolerance 0); the only non-exact limits here are the stated wall-clock
budgets. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from congruence_lab import (
    IntMatrix,
    decompose_int,
    decompose_mod,
    enumerate_sl,
    gamma_member,
    lift_to_int,
    matrix_order,
    minkowski_probe,
    mod_reduce,
    mod_spectrum,
    phi_general,
    phi_general_preimage,
    phi_k,
    phi_preimage,
    power_congruence_check,
    sample_gamma,
    sample_sl,
    sl_basis,
    sl_elements,
    sl_order_formula,
    spectrum_bound,
    witness_p,
    witness_rf,
)

from tests.helpers import brute_force_sl, det_permutation_oracle

GRID = [(n, p, k) for n in (2, 3) for p in (2, 3, 5) for k in (1, 2, 3)]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_index_formula_vs_brute_force():
    t0 = time.time()
    mismatches = []
    for n, N in [(2, N) for N in range(2, 13)] + [(3, N) for N in (2, 3, 4)]:
        elements = enumerate_sl(n, N)
        rows = [m.rows for m in elements]
        # strictly sorted reduced entries (so distinct), det 1, closed-form
        # count: together these make the list all of SL_n(Z/N)
        whole_group = (
            all(a < b for a, b in zip(rows, rows[1:]))
            and all(0 <= e < N for r in rows for row in r for e in row)
            and all(det_permutation_oracle(r) % N == 1 for r in rows)
            and len(elements) == sl_order_formula(n, N)
        )
        if not whole_group or elements != brute_force_sl(n, N):
            mismatches.append((n, N))
    anchors_ok = (
        sl_order_formula(2, 2) == 6
        and sl_order_formula(2, 3) == 24
        and sl_order_formula(3, 2) == 168
    )
    elapsed = time.time() - t0
    ok = not mismatches and anchors_ok and elapsed < 30.0
    _report(1, ok, f"14 cases, anchors 6/24/168, {elapsed:.2f}s")
    assert not mismatches, mismatches
    assert anchors_ok
    assert elapsed < 30.0


def test_criterion_2_torsion_facts():
    t0 = time.time()
    order4_ok = matrix_order(IntMatrix([[0, -1], [1, 0]])).value == 4
    order6_ok = matrix_order(IntMatrix([[0, -1], [1, 1]])).value == 6
    spec2_ok = mod_spectrum(2, 2) == frozenset({1, 2, 3})
    spec3_ok = mod_spectrum(2, 3) == frozenset({1, 2, 3, 4, 6})
    bound_ok = spectrum_bound(frozenset({1, 2}), frozenset({1, 2, 3})) == frozenset(
        {1, 2, 3, 4, 6}
    )
    elapsed = time.time() - t0
    ok = order4_ok and order6_ok and spec2_ok and spec3_ok and bound_ok and elapsed < 5.0
    _report(2, ok, f"orders 4/6, spectra mod 2 and 3, product bound, {elapsed:.2f}s")
    assert order4_ok and order6_ok and spec2_ok and spec3_ok and bound_ok
    assert elapsed < 5.0


def test_criterion_3_elementary_generation_roundtrip():
    t0 = time.time()
    failures = 0
    for n in (2, 3):
        for t in range(1000):
            x = sample_sl(n, 3 + t % 20, seed=100_000 * n + t)
            if decompose_int(x).evaluate() != x:
                failures += 1
    mod6 = enumerate_sl(2, 6)
    count_ok = len(mod6) == 144
    for y in mod6:
        if decompose_mod(y).evaluate() != y:
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and count_ok and elapsed < 60.0
    _report(3, ok, f"2000 integer samples + 144 mod-6 cases, {elapsed:.2f}s")
    assert failures == 0 and count_ok
    assert elapsed < 60.0


def test_criterion_4_congruence_surjectivity():
    total = 0
    failures = 0
    for N in range(2, 7):
        for y in enumerate_sl(2, N):
            lifted = lift_to_int(y)
            total += 1
            if lifted.det() != 1 or mod_reduce(lifted, N) != y:
                failures += 1
    ok = failures == 0
    _report(4, ok, f"{total} lifts across N=2..6, every one reduces back")
    assert failures == 0


def test_criterion_5_depth_map_suite():
    failures = []
    for n, p, k in GRID:
        q = p**k
        for t in range(1000):
            x = sample_gamma(n, q, 4, seed=2 * t)
            y = sample_gamma(n, q, 4, seed=2 * t + 1)
            if phi_k(x * y, p, k) != phi_k(x, p, k) + phi_k(y, p, k):
                failures.append(("additivity", n, p, k))
                break
        for t in range(100):
            x = sample_gamma(n, q, 4, seed=5000 + t)
            if phi_k(x, p, k).is_zero() != gamma_member(x, q * p):
                failures.append(("kernel", n, p, k))
                break
            deep = sample_gamma(n, q * p, 4, seed=6000 + t)
            if not phi_k(deep, p, k).is_zero():
                failures.append(("kernel-contains", n, p, k))
                break
        for b in sl_basis(n, p):
            if phi_k(phi_preimage(b, p, k), p, k) != b:
                failures.append(("surjectivity", n, p, k))
                break
        if sl_order_formula(n, p ** (k + 1)) // sl_order_formula(n, p**k) != p ** (n * n - 1):
            failures.append(("cardinality", n, p, k))
    # literal image cardinality on the small cells: hit every element
    for p, k in [(2, 1), (2, 2), (3, 1)]:
        images = {phi_k(phi_preimage(t, p, k), p, k) for t in sl_elements(2, p)}
        if len(images) != p**3:
            failures.append(("image-count", 2, p, k))
    ok = not failures
    _report(5, ok, f"{len(GRID)} (n,p,k) cells, 1000 additivity pairs each")
    assert not failures, failures


def test_criterion_6_power_congruence():
    failures = 0
    for n, p, k in GRID:
        for t in range(1000):
            x = sample_gamma(n, p**k, 4, seed=9000 + t)
            if not power_congruence_check(x, p, k):
                failures += 1
    ok = failures == 0
    _report(6, ok, f"1000 samples per cell over {len(GRID)} cells, {failures} failures")
    assert failures == 0


def test_criterion_7_minkowski_probe():
    # probe over the whole torsion family: no conjugate may enter Gamma(N>=3),
    # and any conjugate inside Gamma(2) must square to the identity
    reports = {N: minkowski_probe(N, 10_000, seed=31 * N) for N in (3, 4, 5, 6)}
    probe_ok = all(r["failures"] == 0 for r in reports.values())
    # dedicated sweep: 10,000 seeded conjugates of each of the order-4 and
    # order-6 elements; level < 3 excludes Gamma(N) for every N in 3..6
    import random

    from congruence_lab import TORSION_ORDER_4, TORSION_ORDER_6, gamma_level
    from congruence_lab.intmat import IntMatrix as _IM, random_elementary_rows

    rng = random.Random(2024)
    sweep_ok = True
    for _ in range(10_000):
        g = _IM(random_elementary_rows(2, rng.randrange(2, 10), rng, bound=5))
        g_inv = g.inverse()
        for t in (TORSION_ORDER_4, TORSION_ORDER_6):
            if gamma_level(g * t * g_inv) not in (1, 2):
                sweep_ok = False
    ok = probe_ok and sweep_ok
    _report(7, ok, "10000 conjugates per level N=3..6 plus dedicated order-4/6 sweep")
    assert probe_ok and sweep_ok


def test_criterion_8_witness_completeness():
    failures = 0
    produced = 0
    t = 0
    while produced < 1000:
        x = sample_sl(2, 3 + t % 17, seed=20_000 + t)
        t += 1
        if x.is_identity():
            continue
        produced += 1
        if witness_rf(x).image.is_identity():
            failures += 1
    for p in (2, 3):
        produced = 0
        t = 0
        while produced < 1000:
            x = sample_gamma(2, p, 3 + t % 9, seed=40_000 + t)
            t += 1
            if x.is_identity():
                continue
            produced += 1
            w = witness_p(x, p)
            q = w.quotient_order
            while q % p == 0:
                q //= p
            if w.image.is_zero() or q != 1:
                failures += 1
    ok = failures == 0
    _report(8, ok, f"1000 witnesses per route (rf, p=2, p=3), {failures} failures")
    assert failures == 0


def test_criterion_9_general_depth_map():
    failures = []
    for N in (2, 3, 4):
        for t in sl_elements(2, N):
            if phi_general(phi_general_preimage(t), N) != t:
                failures.append(("surjectivity", N))
                break
        family = [
            sample_gamma(2, N, length, seed=70_000 + 10 * length + s)
            for length in (1, 2, 3)
            for s in range(10)
        ]
        family += [
            sample_gamma(2, N * N, length, seed=80_000 + 10 * length + s)
            for length in (1, 2)
            for s in range(10)
        ]
        for x in family:
            if phi_general(x, N).is_zero() != gamma_member(x, N * N):
                failures.append(("kernel", N))
                break
    ok = not failures
    _report(9, ok, "image spans sl_2(Z/N), kernel is Gamma(N^2), N=2,3,4")
    assert not failures, failures
