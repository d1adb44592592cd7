"""Built-in invariant suite behind the CLI's selfcheck subcommand.

Each check re-derives a fact two ways (closed form vs enumeration, map vs
preimage, sampled law vs definition) and reports pass/fail. This registry
is the only statement of the invariants, in the library or in tests/: full
mode is the acceptance suite (tests/test_acceptance.py runs it at seed 0),
and quick mode shrinks samples and ranges to finish in under a second.
depth-map-chain and witness-coverage check Malcev's residual (p-)finiteness;
minkowski-probe and power-congruence (x^p in Gamma(p^(k+1)) for x in
Gamma(p^k)) check that Gamma(N) is torsion-free for N >= 3, the core of
Selberg's lemma.
"""

from __future__ import annotations

import itertools
import math

from .gamma import gamma_member, sample_gamma
from .intmat import IntMatrix, ModMatrix, product_of_rows, require_det_one, sample_sl
from .modular import enumerate_sl
from .primes import factorize, sl_order_formula
from .torsion import (
    TORSION_ORDER_4,
    TORSION_ORDER_6,
    matrix_order,
    minkowski_probe,
    mod_spectrum,
)
from .witnesses import (
    phi_general,
    phi_general_preimage,
    phi_k,
    phi_preimage,
    sl_basis,
    sl_elements,
    witness_p,
    witness_rf,
)
from .words import decompose_int, decompose_mod, lift_to_int

__all__ = ["run_selfcheck", "CHECK_NAMES"]


def _sl_list_fault(elements: list[ModMatrix], n: int, N: int) -> str | None:
    """Why `elements` is not all of SL_n(Z/N), or None if it is.

    Reduced entries in strictly increasing order make the elements distinct;
    with determinant 1 throughout and the closed-form count, the list is the
    whole group.
    """
    rows = [m.rows for m in elements]
    if any(a >= b for a, b in zip(rows, rows[1:])):
        return f"list for (n={n}, N={N}) is not strictly sorted"
    for m in elements:
        if m.modulus != N or any(not 0 <= e < N for r in m.rows for e in r) or m.det() != 1:
            return f"{m} is not a reduced element of SL_{n}(Z/{N})"
    if len(elements) != sl_order_formula(n, N):
        return f"count mismatch at (n={n}, N={N})"
    return None


def _check_index_formula(quick: bool, seed: int):
    cases = [(2, N) for N in range(2, 7 if quick else 13)]
    cases += [(3, N) for N in ((2,) if quick else (2, 3, 4))]
    for n, N in cases:
        fault = _sl_list_fault(enumerate_sl(n, N), n, N)
        if fault:
            return False, fault
    # The wording is frozen with the rest of the report's bytes.
    return True, f"{len(cases)} (n, N) cases agree with brute force"


def _check_crt_multiplicativity(quick: bool, seed: int):
    top = 30 if quick else 120
    for n in (2, 3):
        for N in range(2, top + 1):
            expected = math.prod(sl_order_formula(n, p**s) for p, s in factorize(N))
            if sl_order_formula(n, N) != expected:
                return False, f"not multiplicative at (n={n}, N={N})"
    return True, f"orders multiplicative over CRT for n in (2,3), N <= {top}"


def _check_prime_power_orders(quick: bool, seed: int):
    cases = [(2, 2, 2)] if quick else [(2, 2, 2), (2, 2, 3), (2, 3, 2)]
    for n, p, k in cases:
        tower, base = enumerate_sl(n, p**k), enumerate_sl(n, p)
        fault = _sl_list_fault(tower, n, p**k) or _sl_list_fault(base, n, p)
        if fault:
            return False, fault
        if len(tower) != p ** ((k - 1) * (n * n - 1)) * len(base):
            return False, f"|SL_{n}(Z/{p}^{k})| != p^((k-1)(n^2-1)) * |SL_{n}(Z/{p})|"
    return True, f"{len(cases)} prime-power cases verified by enumeration"


def _check_reduction_homomorphism(quick: bool, seed: int):
    trials = 50 if quick else 500
    for n in (2, 3):
        for t in range(trials):
            x = sample_sl(n, 6, seed + 2 * t)
            y = sample_sl(n, 6, seed + 2 * t + 1)
            xy = (x * y).rows
            for N in (2, 5, 6, 9):
                if ModMatrix(xy, N) != ModMatrix(x.rows, N) * ModMatrix(y.rows, N):
                    return False, f"reduction mod {N} not a homomorphism"
    return True, f"homomorphism law on {2 * trials} sampled pairs, four moduli"


def _check_decompose_int(quick: bool, seed: int):
    trials, shortest, spread = (40, 4, 12) if quick else (1000, 3, 20)
    for n in (2, 3):
        for t in range(trials):
            x = sample_sl(n, shortest + t % spread, seed + t)
            if decompose_int(x).evaluate() != x:
                return False, f"round-trip failed for {x}"
    return True, f"{2 * trials} euclidean decompositions round-trip exactly"


def _check_decompose_mod(quick: bool, seed: int):
    for N in (4, 6):
        for y in enumerate_sl(2, N):
            if decompose_mod(y).evaluate() != y:
                return False, f"round-trip failed for {y}"
    return True, "all of SL_2(Z/4) and SL_2(Z/6) decompose and round-trip"


def _check_lift_surjectivity(quick: bool, seed: int):
    top = 4 if quick else 6
    total = 0
    for N in range(2, top + 1):
        for y in enumerate_sl(2, N):
            lifted = lift_to_int(y)
            if lifted.det() != 1 or ModMatrix(lifted.rows, N) != y:
                return False, f"bad lift for {y}"
            total += 1
    return True, f"{total} lifts reduce back correctly with det 1"


def _check_torsion_facts(quick: bool, seed: int):
    if matrix_order(TORSION_ORDER_4).value != 4:
        return False, "order-4 element misidentified"
    if matrix_order(TORSION_ORDER_6).value != 6:
        return False, "order-6 element misidentified"
    if matrix_order(IntMatrix(((1, 1), (0, 1)))).kind != "infinite":
        return False, "unipotent should have infinite order"
    if mod_spectrum(2, 2) != frozenset({1, 2, 3}):
        return False, "spectrum of SL_2(Z/2) wrong"
    if mod_spectrum(2, 3) != frozenset({1, 2, 3, 4, 6}):
        return False, "spectrum of SL_2(Z/3) wrong"
    # Orders in SL_2(Z/4) divide (kernel order) * (order in SL_2(Z/2)); the kernel has exponent 2.
    bound = {k * r for k in (1, 2) for r in mod_spectrum(2, 2)}
    if bound != {1, 2, 3, 4, 6} or not mod_spectrum(2, 4) <= bound:
        return False, "spectrum bound wrong"
    return True, "orders 4 and 6 confirmed; spectra mod 2 and 3 match; bound is {1,2,3,4,6}"


def _check_minkowski(quick: bool, seed: int):
    trials = 300 if quick else 10_000
    levels = (3, 4) if quick else (3, 4, 5, 6)
    for N in levels:
        report = minkowski_probe(N, trials, seed + N)
        if report["failures"] != 0:
            return False, f"probe failed at level {N}"
    # Full mode also checks each conjugate against every level at once: its
    # exact level, the gcd of the entries of x - 1, must be 1 or 2, which
    # rules out Gamma(N) for all N >= 3. Rows only: g^-1 is the adjugate.
    for t in range(0 if quick else trials):
        g = sample_sl(2, 2 + t % 8, seed + t)
        require_det_one(g)
        (a, b), (c, d) = g.rows
        for torsion in (TORSION_ORDER_4, TORSION_ORDER_6):
            (w, x), (y, z) = product_of_rows(product_of_rows(g.rows, torsion.rows), ((d, -b), (-c, a)))
            if math.gcd(w - 1, x, y, z - 1) not in (1, 2):
                return False, f"conjugate of {torsion} by {g} has level >= 3"
    return True, f"{trials} conjugates per level, levels {levels}, zero hits"


def _phi_grid(quick: bool):
    ns = (2,) if quick else (2, 3)
    ps = (2, 3) if quick else (2, 3, 5)
    ks = (1, 2) if quick else (1, 2, 3)
    return [(n, p, k) for n in ns for p in ps for k in ks]


def _check_phi_maps(quick: bool, seed: int):
    pairs, samples = (20, 20) if quick else (1000, 100)
    for n, p, k in _phi_grid(quick):
        q = p**k
        for t in range(pairs):
            x = sample_gamma(n, q, 4, seed + 3 * t)
            y = sample_gamma(n, q, 4, seed + 3 * t + 1)
            if phi_k(x * y, p, k) != phi_k(x, p, k) + phi_k(y, p, k):
                return False, f"additivity fails at (n={n}, p={p}, k={k})"
            if t >= samples:
                continue
            deep = sample_gamma(n, q * p, 4, seed + 3 * t + 2)
            if not phi_k(deep, p, k).is_zero():
                return False, f"kernel misses Gamma(p^(k+1)) at (n={n}, p={p}, k={k})"
            if phi_k(x, p, k).is_zero() != gamma_member(x, q * p):
                return False, f"kernel is not Gamma(p^(k+1)) at (n={n}, p={p}, k={k})"
        for b in sl_basis(n, p):
            if phi_k(phi_preimage(b, p, k), p, k) != b:
                return False, f"preimage misses basis element at (n={n}, p={p}, k={k})"
        ratio = sl_order_formula(n, p ** (k + 1)) // sl_order_formula(n, p**k)
        if ratio != p ** (n * n - 1):
            return False, f"successive quotient order wrong at (n={n}, p={p}, k={k})"
    # Full mode also counts the image literally: the preimages of all of
    # sl_2(Z/p) map to p^3 distinct elements.
    for p, k in [] if quick else [(2, 1), (2, 2), (3, 1)]:
        if len({phi_k(phi_preimage(b, p, k), p, k) for b in sl_elements(2, p)}) != p**3:
            return False, f"image of the depth map is not all of sl_2(Z/{p}) at k={k}"
    return True, f"additivity, kernel, surjectivity, and quotient order across {len(_phi_grid(quick))} cells"


def _check_power_congruence(quick: bool, seed: int):
    samples = 20 if quick else 1000
    for n, p, k in _phi_grid(quick):
        q = p**k
        for t in range(samples):
            x = sample_gamma(n, q, 4, seed + t)
            if not (gamma_member(x, q) and gamma_member(x**p, q * p)):
                return False, f"x^p escaped Gamma(p^(k+1)) at (n={n}, p={p}, k={k})"
    return True, f"{samples} samples per cell, all p-th powers descend one level"


def _nontrivial(sample, trials: int):
    """The first `trials` non-identity matrices among sample(0), sample(1), ..."""
    return itertools.islice(filter(lambda x: not x.is_identity(), map(sample, itertools.count())), trials)


def _check_witnesses(quick: bool, seed: int):
    trials, rf_spread, p_spread = (30, 10, 8) if quick else (1000, 17, 9)
    for x in _nontrivial(lambda t: sample_sl(2, 3 + t % rf_spread, seed + t), trials):
        if witness_rf(x).image.is_identity():
            return False, f"trivial residual-finiteness image for {x}"
    for p in (2, 3):
        for x in _nontrivial(lambda t: sample_gamma(2, p, 3 + t % p_spread, seed + t), trials):
            w = witness_p(x, p)
            if w.image.is_zero():
                return False, f"zero depth-map image for {x}"
            order = w.quotient_order
            while order % p == 0:
                order //= p
            if order != 1:
                return False, f"quotient order {w.quotient_order} is not a power of {p}"
    return True, f"{trials} witnesses per route, all images nontrivial"


def _check_depth_map_general(quick: bool, seed: int):
    for N in (2, 3, 4):
        for t in sl_elements(2, N):
            x = phi_general_preimage(t)
            if phi_general(x, N) != t:
                return False, f"preimage misses {t}"
        for length in (3,) if quick else (1, 2, 3):
            for t in range(15):
                shallow = sample_gamma(2, N, length, seed + 2 * t)
                deep = sample_gamma(2, N * N, length, seed + 2 * t + 1)
                if phi_general(shallow, N).is_zero() != gamma_member(shallow, N * N):
                    return False, f"kernel is not Gamma({N * N})"
                if not phi_general(deep, N).is_zero():
                    return False, f"Gamma({N * N}) escapes the kernel"
    return True, "depth map onto sl_2(Z/N) with kernel Gamma(N^2) for N in (2,3,4)"


_CHECKS = [
    ("index-formula-vs-enumeration", _check_index_formula),
    ("order-formula-crt-multiplicative", _check_crt_multiplicativity),
    ("prime-power-order-identity", _check_prime_power_orders),
    ("reduction-homomorphism", _check_reduction_homomorphism),
    ("decompose-int-roundtrip", _check_decompose_int),
    ("decompose-mod-exhaustive", _check_decompose_mod),
    ("lift-surjectivity", _check_lift_surjectivity),
    ("torsion-facts", _check_torsion_facts),
    ("minkowski-probe", _check_minkowski),
    ("depth-map-chain", _check_phi_maps),
    ("power-congruence", _check_power_congruence),
    ("witness-coverage", _check_witnesses),
    ("depth-map-general", _check_depth_map_general),
]

CHECK_NAMES = [name for name, _ in _CHECKS]


def run_selfcheck(quick: bool = False, seed: int = 0) -> dict:
    """Run every invariant check; returns a JSON-ready report."""
    checks = []
    failed = 0
    for name, fn in _CHECKS:
        ok, detail = fn(quick, seed)
        checks.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            failed += 1
    return {
        "mode": "quick" if quick else "full",
        "passed": len(checks) - failed,
        "failed": failed,
        "checks": checks,
    }
