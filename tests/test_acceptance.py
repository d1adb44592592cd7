"""Acceptance suite: every selfcheck invariant in full mode at seed 0.

The invariants live only in `congruence_lab.selfcheck`; this file runs them
and keeps the wall-clock budgets of criteria 1-3, the only inexact limits.
It also pins the sha256 of the full `selfcheck --plain` report, formatted by
the CLI from these same results, so the checks run once. Every sampled check
draws its matrices from a seed through getrandbits alone, so the bytes are
the same on every supported Python.
`pytest tests/test_acceptance.py -v -s` prints one
`acceptance <check>: PASS|FAIL (<detail>, <seconds>s)` line per check.
"""

import functools
import hashlib
import time

import pytest

from congruence_lab import selfcheck
from congruence_lab.cli import run
from congruence_lab.selfcheck import _CHECKS, CHECK_NAMES

FULL_REPORT_SHA256 = "36d7fdcacf6ed4274c9edb8d4a22a4bb9b2b6b867c0a79f493862b458df6b671"


@functools.cache
def _full(name: str) -> tuple[bool, str, float]:
    """(ok, detail, seconds) of one full-mode check, run once per session."""
    t0 = time.perf_counter()
    ok, detail = dict(_CHECKS)[name](False, 0)
    elapsed = time.perf_counter() - t0
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail}, {elapsed:.2f}s)")
    return ok, detail, elapsed


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_full_check(name):
    ok, detail, _ = _full(name)
    assert ok, detail


def _within_budget(budget: float, *names: str) -> None:
    assert all(_full(name)[0] for name in names)
    assert sum(_full(name)[2] for name in names) < budget


def test_criterion_1_index_formula_vs_brute_force():
    _within_budget(30.0, "index-formula-vs-enumeration")


def test_criterion_2_torsion_facts():
    _within_budget(5.0, "torsion-facts")


def test_criterion_3_elementary_generation_roundtrip():
    _within_budget(60.0, "decompose-int-roundtrip", "decompose-mod-exhaustive")


def test_full_report_is_byte_identical(capsys, monkeypatch):
    results = {name: _full(name)[:2] for name in CHECK_NAMES}
    capsys.readouterr()  # what _full printed
    monkeypatch.setattr(selfcheck, "_CHECKS", [(name, lambda quick, seed, r=r: r) for name, r in results.items()])
    assert run(["selfcheck", "--plain"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FULL_REPORT_SHA256, out
