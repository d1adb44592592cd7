"""Machine speed, measured by a fixed reference workload run between ops.

A shared machine changes speed by tens of percent for spells of seconds to
minutes, and the program's time changes with it. The benchmark therefore
runs a fixed reference between ops and divides each pass's time by the
machine speed the reference saw. Nothing here calls the program, so a
change to the program cannot change the reference.

In-process ops are paced by a *slice* of pure-Python work (small-integer
matrix powers, big-integer products, object and dict churn: the kinds of
work the program does) after every SLICE_EVERY_S of op time. CLI
invocations are paced by a *reference process*, this file run as a script:
an interpreter that starts, imports the standard modules the program
imports and runs a few slices. Interpreter start-up does not slow in step
with pure computation, so slices alone misjudge an invocation.

A normalised time is in *reference seconds*: the time the work would take if
the reference took its nominal cost (SLICE_S or PROCESS_S).
"""

from __future__ import annotations

import gc
import time

SLICE_S = 0.001  # nominal seconds of one slice; only sets the unit
SLICE_EVERY_S = 0.02  # op time between slices
PROCESS_S = 0.1  # nominal seconds of one reference process; only sets the unit
PROCESS_EVERY_S = 0.3  # invocation time between reference processes
PROCESS_SLICES = 30

_BIG = tuple(tuple((7 ** (40 + 3 * i + j)) % 10**45 - 5 * 10**44 for j in range(5)) for i in range(5))


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _mat2_pow(m, e: int, N: int) -> tuple:
    r = ((1, 0), (0, 1))
    while e:
        if e & 1:
            r = tuple(tuple(sum(r[i][k] * m[k][j] for k in range(2)) % N for j in range(2)) for i in range(2))
        m = tuple(tuple(sum(m[i][k] * m[k][j] for k in range(2)) % N for j in range(2)) for i in range(2))
        e >>= 1
    return r


def _big_mul(a, b) -> tuple:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def reference_slice() -> int:
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    acc = 0
    for N in (97, 1009, 65537):
        acc += _mat2_pow(((3, 7), (2, 5)), 10**5 + N, N)[0][1]
    acc += _big_mul(_BIG, _BIG)[2][3] % 1009
    cells = {}
    for i in range(120):
        c = _Cell(i, (i, i % 7))
        cells[c.b] = c
    acc += len(cells)
    return acc


def timed_slice() -> float:
    """Seconds one reference slice takes now. The collector is off during
    it, so the program's live objects do not slow the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_slice()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pace:
    """References interleaved with one pass's ops. `measure` runs one
    reference and returns its seconds; one runs at the start of the pass and
    one after every `every_s` of op time."""

    def __init__(self, measure=timed_slice, nominal_s: float = SLICE_S, every_s: float = SLICE_EVERY_S):
        self.measure, self.nominal_s, self.every_s = measure, nominal_s, every_s
        self.since = 0.0
        self.samples: list[float] = [measure()]

    def tick(self, op_s: float) -> None:
        """Account for an op that took op_s; run a reference when one is due."""
        self.since += op_s
        if self.since >= self.every_s:
            self.since = 0.0
            self.samples.append(self.measure())

    @property
    def slowdown(self) -> float:
        """Mean reference time over its nominal cost: 1.0 at nominal speed."""
        return sum(self.samples) / len(self.samples) / self.nominal_s


def slowdown(count: int) -> float:
    """Slowdown from `count` back-to-back slices."""
    return sum(timed_slice() for _ in range(count)) / count / SLICE_S


if __name__ == "__main__":  # the reference process
    import importlib

    for name in ("argparse", "dataclasses", "fractions", "itertools", "json", "random", "re"):
        importlib.import_module(name)
    for _ in range(PROCESS_SLICES):
        reference_slice()
