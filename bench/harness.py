"""Measurement: passes over a workload's ops, end-to-end and per-layer metrics."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import pace
import workloads as W
from tracer import Tracer

BENCH = W.ROOT / "bench"
RESULTS = BENCH / "results"

SETUP_SAMPLES = 9
LAUNCH_SAMPLES = 7
MIN_PASSES = 3
MIN_OPS = 100

# Layers reported as <name>.calls and <name>.self_s.
TIMED_LAYERS = (
    "intmat.mul",
    "intmat.pow",
    "intmat.construct",
    "intmat.det",
    "intmat.parse",
    "intmat.format",
    "modular.mul",
    "modular.pow",
    "modular.construct",
    "modular.enumerate_sl",
    "modular.sl_order_formula",
    "modular.crt",
    "primes.factorize",
    "primes.is_prime",
    "words.decompose_int",
    "words.decompose_mod",
    "words.lift_to_int",
    "words.evaluate",
    "torsion.matrix_order",
    "torsion.mod_spectrum",
    "torsion.candidate_orders",
    "torsion.minkowski_probe",
    "gamma.level",
    "gamma.member",
    "witnesses.phi_k",
    "witnesses.witness_rf",
    "witnesses.witness_p",
    "cli.run",
    "selfcheck.quick",
)

# Runs in a fresh interpreter: import, input generation and warm-up, timed
# between two sets of reference slices.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import pace
pace.slowdown(5)  # lets the interpreter specialise the slice's code
before = pace.slowdown(20)
start = time.perf_counter()
import workloads
w = workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]), sys.argv[4])
w.warm_up()
elapsed = time.perf_counter() - start
print(elapsed, (before + pace.slowdown(20)) / 2)
"""


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# -------------------------------------------------------- environment


def git_sha() -> str | None:
    if not (W.ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((W.SRC / "congruence_lab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def launch_ms() -> tuple[float, float]:
    """Median start of a bare interpreter, and the median extra cost of
    importing congruence_lab.cli, from interleaved launches."""
    bare, imported = [], []
    for _ in range(LAUNCH_SAMPLES):
        for code, into in (("pass", bare), ("import congruence_lab.cli", imported)):
            start = time.perf_counter()
            inv = W.spawn([sys.executable, "-c", code])
            into.append((time.perf_counter() - start) * 1000)
            if inv.code != 0:
                raise RuntimeError(f"python -c {code!r} failed: {inv.err.decode(errors='replace')[-300:]}")
    start_ms = statistics.median(bare)
    return start_ms, statistics.median(imported) - start_ms


def median_setup_s(workload: str, seed: int, scale: str) -> tuple[float, float]:
    """Median setup time over fresh interpreters, in reference seconds and raw."""
    times, raw = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(BENCH), workload, str(seed), scale],
            cwd=W.ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=170,
        )
        elapsed, slowdown = map(float, out.stdout.split()[-2:])
        times.append(elapsed / slowdown)
        raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


def environment(args, w, cpus: set[int], start_ms: float, import_ms: float) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": sys.version.split()[0],
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "inputs": w.inputs(),
        "cli.interpreter_start_ms": start_ms,
        "cli.import_ms": import_ms,
    }


# ------------------------------------------------------------- passes


def process_pace() -> pace.Pace:
    """Pace for ops that are CLI invocations: a reference process."""

    def measure() -> float:
        start = time.perf_counter()
        inv = W.spawn([sys.executable, str(BENCH / "pace.py")])
        elapsed = time.perf_counter() - start
        if inv.code != 0:
            raise RuntimeError(f"reference process failed: {inv.err.decode(errors='replace')[-300:]}")
        return elapsed

    return pace.Pace(measure, pace.PROCESS_S, pace.PROCESS_EVERY_S)


class Pass:
    def __init__(self, reference=pace.Pace):
        self.latencies: list[float | None] = []  # per op, None when it failed
        self.wrong = 0
        self.child_rss_kb = 0
        self.pace = reference()

    @property
    def failed(self) -> int:
        return self.latencies.count(None)

    @property
    def seconds(self) -> float:
        return sum(t for t in self.latencies if t is not None)

    @property
    def ref_seconds(self) -> float:
        """The pass's op time in reference seconds (see pace.py)."""
        return self.seconds / self.pace.slowdown

    def ref_latencies(self) -> list[float]:
        return [t / self.pace.slowdown for t in self.latencies if t is not None]

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def _verify(i, op, result, verified: dict, tally: Pass) -> None:
    try:
        fp = op.check(result, i not in verified)
        if i in verified:
            W.expect(fp == verified[i], "output differs from the verified output of an earlier pass")
        else:
            verified[i] = fp
    except Exception as e:  # any check that cannot pass is a wrong answer
        tally.wrong += 1
        print(f"bench: op {i} ({op.kind}) wrong: {type(e).__name__}: {e}", file=sys.stderr)


def run_pass(ops, verified: dict, tracer: Tracer | None = None, reference=pace.Pace) -> Pass:
    """One pass over the op list. Only the op calls are timed; the pass's
    references (a `reference()` pace) run between them."""
    tally = Pass(reference)
    done = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for i, op in enumerate(ops):
            start = time.perf_counter()
            try:
                result = tracer.op(i, op.kind, op.call) if tracer is not None else op.call()
            except Exception as e:  # an op that raises is a failed op, not a crash
                tally.latencies.append(None)
                print(f"bench: op {i} ({op.kind}) raised {type(e).__name__}: {e}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            tally.pace.tick(elapsed)
            if isinstance(result, W.Invocation):
                if result.code in (None, 1):
                    tally.latencies.append(None)
                    how = "hit the deadline" if result.code is None else "exited 1"
                    print(f"bench: op {i} ({op.kind}) {how}", file=sys.stderr)
                    continue
                tally.child_rss_kb = max(tally.child_rss_kb, result.maxrss_kb)
            tally.latencies.append(elapsed)
            if tracer is None:
                _verify(i, op, result, verified, tally)
            else:
                done.append((i, op, result))
    for i, op, result in done:  # checked after the tracer is removed
        _verify(i, op, result, verified, tally)
    return tally


def by_kind(ops, passes: list[Pass]) -> dict:
    """Median latency per op kind over the timed passes, in reference seconds."""
    kinds: dict[str, list[float]] = {}
    for p in passes:
        for op, t in zip(ops, p.latencies):
            if t is not None:
                kinds.setdefault(op.kind, []).append(t / p.pace.slowdown)
    return {k: {"samples": len(v), "median_ms": statistics.median(v) * 1000} for k, v in sorted(kinds.items())}


# ------------------------------------------------------------ metrics


def pass_count(args, w) -> int:
    """Timed passes in one run.

    Fixed by --seconds and the workload's nominal pass time, never by how
    fast the program runs, so a parent and a change get the same number of
    samples.
    """
    return max(MIN_PASSES, round(args.seconds / w.nominal_pass_s), math.ceil(MIN_OPS / len(w.ops)))


def timed_passes(ops, count: int, verified: dict, reference) -> list[Pass]:
    """`count` passes, each started from a collected heap, so that every pass
    pays for the garbage it makes itself."""
    passes = []
    for _ in range(count):
        gc.collect()
        passes.append(run_pass(ops, verified, reference=reference))
    return passes


def end_to_end(args, w) -> tuple[dict, list[Pass], dict]:
    """Tracing off. One untimed pass runs the full oracle on every output;
    then a fixed number of timed passes, whose outputs must reproduce the
    checked ones.

    Every time is in reference seconds: divided by the slowdown of the
    machine that the pass's references saw (pace.py). run_s is the
    median pass time; op_p50_ms and op_p90_ms are percentiles of all op
    latencies of the timed passes. Raw times are kept in the record.
    """
    setup_s, raw_setup_s = median_setup_s(args.workload, args.seed, args.scale)
    verified: dict = {}
    checked = run_pass(w.ops, verified)
    reference = process_pace if isinstance(w, W.CliMix) else pace.Pace
    passes = timed_passes(w.ops, pass_count(args, w), verified, reference)
    samples = [t for p in passes for t in p.ref_latencies()]
    if isinstance(w, W.CliMix):
        rss_kb = max(p.child_rss_kb for p in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "run_s": metric(statistics.median(p.ref_seconds for p in passes), "s"),
        "op_p50_ms": metric(statistics.median(samples) * 1000, "ms"),
        "op_p90_ms": metric(statistics.quantiles(samples, n=10, method="inclusive")[8] * 1000, "ms"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    record = {
        "passes": len(passes),
        "op_samples": len(samples),
        "pass_s": [p.seconds for p in passes],
        "slowdown": [p.pace.slowdown for p in passes],
        "raw_run_s": statistics.median(p.seconds for p in passes),
        "raw_setup_s": raw_setup_s,
        "by_kind": by_kind(w.ops, passes),
    }
    return metrics, [checked, *passes], record


def per_layer(w, start_ms: float, import_ms: float) -> tuple[dict, list[Pass], Tracer]:
    """One untraced and one traced pass; cli-mix replays its corpus in-process."""
    ops = w.replay_ops if isinstance(w, W.CliMix) else w.ops
    w.warm_up()
    verified: dict = {}
    gc.collect()
    plain = run_pass(ops, verified)
    tracer = Tracer()
    gc.collect()
    traced = run_pass(ops, verified, tracer)

    metrics = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.calls"] = metric(tracer.calls(name), "count")
        metrics[f"{name}.self_s"] = metric(tracer.self_s(name), "s")
    c = tracer.counters
    # Candidates tested: one determinant per entry tuple walked.
    tuples, kept = tracer.within("intmat.det", "modular.enumerate_sl"), c["modular.enumerate_sl.kept"]
    spectrum_pows = tracer.within("modular.pow", "torsion.mod_spectrum")
    group_elements = c["torsion.mod_spectrum.group_elements"]
    metrics.update(
        {
            "intmat.pow.max_entry_bits": metric(c["intmat.pow.max_entry_bits"], "bits"),
            "modular.enumerate_sl.tuples": metric(tuples, "count"),
            "modular.enumerate_sl.kept": metric(kept, "count"),
            # An enumeration that tests no candidate wastes nothing: yield 1.
            "modular.enumerate_sl.yield": metric(kept / max(tuples, kept) if kept else 0.0, "ratio"),
            "torsion.matrix_order.candidates_tried": metric(
                tracer.under("intmat.pow", "torsion.matrix_order"), "count"
            ),
            "torsion.mod_spectrum.elements": metric(
                tracer.under("torsion.element_order", "torsion.mod_spectrum"), "count"
            ),
            "torsion.mod_spectrum.pows_per_element": metric(
                spectrum_pows / group_elements if group_elements else 0.0, "ratio"
            ),
            "words.gens": metric(c["words.gens"], "count"),
            "cli.interpreter_start_ms": metric(start_ms, "ms"),
            "cli.import_ms": metric(import_ms, "ms"),
            "trace.overhead_ratio": metric(traced.ref_seconds / plain.ref_seconds, "ratio"),
        }
    )
    return metrics, [plain, traced], tracer


# --------------------------------------------------------------- run


def run(args) -> dict:
    """Measure one workload; prints the environment and a record, returns the result."""
    # The whole run, child processes included, stays on one CPU, so the
    # references see the speed that the ops get (see README.md).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    w = W.WORKLOADS[args.workload](args.seed, args.scale)
    start_ms, import_ms = launch_ms()
    env = environment(args, w, cpus, start_ms, import_ms)
    tracer = None
    if args.trace:
        metrics, passes, tracer = per_layer(w, start_ms, import_ms)
        record = {"untraced_s": passes[0].ref_seconds, "traced_s": passes[1].ref_seconds}
    else:
        metrics, passes, record = end_to_end(args, w)

    wrong = sum(p.wrong for p in passes)
    failed = sum(p.failed for p in passes)
    attempted = sum(p.attempted for p in passes)
    defects_failed = 0
    if isinstance(w, W.CliMix):
        rows = W.run_defects(w.defects)
        defects_failed = sum(r["status"] == "failing" for r in rows)
        wrong += sum(r["status"] == "wrong" for r in rows)
        record["known_defects"] = rows
        record["failed_ratio_with_known_defects"] = (failed + defects_failed) / (attempted + len(rows))
    if tracer is not None:
        metrics["cli.known_defects.failed"] = metric(defects_failed, "count")
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"env": env, "record": record, "metrics": metrics, **tracer.dump()}))
        record["trace_file"] = str(path.relative_to(W.ROOT))

    print(json.dumps({"env": env}))
    print(json.dumps({"record": record}))
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
