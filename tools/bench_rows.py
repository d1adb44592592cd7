"""Timed rows for BENCH_*.json: kernel calls, selfcheck checks and cold CLI calls.

    python tools/bench_rows.py [--tree LABEL=PATH ...] [--runs N] [--out FILE] [--compare FILE]

Each --tree is a checkout (default: now=the checkout holding this script);
its src/ is what gets timed. The script pins its own process, and so every
child, to one CPU. Three sections of rows:

- kernel: per-call minimums of the row kernel and the algorithms built on
  it, each the best of three autoranged timeit repeats in each of five
  processes;
- selfcheck: the seconds of each selfcheck._CHECKS entry, in quick and in
  full mode, each mode in a fresh process that runs the checks in order as
  `selfcheck` does, so caches fill as they do in a CLI call;
- cli: the wall time of one cold `python -m congruence_lab` child for the
  first corpus entry of each subcommand that answers. Each child compiles
  every module of the tree it imports, as with PYTHONDONTWRITEBYTECODE=1
  and no __pycache__ in the checkout: bytecode is read and written only
  under a fresh PYTHONPYCACHEPREFIX, which an untimed first run of each
  call fills with the standard library's bytecode alone. A child whose
  output is not the corpus entry's counts as a failed run.

With two or more trees, the cli rows run in interleaved rounds (the tree
order reversed every other round), and the in-process sections alternate in
the same way. A row reports the median and minimum of its runs: --runs cold
calls (default 15), five selfcheck --quick processes, two full ones and five
kernel processes. The env block records the Python version, the CPU, the
bytecode state, bare `python -c pass` and `python -S -c pass` times, and each
tree's design counts: its src/ and tests/ lines and its exported names.

--out writes the rows as JSON. --compare FILE prints, for every row of the
file, the ratio of this run's value (the median for cli rows, the minimum
otherwise) to the value of the file's last column. Rows only report: the
exit status is 0 unless a child fails outright or a cli run prints other
bytes than the corpus.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "cli_corpus.json"
PASSES = {"kernel": 5, "selfcheck-quick": 5, "selfcheck-full": 2}


def kernel_rows() -> dict[str, float]:
    """Per-call minimums in µs of the kernel and algorithm calls, keyed by row name."""
    import gc
    import pickle
    import timeit

    from congruence_lab import IntMatrix, ModMatrix, decompose_int, decompose_mod, enumerate_sl, lift_to_int, matrix_order
    from congruence_lab.intmat import det_of_rows, elementary_product, power_of_rows, product_of_rows, sample_sl

    rows = {}

    def row(name, n, ring, call, setup="pass", per=1):
        # per: the calls one run of call makes, for a row per call of a sweep
        timer = timeit.Timer(call, setup, globals={"gc": gc})
        number = timer.autorange()[0]
        rows[f"{name} [n={n}, {ring}]"] = min(timer.repeat(3, number)) / number / per * 1e6

    # The row kernel's multiply, power (e = 1000) and det over Z and mod 12.
    for n in (2, 3, 4, 8):
        for N in (None, 12):
            x = sample_sl(n, 3 * n, 1).rows
            if N is not None:
                x = tuple(tuple(e % N for e in r) for r in x)
            ring = "Z" if N is None else f"Z/{N}"
            row("product_of_rows(x, x)", n, ring, lambda: product_of_rows(x, x, N))
            row("power_of_rows(x, 1000)", n, ring, lambda: power_of_rows(x, 1000, N))
            row("det_of_rows(x)", n, ring, lambda: det_of_rows(x))
    for n in (4, 11, 24):
        x = sample_sl(n, 2 * n, 7)
        row("x.inverse(), x = sample_sl(n, 2n, 7)", n, "Z", lambda: x.inverse())
    # The algorithms layer. elementary_product at n = 2 and evaluate() over Z/12
    # take the kernel's generic loop, as product_of_rows at n = 3 over Z does.
    x, y = sample_sl(4, 40, 1), ModMatrix(sample_sl(2, 6, 1).rows, 12)
    row("decompose_int(sample_sl(4, 40, 1))", 4, "Z", lambda: decompose_int(x))
    row(f"decompose_mod({y})", 2, "Z/12", lambda: decompose_mod(y))
    row(f"lift_to_int({y})", 2, "Z/12", lambda: lift_to_int(y))
    # Per element over all of SL_2(Z/12), as finite-quotients calls them: the one
    # element above takes the 4-op branch at t = 1, the sweep a = 1 and every t too.
    sl2 = enumerate_sl(2, 12)
    for f in (decompose_mod, lift_to_int):
        row(f"{f.__name__}(y) per y in enumerate_sl(2, 12)", 2, "Z/12", lambda: list(map(f, sl2)), per=len(sl2))
    ops = decompose_mod(y)._ops
    row("elementary_product(2, ops)", 2, "Z", lambda: elementary_product(2, ops))
    word = decompose_mod(y)
    row(f"decompose_mod({y}).evaluate()", 2, "Z/12", lambda: word.evaluate())
    # At n = 3 over Z/12, _word_ops records each op lifted by its CRT idempotent.
    y3 = ModMatrix(sample_sl(3, 9, 1).rows, 12)
    row(f"decompose_mod({y3})", 3, "Z/12", lambda: decompose_mod(y3))
    # g*D*g^-1 with D the permutation matrix of an 11-cycle takes the charpoly path.
    g = sample_sl(11, 13, 11)
    x11 = g * IntMatrix([[int(j == (i + 1) % 11) for j in range(11)] for i in range(11)]) * g.inverse()
    row("matrix_order(g*D*g^-1), order 11", 11, "Z", lambda: matrix_order(x11))
    # The walk over Z/N: a prime N, where every top row has its own cofactor
    # vector; two and three prime factors; then 43,008 elements wrapped in bulk.
    for N in (11, 12, 30):
        row(f"enumerate_sl(2, {N})", 2, f"Z/{N}", lambda: enumerate_sl(2, N))
    row("enumerate_sl(3, 4)", 3, "Z/4", lambda: enumerate_sl(3, 4))
    # The record protocol on that list.
    group, twin = enumerate_sl(3, 4), enumerate_sl(3, 4)
    row("group == twin, both enumerate_sl(3, 4)", 3, "Z/4", lambda: group == twin)
    row("set(group)", 3, "Z/4", lambda: set(group))
    row("pickle.loads(pickle.dumps(group))", 3, "Z/4", lambda: pickle.loads(pickle.dumps(group)))
    # timeit switches the cyclic collector off; these two turn it back on next to
    # a standing heap, to show what collections started inside enumerate_sl cost.
    heap = [[] for _ in range(200_000)]
    for n, N in ((3, 4), (2, 12)):
        label = f"enumerate_sl({n}, {N}), collector on, 200,000 live lists"
        row(label, n, f"Z/{N}", lambda: enumerate_sl(n, N), "gc.enable()")
    del heap
    return rows


def selfcheck_rows(quick: bool) -> dict[str, float]:
    """The ms of each selfcheck check, run once each in registry order, at seed 0."""
    from congruence_lab import selfcheck

    rows = {}
    for name, check in selfcheck._CHECKS:
        start = time.perf_counter()
        ok, detail = check(quick, 0)
        rows[name] = (time.perf_counter() - start) * 1e3
        if not ok:
            raise SystemExit(f"selfcheck {name} failed: {detail}")
    return rows


def _in_child(section: str, src: str) -> None:
    """Child side: time one section against src and print its rows as JSON."""
    sys.path.insert(0, src)
    if section == "kernel":
        rows = {f"kernel {name}": value for name, value in kernel_rows().items()}
    else:
        mode = section.rpartition("-")[2]
        rows = {f"selfcheck {mode} {name}": value for name, value in selfcheck_rows(mode == "quick").items()}
    print(json.dumps(rows))


def _summary(values: list[float]) -> dict:
    return {"median": round(statistics.median(values), 4), "min": round(min(values), 4), "runs": len(values)}


def _rounds(trees: dict[str, Path], count: int):
    """The tree labels of each round, in an order that reverses every other round."""
    labels = list(trees)
    for i in range(count):
        yield labels if i % 2 == 0 else labels[::-1]


def in_process_rows(trees: dict[str, Path]) -> dict[str, dict]:
    """Rows of the kernel and selfcheck sections: row -> label -> list of per-pass values."""
    runs: dict[str, dict[str, list[float]]] = {}
    for section in PASSES:
        for order in _rounds(trees, PASSES[section]):
            for label in order:
                out = subprocess.run(
                    [sys.executable, "-B", "-I", "-S", __file__, "--child", section, str(trees[label] / "src")],
                    capture_output=True,
                    text=True,
                    check=True,
                )
                for row, value in json.loads(out.stdout).items():
                    runs.setdefault(row, {}).setdefault(label, []).append(value)
    return runs


def first_answers() -> list[dict]:
    """The first corpus entry of each subcommand that answers, in corpus order."""
    firsts = {}
    for case in json.loads(CORPUS.read_text()):
        if case["code"] == 0 and "--help" not in case["argv"]:
            firsts.setdefault(case["argv"][0], case)
    return list(firsts.values())


def cold_rows(trees: dict[str, Path], runs: int, env: dict) -> tuple[dict, dict, int]:
    """Cold cli rows (ms) and bare interpreter times; also the count of runs with wrong output."""
    cases = first_answers()
    times: dict[str, dict[str, list[float]]] = {}
    bare = {"python -c pass": [sys.executable, "-c", "pass"], "python -S -c pass": [sys.executable, "-S", "-c", "pass"]}
    bare_times: dict[str, list[float]] = {name: [] for name in bare}
    wrong = 0
    with tempfile.TemporaryDirectory(prefix="bench-rows-pycache-") as prefix:
        # One untimed run of each child writes its bytecode into the fresh prefix;
        # then the trees' own is deleted, so every timed child reads the standard
        # library's bytecode and compiles each module of the tree it imports.
        warm_env = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        warm_env["PYTHONPYCACHEPREFIX"] = prefix
        for argv in bare.values():
            _wall(argv, warm_env)
        for case in cases:
            for path in trees.values():
                _wall([sys.executable, "-m", "congruence_lab", *case["argv"]], {**warm_env, "PYTHONPATH": str(path / "src")}, path)
        for path in trees.values():
            shutil.rmtree(Path(prefix, *(path / "src").parts[1:]), ignore_errors=True)
        child_env = {**warm_env, "PYTHONDONTWRITEBYTECODE": "1"}
        for order in _rounds(trees, runs):
            for name, argv in bare.items():
                bare_times[name].append(_wall(argv, child_env)[0])
            for case in cases:
                for label in order:
                    tree_env = {**child_env, "PYTHONPATH": str(trees[label] / "src")}
                    ms, proc = _wall([sys.executable, "-m", "congruence_lab", *case["argv"]], tree_env, trees[label])
                    key = f"cli {' '.join(case['argv'])}"
                    times.setdefault(key, {}).setdefault(label, []).append(ms)
                    if (proc.stdout, proc.stderr, proc.returncode) != (case["stdout"], case["stderr"], case["code"]):
                        wrong += 1
                        print(f"{label}: {key} printed other bytes than the corpus", file=sys.stderr)
    return times, {name: _summary(values) for name, values in bare_times.items()}, wrong


def _wall(argv: list[str], env: dict, cwd: Path | None = None) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    return (time.perf_counter() - start) * 1e3, proc


def design_counts(tree: Path) -> dict[str, int]:
    """The src/ and tests/ line counts (`cat src/congruence_lab/*.py | wc -l`) and the exported names."""
    def lines(glob: str) -> int:
        return sum(f.read_bytes().count(b"\n") for f in tree.glob(glob))

    script = "import sys; sys.path.insert(0, sys.argv[1]); import congruence_lab; print(len(congruence_lab.__all__))"
    exports = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", script, str(tree / "src")], capture_output=True, text=True, check=True
    )
    src, tests = lines("src/congruence_lab/*.py"), lines("tests/*.py")
    return {"src_lines": src, "tests_lines": tests, "exports": int(exports.stdout)}


def _cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor() or "unknown"
    return next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), "unknown")


def measure(trees: dict[str, Path], runs: int) -> dict:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # children inherit the pin
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
    rows = {}
    for row, per_label in in_process_rows(trees).items():
        unit = "us" if row.startswith("kernel") else "ms"
        rows[row] = {"unit": unit, "stat": "min", "values": {k: _summary(v) for k, v in per_label.items()}}
    times, bare, wrong = cold_rows(trees, runs, env)
    for row, per_label in times.items():
        rows[row] = {"unit": "ms", "stat": "median", "values": {k: _summary(v) for k, v in per_label.items()}}
    return {
        "env": {
            "python": platform.python_version(),
            "machine": f"{_cpu_model()}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}",
            "cpu_pin": cpu,
            "bytecode": "cold cli children compile every module of the tree and read the standard library's bytecode",
            "bare_ms": bare,
            "design_counts": {label: design_counts(path) for label, path in trees.items()},
        },
        "columns": list(trees),
        "wrong_output_runs": wrong,
        "rows": rows,
    }


def table(result: dict) -> str:
    labels = result["columns"]
    lines = [
        "| row | unit | stat | " + " | ".join(f"{label} median / min" for label in labels) + " |",
        "|---|---|---|" + "---|" * len(labels),
    ]
    for row, entry in result["rows"].items():
        cells = [f"{entry['values'][k]['median']:.4g} / {entry['values'][k]['min']:.4g}" for k in labels]
        lines.append(f"| `{row}` | {entry['unit']} | {entry['stat']} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def compare(result: dict, committed: dict) -> str:
    base, label = committed["columns"][-1], result["columns"][-1]
    lines = [f"| row | unit | {base} (committed) | {label} | ratio |", "|---|---|---|---|---|"]
    for row, entry in committed["rows"].items():
        old = entry["values"][base][entry["stat"]]
        new = result["rows"].get(row, {}).get("values", {}).get(label, {}).get(entry["stat"])
        now, ratio = ("not run", "-") if new is None else (f"{new:.4g}", f"{new / old:.3f}")
        lines.append(f"| `{row}` | {entry['unit']} {entry['stat']} | {old:.4g} | {now} | {ratio} |")
    return "\n".join(lines)


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        _in_child(sys.argv[2], sys.argv[3])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH")
    parser.add_argument("--runs", type=int, default=15, help="cold runs per cli row")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, metavar="FILE")
    args = parser.parse_args()
    trees = dict((label, Path(path).resolve()) for label, path in (t.split("=", 1) for t in args.tree)) or {"now": ROOT}
    result = measure(trees, args.runs)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    bare = ", ".join(f"`{name}` {v['median']:.1f} / {v['min']:.1f} ms" for name, v in result["env"]["bare_ms"].items())
    print(f"Python {result['env']['python']} on {result['env']['machine']}, pinned to CPU {result['env']['cpu_pin']}.")
    print(f"{result['env']['bytecode']}. Bare interpreter (median / min): {bare}.")
    counts = "; ".join(
        f"{label} {c['src_lines']} src/ lines, {c['tests_lines']} tests/ lines, {c['exports']} exported names"
        for label, c in result["env"]["design_counts"].items()
    )
    print(f"Design counts: {counts}.")
    print()
    print(compare(result, json.loads(args.compare.read_text())) if args.compare else table(result))
    return 1 if result["wrong_output_runs"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
