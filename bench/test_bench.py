"""Smoke test of the benchmark itself, at tiny scale.

    python3 -m pytest bench/test_bench.py -q

Runs every workload traced and untraced, checks the result line against
BENCHMARK.json, checks that traced counts repeat exactly, that the oracle
rejects wrong outputs, and that the benchmark refuses to run without src/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_spec(workload, trace):
    code, lines = run_bench(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "cli-mix":
        defects = json.loads(lines[-2])["record"]["known_defects"]
        assert len(defects) == 4 and all(d["status"] in ("failing", "fixed") for d in defects)


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        code, lines = run_bench("finite-quotients", 1, seed=5)
        assert code == 0
        metrics = json.loads(lines[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bits")})
    assert counts[0] == counts[1]
    assert counts[0]["modular.mul.calls"] > 0
    # The tiny op list walks N^(n*n) tuples for enumerate_sl(2, 2..4),
    # enumerate_sl(3, 2) and the spectra of SL_2(Z/N), N = 2, 3, 6, whose
    # orders are 6, 24 and 144.
    walked = 2**4 + 3**4 + 4**4 + 2**9 + 2**4 + 3**4 + 6**4
    assert counts[0]["modular.enumerate_sl.tuples"] == walked
    assert counts[0]["torsion.mod_spectrum.elements"] == 6 + 24 + 144


def test_oracle_rejects_wrong_outputs():
    lib = workloads.lib
    check = workloads.check_enumerate(2, 3)
    group = lib.enumerate_sl(2, 3)
    check(group, True)
    with pytest.raises(oracle.OracleError):
        check(group[1:], True)
    with pytest.raises(oracle.OracleError):
        check(list(reversed(group)), True)
    with pytest.raises(oracle.OracleError):
        oracle.check_order(((0, -1), (1, 0)), 2)
    with pytest.raises(oracle.OracleError):
        oracle.check_order(((0, -1), (1, 0)), None)
    with pytest.raises(oracle.OracleError):
        oracle.check_order(((1, 2), (0, 1)), 4)
    oracle.check_order(((1, 2), (0, 1)), None)
    with pytest.raises(oracle.OracleError):
        oracle.check_word_text("E(1,2,1) | Z", 2, ((1, 2), (0, 1)), None)
    with pytest.raises(oracle.OracleError):
        workloads.check_spectrum(2, 3)(frozenset({1, 2, 3}), True)
    assert oracle.sl_count(2, 12) == len(lib.enumerate_sl(2, 12))


def test_refuses_to_run_without_the_program():
    bare = BENCH / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = run_bench("integer-exact", 0, cwd=bare)
        assert code != 0 and not any(line.startswith('{"correct"') for line in lines)
    finally:
        shutil.rmtree(bare)
