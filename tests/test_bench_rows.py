"""tools/bench_rows.py and the BENCH_cli.json it wrote: every subcommand and
selfcheck check has its row, the compare mode reads every row back, and the
design counts are the direct ones."""

import importlib.util
import json
import subprocess
from pathlib import Path

import congruence_lab
from congruence_lab.selfcheck import CHECK_NAMES

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_rows", ROOT / "tools" / "bench_rows.py")
bench_rows = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_rows)
BENCH = json.loads((ROOT / "BENCH_cli.json").read_text())


def test_bench_file_has_a_row_per_subcommand_and_per_check():
    rows = set(BENCH["rows"])
    assert {f"cli {' '.join(case['argv'])}" for case in bench_rows.first_answers()} <= rows
    assert {f"selfcheck {mode} {name}" for mode in ("quick", "full") for name in CHECK_NAMES} <= rows
    assert all(list(entry["values"]) == BENCH["columns"] for entry in BENCH["rows"].values())
    assert set(BENCH["env"]) >= {"python", "cpu_pin", "bytecode", "bare_ms"}


def test_selfcheck_rows_time_every_check_in_order():
    assert list(bench_rows.selfcheck_rows(quick=True)) == CHECK_NAMES


def test_compare_gives_a_ratio_for_every_committed_row():
    last = BENCH["columns"][-1]
    rows = {row: {**entry, "values": {"now": entry["values"][last]}} for row, entry in BENCH["rows"].items()}
    lines = bench_rows.compare({"columns": ["now"], "rows": rows}, BENCH).splitlines()[2:]
    assert len(lines) == len(BENCH["rows"])
    assert all(line.endswith("| 1.000 |") for line in lines)


def test_design_counts_are_the_direct_counts():
    def wc(glob):
        return int(subprocess.run(f"cat {glob} | wc -l", shell=True, cwd=ROOT, capture_output=True, text=True).stdout)

    assert bench_rows.design_counts(ROOT) == {
        "src_lines": wc("src/congruence_lab/*.py"),
        "tests_lines": wc("tests/*.py"),
        "exports": len(congruence_lab.__all__),
    }
