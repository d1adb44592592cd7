"""Benchmark entry point for congruence-lab.

    python3 bench/run.py --workload {cli-mix,finite-quotients,integer-exact}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the program is imported from src/, never
from an installed copy. With --trace 0 it measures the end-to-end metrics
with tracing off; with --trace 1 it runs one untraced and one traced pass,
reports the per-layer metrics and writes the full trace to bench/results/.
Every output is checked against bench/oracle.py. Standard output ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("cli-mix", "finite-quotients", "integer-exact"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "congruence_lab" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'congruence_lab'}; run from the root of a checkout", file=sys.stderr)
        return 2
    import harness

    if Path(harness.W.lib.__file__).resolve().parent != (SRC / "congruence_lab").resolve():
        print(f"bench: congruence_lab was imported from {harness.W.lib.__file__}, not from src/", file=sys.stderr)
        return 2
    print(json.dumps(harness.run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
