"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --workload integer-exact [--workload ...] --seeds 1-10 \
        --seconds 15 [--out bench/results/summary.json]

Runs are untraced. For every metric it prints the median, the quartiles
(statistics.quantiles with n=4) and the spread: (q3 - q1) / median. Runs go
one after another, never in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="15")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    summary: dict = {}
    ok = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", args.seconds, "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            result = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
            if result is None or not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: rc={out.returncode} {out.stderr[-500:]}", file=sys.stderr)
            if result is not None:
                runs.append(result["metrics"])
        names = runs[0].keys() if runs else []
        summary[workload] = {n: summarise([r[n]["value"] for r in runs]) for n in names}
        for n, s in summary[workload].items():
            print(f"{workload:17} {n:40} median {s['median']:12.6g}  spread {s['spread']:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
