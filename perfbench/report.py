"""Print every metric, with its unit, of every workload, untraced and traced.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the repository root.  Each workload runs twice through
perfbench/run.py, with --trace 0 and --trace 1; every output is checked by
those runs.  Exits 1 when any run reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    args = parser.parse_args(argv)
    all_correct = True
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = done.stdout.strip().splitlines()
            correct = done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
            all_correct = all_correct and correct
            print("\n".join(lines[1:-1]))
            print(f"  outputs correct: {correct}")
            if done.stderr.strip():
                print(done.stderr.strip(), file=sys.stderr)
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
