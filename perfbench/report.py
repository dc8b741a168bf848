"""Every end-to-end metric of every workload in one table.

    python3 perfbench/report.py [--seconds 20] [--seed 1]

Runs run.py untraced once per workload and prints each metric by name with
its unit, plus failed_frac (wrong verdicts over attempted queries).  Exits 1
when any verdict of any workload was wrong, 2 when a workload could not run.
The per-layer table of a workload comes from ``run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="finmarkov benchmark report")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
