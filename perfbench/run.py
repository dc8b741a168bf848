"""finmarkov benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in fresh worker
processes (worker.py): four that only set up, and one that sets up, warms up
and measures.  ``setup_s`` and the ``setup.*`` numbers are medians over all
five set-ups.  With ``--trace 0`` the result carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.

Human-readable lines come first; the last line of output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is 1
when any verdict was wrong or traced passes disagree on a call or cell
count, and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4
TIMEOUT_S = 150


def worker(args: list[str]) -> dict:
    """Run worker.py to completion and return its JSON report."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args], cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="finmarkov benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "finmarkov", "__init__.py")):
        print("perfbench: no finmarkov sources under src/; run from the root of a checkout", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [worker(common + ["--setup-only"])["setup"] for _ in range(SETUP_PROBES)]
        report = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups.append(report["setup"])
    return finish(args, report, setups)


def finish(args, report: dict, setups: list[dict]) -> int:
    """Print the result of one workload run and return the exit code: 1
    when any verdict was wrong or the traced passes disagree on a count."""
    setup = {k: statistics.median(s[k] for s in setups) for k in setups[0]}

    metrics = dict(report["metrics"])
    if args.trace:
        metrics["setup.import_s"] = (setup["import_s"], "s")
        metrics["setup.generate_s"] = (setup["generate_s"], "s")
    else:
        metrics["setup_s"] = (setup["setup_s"], "s")

    attempted, failed = report["attempted"], report["failed"]
    mismatch = report.get("count_mismatch", [])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "query_tail_ms":
            t = report["tail"]
            note = f"  (p{t['percentile']} of {t['samples']} queries, {t['beyond']} beyond)"
        print(f"  {name:45s} {value!s:>22} {unit}{note}")
    print(f"  {'failed_frac':45s} {failed / attempted:>22} ratio  ({failed} of {attempted} queries)")
    if "speed" in report:
        print(f"  times are normalised; this machine ran at {report['speed']:.3f} x the calibration reference")
    if report["failed_ops"]:
        print(f"  wrong verdicts in: {', '.join(report['failed_ops'])}")
    if mismatch:
        print(f"  counts differ between traced passes: {', '.join(mismatch)}")
    correct = failed == 0 and not mismatch
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
