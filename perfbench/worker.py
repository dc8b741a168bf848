"""One workload in one fresh process: set-up, warm-up, measured passes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Prints one JSON report as its last line of output; run.py combines several
of these into the benchmark's result.  A pass runs the workload's fixed
query list once, closed loop, one client: the next query starts when the
previous verdict is back.  Every pass gets inputs of its own, rebuilt from
the same seed, and starts with every finmarkov cache cleared (see
`program_caches`), so every pass does the work of a fresh call.

Times are normalised for the speed of the machine.  On a shared host the
same pure-Python loop can take 60 % longer within a few seconds, far more
than the changes the benchmark has to resolve.  So the worker times
`calibrate`, a fixed slice of Fraction, tuple and dict work that does not
touch finmarkov, before every query and every TICK_S during it (see
`SpeedProbe`), and scales the query's time by CALIBRATION_NS over the median
of the calibrations during and around it.  Reported times are therefore
those of a machine on which `calibrate` takes CALIBRATION_NS; the measured
speed factor is reported alongside.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from fractions import Fraction
from time import perf_counter, perf_counter_ns

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FIXTURES = os.path.join(SRC, "finmarkov", "fixtures")

# Median duration of `calibrate` on a 2-core x86-64 sandbox under CPython 3.11.
CALIBRATION_NS = 600_000
WINDOW = 4  # calibrations on each side of a query that set its scale
TICK_S = 0.05  # period of the calibrations taken during a query


def calibrate() -> int:
    """A fixed slice of Fraction, tuple and dict work; never touches finmarkov."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    rows = [tuple(j * i for j in range(12)) for i in range(80)]
    seen: dict[int, int] = {}
    for r in rows:
        seen[r[3] % 17] = seen.get(r[3] % 17, 0) + len(r)
    return acc.numerator % 7 + len(seen)


def calibration_ns() -> int:
    """Duration of one `calibrate`, with the cyclic garbage collector off so
    that the size of the heap left by earlier queries does not show."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        calibrate()
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Calibration samples taken around and during timed work.

    `mark` takes one before each query.  While the probe is entered, a
    SIGALRM timer also takes one every TICK_S, so a query that runs for
    seconds gets samples from its own run time.  The time spent in those
    samples is counted in ``stolen`` and subtracted from what it interrupted.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[int, int]] = []  # (timestamp, calibration) in ns
        self.stolen = 0

    def _tick(self, signum, frame) -> None:
        start = perf_counter_ns()
        self.marks.append((start, calibration_ns()))
        self.stolen += perf_counter_ns() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> None:
        start, stolen = perf_counter_ns(), self.stolen
        took = calibration_ns()
        self.marks.append((start, took - (self.stolen - stolen)))

    def speed(self) -> float:
        return CALIBRATION_NS / statistics.median(c for _, c in self.marks)

    def scales(self, intervals) -> list[float]:
        """For each (start, end): CALIBRATION_NS over the median of the
        samples taken inside it and the WINDOW samples on either side."""
        marks = sorted(self.marks)
        stamps = [t for t, _ in marks]
        out = []
        for start, end in intervals:
            lo = max(0, bisect.bisect_left(stamps, start) - WINDOW)
            hi = bisect.bisect_right(stamps, end) + WINDOW
            out.append(CALIBRATION_NS / statistics.median(c for _, c in marks[lo:hi]))
        return out


def tail(samples) -> tuple[int, float, int]:
    """(p, value, beyond): the highest whole percentile p whose nearest-rank
    value has at least 10 samples ranked beyond it."""
    s = sorted(samples)
    n = len(s)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return p, s[rank - 1], n - rank
    raise ValueError(f"a tail needs at least 11 samples, got {n}")


def setup(workload: str, seed: int, workdir: str):
    """Import the program and generate every input; returns a function that
    builds the measured query list (the same inputs on every call, as new
    objects), the warm-up query list and the set-up timings.  Warm-up inputs
    come from a separate seed stream and leave out the workload's fixed
    inputs."""
    probe = SpeedProbe()
    with probe:
        for _ in range(WINDOW):
            probe.mark()
        s0, t0 = probe.stolen, perf_counter_ns()
        sys.path.insert(0, SRC)
        import finmarkov  # noqa: F401
        import finmarkov.cli  # noqa: F401
        import finmarkov.golden  # noqa: F401

        s1, t1 = probe.stolen, perf_counter_ns()
        dirs = [os.path.join(workdir, d) for d in ("measure", "warmup")]
        for d in dirs:
            os.mkdir(d)

        def make():
            return workloads.build(workload, random.Random(f"{workload}/{seed}/measure"), dirs[0], FIXTURES)

        make()  # timed here as set-up; each pass then builds its own
        warm = workloads.build(workload, random.Random(f"{workload}/{seed}/warmup"), dirs[1], FIXTURES, warmup=True)
        s2, t2 = probe.stolen, perf_counter_ns()
        for _ in range(WINDOW):
            probe.mark()
    scale = probe.scales([(t0, t2)])[0] / 1e9
    import_ns = t1 - t0 - (s1 - s0)
    generate_ns = t2 - t1 - (s2 - s1)
    return make, warm, {"setup_s": (import_ns + generate_ns) * scale, "import_s": import_ns * scale,
                        "generate_s": generate_ns * scale}


def _classify_cache():
    import finmarkov.idempotents as I

    return getattr(I, "_classify_cached", None)


def program_caches() -> list:
    """Every object with a ``cache_clear`` (as `functools.lru_cache` and
    `functools.cache` give) bound in a loaded finmarkov module or in a class
    defined there.  Memos of other shapes are not found; rebuilding the
    inputs for every pass keeps the ones that hang off input objects from
    carrying over."""
    found: dict[int, object] = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "finmarkov" or name.startswith("finmarkov.")):
            continue
        values = list(vars(module).values())
        for value in list(values):
            if isinstance(value, type) and value.__module__.startswith("finmarkov"):
                values += [getattr(v, "__func__", v) for v in vars(value).values()]
        found.update((id(v), v) for v in values if callable(getattr(v, "cache_clear", None)))
    return list(found.values())


def verdict_ok(q, out) -> bool:
    try:
        return bool(q.check(out))
    except Exception:  # a malformed result is a wrong verdict
        return False


def run_pass(queries, tracer=None):
    """Run every query once; returns (normalised nanoseconds per query,
    failed indices, machine speed factor)."""
    for cache in program_caches():
        cache.cache_clear()
    gc.collect()
    times, intervals, failed = [], [], []
    with SpeedProbe() as probe:
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.query_id = i
            probe.mark()
            stolen = probe.stolen
            start = perf_counter_ns()
            try:
                out = q.call()
            except Exception as exc:  # an unexpected exception is a failed query
                out = exc
            end = perf_counter_ns()
            times.append(end - start - (probe.stolen - stolen))
            intervals.append((start, end))
            if not verdict_ok(q, out):
                failed.append(i)
    return [t * s for t, s in zip(times, probe.scales(intervals))], failed, probe.speed()


def measure(make, seconds: float) -> dict:
    """Whole passes, each on a fresh ``make()``, until the next one would
    end after ``seconds``."""
    passes, speeds, failed_ops, attempted, failed = [], [], set(), 0, 0
    start = perf_counter()
    while True:
        t = perf_counter()
        queries = make()
        times, bad, speed = run_pass(queries)
        passes.append(times)
        speeds.append(speed)
        attempted += len(queries)
        failed_ops.update(queries[i].op for i in bad)
        failed += len(bad)
        del queries
        if perf_counter() - start + (perf_counter() - t) > seconds:
            break
    # one latency per query: its median over the passes, so the sample
    # count (and with it the tail percentile) is fixed by the workload, and
    # throughput is the query count over one pass of those medians
    per_query = [statistics.median(p[i] for p in passes) / 1e6 for i in range(len(passes[0]))]
    p, tail_ms, beyond = tail(per_query)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ops": sorted(failed_ops),
        "passes": len(passes),
        "speed": statistics.median(speeds),
        "metrics": {
            "queries_per_s": (len(per_query) / (sum(per_query) / 1e3), "1/s"),
            "query_p50_ms": (statistics.median(per_query), "ms"),
            "query_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "tail": {"percentile": p, "samples": len(per_query), "beyond": beyond},
    }


def measure_traced(make, seconds: float) -> dict:
    """Pairs of one untraced and one traced pass, each on a fresh
    ``make()``, until time is up.  Layer numbers come from the first traced
    pass; later traced passes must repeat its counts exactly."""
    tracer = spans.Tracer()
    cache = _classify_cache()
    plain_ns = traced_ns = 0
    first, attempted, failed, failed_ops, mismatched = None, 0, 0, set(), set()
    start = perf_counter()
    while True:
        t = perf_counter()
        queries = make()
        times, bad, _ = run_pass(queries)
        plain_ns += sum(times)
        failed += len(bad)
        failed_ops.update(queries[i].op for i in bad)
        del queries
        queries = make()
        tracer.install()
        try:
            before = cache.cache_info() if cache is not None else None
            times, bad, speed = run_pass(queries, tracer)
            after = cache.cache_info() if cache is not None else None
        finally:
            tracer.restore()
        traced_ns += sum(times)
        failed += len(bad)
        failed_ops.update(queries[i].op for i in bad)
        attempted += 2 * len(queries)
        del queries
        ratio = None
        if cache is not None:
            looked = (after.hits - before.hits) + (after.misses - before.misses)
            ratio = (after.hits - before.hits) / looked if looked else 0.0
        layers = spans.layer_metrics(tracer.spans, ratio)
        tracer.clear()
        # span times are raw; scale them like the query times
        for k, (v, unit) in layers.items():
            if unit == "s":
                layers[k] = (v * speed, unit)
            elif unit == "1/s":
                layers[k] = (v / speed, unit)
        if first is None:
            first = layers
        else:
            mismatched.update(k for k, (v, unit) in layers.items()
                              if unit in ("count", "count/call", "ratio") and v != first[k][0])
        if perf_counter() - start + (perf_counter() - t) > seconds:
            break
    first["trace.overhead_frac"] = (traced_ns / plain_ns - 1, "ratio")
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ops": sorted(failed_ops),
        "count_mismatch": sorted(mismatched),
        "metrics": first,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    how = ap.add_mutually_exclusive_group(required=True)
    how.add_argument("--seconds", type=float)
    how.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        make, warm, setup_times = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            report = {"setup": setup_times}
        else:
            run_pass(warm)
            measured = measure_traced if args.trace else measure
            report = measured(make, args.seconds)
            report["setup"] = setup_times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
