"""Tests of the benchmark itself (not of finmarkov).

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def scratch_dir():
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    return tempfile.TemporaryDirectory(dir=os.path.join(BENCH, ".work"))


def build(name, seed, directory, warmup=False):
    return workloads.build(name, random.Random(f"{name}/{seed}/measure"), directory, worker.FIXTURES, warmup)


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(worker.tail(range(1, 101)), (90, 90, 10))
        self.assertEqual(worker.tail(range(88)), (88, 77, 10))

    def test_small_samples(self):
        self.assertEqual(worker.tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11]), (9, 1, 10))
        with self.assertRaises(ValueError):
            worker.tail(range(10))


class Normalise(unittest.TestCase):
    def test_scales_by_calibrations_during_and_around(self):
        ref = worker.CALIBRATION_NS
        probe = worker.SpeedProbe()
        # calibrations at t = 0..9 run at reference speed, then half speed
        probe.marks = [(t, ref) for t in range(10)] + [(t, 2 * ref) for t in range(10, 40)]
        self.assertEqual(probe.scales([(2, 3)]), [1.0])
        self.assertEqual(probe.scales([(20, 30)]), [0.5])
        # a long query whose own samples outnumber its neighbours
        self.assertEqual(probe.scales([(5, 30)]), [0.5])
        self.assertEqual(probe.speed(), 0.5)

    def test_timer_samples_during_a_query_and_restores_the_handler(self):
        import signal
        import time

        previous = signal.getsignal(signal.SIGALRM)
        with worker.SpeedProbe() as probe:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(probe.marks), 3)
        self.assertGreater(probe.stolen, 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class SelfTime(unittest.TestCase):
    # name, start, end, parent, query, work
    TREE = [
        ["idempotents.search_split", 0, 100, -1, 0, 1],
        ["kernel.compose", 10, 30, 0, 0, 8],
        ["kernel.compose", 40, 70, 0, 0, 8],
        ["kernel.kernel_equal", 50, 60, 2, 0, 0],
        ["idempotents.search_split", 200, 210, -1, 1, 0],
    ]

    def test_self_time_subtracts_children(self):
        self.assertEqual(spans.self_times(self.TREE), [50, 20, 20, 10, 10])

    def test_layer_metrics_from_tree(self):
        m = spans.layer_metrics(self.TREE, 0.5)
        self.assertEqual(m["idempotents.search_split.calls"], (2, "count"))
        self.assertEqual(m["idempotents.search_split.compose_per_call"], (1.0, "count/call"))
        self.assertEqual(m["idempotents.search_split.found_ratio"], (0.5, "ratio"))
        self.assertEqual(m["kernel.compose.mac"], (16, "count"))
        self.assertAlmostEqual(m["kernel.compose.self_s"][0], 40e-9)
        self.assertAlmostEqual(m["idempotents.search_split.self_s"][0], 60e-9)
        self.assertEqual(m["trace.spans"], (5, "count"))

    def test_install_rebinds_imported_copies_and_restores(self):
        import finmarkov.idempotents as I
        import finmarkov.kernel as K

        original = K.compose
        e = K.identity(K.fin_object("ab"))
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(I.compose, original)
            self.assertIs(I.compose, K.compose)
            I.two_step(e)
        finally:
            tracer.restore()
        self.assertIs(I.compose, original)
        self.assertIs(K.compose, original)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names[0], "idempotents.two_step")
        self.assertEqual(names.count("kernel.compose"), 2)
        self.assertEqual([s[3] for s in tracer.spans if s[0] == "kernel.compose"], [0, 0])
        self.assertTrue(all(s[3] >= 0 for s in tracer.spans[1:]))


class Oracle(unittest.TestCase):
    def load(self, name):
        with open(os.path.join(worker.FIXTURES, name), encoding="utf-8") as fh:
            return oracle.from_doc(json.load(fh))

    def test_reference_flags_match_documented_fixture_flags(self):
        for name, flags in oracle.FIXTURE_FLAGS.items():
            with self.subTest(name):
                self.assertEqual(oracle.classify_flags(self.load(name)[3]), flags)

    def test_reference_domination_on_the_remark_pair(self):
        q, p = self.load("remark_q.json")[3], self.load("remark_p.json")[3]
        self.assertTrue(set(oracle.reached_rows(p)) <= set(oracle.reached_rows(q)))
        q0, p0 = [[r[0]] for r in q], [[r[0]] for r in p]
        self.assertFalse(set(oracle.reached_rows(p0)) <= set(oracle.reached_rows(q0)))

    def test_reference_envelope_laws_on_the_signed_counterexample(self):
        from finmarkov import golden

        laws = oracle.envelope_laws(workloads.rows(golden.signed_coassoc_counterexample().matrix))
        self.assertFalse(laws["coassociative"])
        self.assertTrue(laws["counit_left"] and laws["counit_right"] and laws["cocommutative"])

    def test_program_agrees_on_every_fixture_query(self):
        with scratch_dir() as d:
            queries = [q for q in build("cli-small", 1, d) if q.op.startswith("fixture-")]
            failed = worker.run_pass(queries)[1]
        self.assertEqual(failed, [])
        self.assertEqual(sum(q.op == "fixture-classify" for q in queries), len(oracle.FIXTURE_FLAGS))


class Counting(unittest.TestCase):
    def test_injected_wrong_verdict_is_counted(self):
        import finmarkov.cli as C

        with scratch_dir() as d:
            queries = build("cli-small", 2, d)
            clean = worker.run_pass(queries)[1]
            original = C.abs_cont
            C.abs_cont = lambda q, p: not original(q, p)
            try:
                failed = worker.run_pass(queries)[1]
            finally:
                C.abs_cont = original
        # every query whose verdict goes through the CLI's abs_cont fails
        affected = {"abscont", "fixture-abscont", "verify-paper"}
        self.assertEqual(clean, [])
        self.assertEqual({queries[i].op for i in failed}, affected)
        self.assertEqual(len(failed), sum(q.op in affected for q in queries))

    def test_unexpected_exception_is_a_failed_query(self):
        def boom():
            raise RuntimeError("unexpected")

        queries = [workloads.Query("x", 1, boom, lambda out: not isinstance(out, Exception))]
        self.assertEqual(worker.run_pass(queries)[1], [0])


class Inputs(unittest.TestCase):
    def test_second_seed_gives_the_same_mix(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name), scratch_dir() as d:
                os.mkdir(os.path.join(d, "a"))
                os.mkdir(os.path.join(d, "b"))
                a = build(name, 1, os.path.join(d, "a"))
                b = build(name, 2, os.path.join(d, "b"))
                self.assertEqual([(q.op, q.size) for q in a], [(q.op, q.size) for q in b])

    def test_warm_up_leaves_out_the_inputs_every_seed_shares(self):
        with scratch_dir() as d:
            cli = build("cli-small", 1, d, warmup=True)
            multi = build("multi-split", 1, d, warmup=True)
        self.assertFalse([q for q in cli if q.op.startswith("fixture-") or q.op == "verify-paper"])
        self.assertFalse([q for q in multi if q.op == "classify-search" and q.size == 2])

    def test_traced_counts_repeat(self):
        with scratch_dir() as d:
            first = worker.measure_traced(lambda: build("cli-small", 3, d), 0)
            second = worker.measure_traced(lambda: build("cli-small", 3, d), 0)
        counts = {k for k, (v, unit) in first["metrics"].items() if unit in ("count", "count/call", "ratio")}
        self.assertIn("kernel.compose.mac", counts)
        for k in counts - {"trace.overhead_frac"}:
            self.assertEqual(first["metrics"][k], second["metrics"][k], k)
        self.assertEqual(first["failed"], 0)


class FreshPasses(unittest.TestCase):
    def test_every_program_cache_is_cleared_before_a_pass(self):
        import types

        import finmarkov.idempotents as I
        import finmarkov.kernel as K

        @functools.lru_cache
        def plain(x):
            return x

        class Holder:
            @functools.cache
            def method(self, x):
                return x

            @staticmethod
            @functools.lru_cache
            def static(x):
                return x

        probe = types.ModuleType("finmarkov._cache_probe")
        Holder.__module__ = probe.__name__
        probe.plain, probe.Holder = plain, Holder
        sys.modules[probe.__name__] = probe
        try:
            holder = Holder()
            I.classify(K.identity(K.fin_object("ab")))
            for fill in (plain, Holder.static, holder.method):
                fill(1)
            caches = worker.program_caches()
            worker.run_pass([workloads.Query("x", 1, lambda: True, bool)])
        finally:
            del sys.modules[probe.__name__]
        for cache in (plain, Holder.method, Holder.static, I._classify_cached):
            self.assertTrue(any(c is cache for c in caches), cache)
            self.assertEqual(cache.cache_info().currsize, 0, cache)

    def test_a_count_that_differs_between_traced_passes_fails_the_run(self):
        import finmarkov.kernel as K

        e = K.identity(K.fin_object("ab"))
        composes = [1]

        def call():
            # one more compose on every pass, traced or not
            for _ in range(composes[0]):
                K.compose(e, e)
            composes[0] += 1
            return True

        report = worker.measure_traced(lambda: [workloads.Query("x", 2, call, bool)], 0.3)
        self.assertIn("kernel.compose.calls", report["count_mismatch"])
        self.assertEqual(report["failed"], 0)
        report["setup"] = {"setup_s": 1.0, "import_s": 0.5, "generate_s": 0.5}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.finish(argparse.Namespace(workload="x", seed=1, trace=1), report, [report["setup"]])
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(out.getvalue().strip().splitlines()[-1])["correct"])


class Command(unittest.TestCase):
    def run_bench(self, cwd, *extra):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", "cli-small",
             "--seed", "1", "--seconds", "1", *extra],
            cwd=cwd, capture_output=True, text=True, timeout=170,
        )

    def copy_checkout(self, d, with_src=True):
        shutil.copytree(BENCH, os.path.join(d, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        if with_src:
            shutil.copytree(os.path.join(ROOT, "src"), os.path.join(d, "src"),
                            ignore=shutil.ignore_patterns("__pycache__"))

    def test_prints_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for flag, group in (("0", "end_to_end"), ("1", "per_layer")):
            proc = self.run_bench(ROOT, "--trace", flag)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[group]})
            for m in spec[group]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                self.assertRegex(proc.stdout, rf"\n  {m['name']} +\S+ {m['unit']}")

    def test_wrong_verdict_exits_nonzero(self):
        with scratch_dir() as d:
            self.copy_checkout(d)
            path = os.path.join(d, "src", "finmarkov", "asrel.py")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            marker = "    return set(support_indices(p)) <= set(support_indices(q))"
            self.assertIn(marker, text)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(marker, "    return not (set(support_indices(p)) <= set(support_indices(q)))"))
            proc = self.run_bench(d)
        self.assertEqual(proc.returncode, 1)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_fails_without_the_program(self):
        with scratch_dir() as d:
            self.copy_checkout(d, with_src=False)
            proc = self.run_bench(d)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
