"""Spans around finmarkov's public functions, recorded from outside the library.

`Tracer.install` wraps every public function defined in a layer module and
rebinds the wrapper under every name that points at the original in any
loaded ``finmarkov`` module, so ``from .kernel import compose`` copies are
traced too.  `Tracer.restore` puts the originals back.  Untraced runs never
call `install`.

A span is (name, start_ns, end_ns, parent, query_id, work).  ``work`` is a
count computed from argument and result shapes, not measured.  Spans stay in
memory; `layer_metrics` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

LAYERS = ("kernel", "asrel", "supports", "idempotents", "envelopes", "functors", "cli", "rand", "golden")

STRUCTURAL = {
    "identity",
    "copy_kernel",
    "discard_kernel",
    "swap_kernel",
    "delta_kernel",
    "associator",
    "left_unitor",
    "right_unitor",
    "right_unitor_inv",
    "identity_matrix",
    "structure",
}


def _kernel_cells(args, out):
    return out.cod.size * out.dom.size


def _compose_mac(args, out):
    g, f = args[0], args[1]
    return g.cod.size * f.cod.size * f.dom.size


def _search_found(args, out):
    return 0 if type(out).__name__ == "NoSplitUpTo" else 1


# Computed work per call: multiply-accumulate cells for compose, materialised
# cells for kernels built by tensor and the structural constructors, parsed
# entries for parse_kernel, found splits for search_split.  identity_matrix
# and structure build no Kernel of their own; their caller's cells count.
WORK = {
    "kernel.compose": _compose_mac,
    "kernel.tensor": _kernel_cells,
    "cli.parse_kernel": _kernel_cells,
    "idempotents.search_split": _search_found,
}
WORK.update(
    {f"kernel.{name}": _kernel_cells for name in STRUCTURAL - {"identity_matrix", "structure"}}
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query_id = -1
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.query_id, 0]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if work is not None:
                span[5] = work(args, out)
            return out

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"finmarkov.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "finmarkov" or modname.startswith("finmarkov.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._rebound.append((mod, attr, obj))

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def clear(self) -> None:
        self.spans.clear()


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[int]] = {}
    for sid, span in enumerate(spans):
        children.setdefault(span[3], []).append(sid)
    out = []
    for sid, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0, start
        for cid in sorted(children.get(sid, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[cid][1], reach), min(spans[cid][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, cache_hit_ratio) -> dict:
    """Per-layer numbers of one traced pass, as {metric: (value, unit)}."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    work: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    for span, s in zip(spans, selfs):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + s
        work[name] = work.get(name, 0) + span[5]
        incl_ns[name] = incl_ns.get(name, 0) + span[2] - span[1]

    def group(names):
        return (sum(calls.get(n, 0) for n in names), sum(self_ns.get(n, 0) for n in names) / 1e9,
                sum(work.get(n, 0) for n in names))

    def module(layer):
        return [n for n in calls if n.startswith(layer + ".")]

    m: dict[str, tuple] = {}
    for metric, names in (
        ("kernel.compose", ["kernel.compose"]),
        ("kernel.tensor", ["kernel.tensor"]),
        ("kernel.structural", [f"kernel.{n}" for n in STRUCTURAL]),
    ):
        c, s, w = group(names)
        m[f"{metric}.calls"] = (c, "count")
        m[f"{metric}.self_s"] = (s, "s")
        m[f"{metric}.{'mac' if metric == 'kernel.compose' else 'cells'}"] = (w, "count")
    c, s, _ = group(["kernel.kernel_equal"])
    m["kernel.kernel_equal.calls"] = (c, "count")
    m["kernel.kernel_equal.self_s"] = (s, "s")
    m["kernel.validate.self_s"] = (group(["kernel.validate"])[1], "s")
    for fn in ("asrel.ase", "asrel.abs_cont", "idempotents.classify"):
        c, s, _ = group([fn])
        m[f"{fn}.calls"] = (c, "count")
        m[f"{fn}.self_s"] = (s, "s")
    m["idempotents.classify.cache_hit_ratio"] = (cache_hit_ratio, "ratio")
    for fn in ("idempotents.blackwell_split", "idempotents.verify_split", "idempotents.cauchy_schwarz"):
        m[f"{fn}.self_s"] = (group([fn])[1], "s")
    searches, s, found = group(["idempotents.search_split"])
    search_ids = {sid for sid, span in enumerate(spans) if span[0] == "idempotents.search_split"}
    attempts = sum(1 for span in spans if span[0] == "kernel.compose" and span[3] in search_ids)
    m["idempotents.search_split.calls"] = (searches, "count")
    m["idempotents.search_split.self_s"] = (s, "s")
    m["idempotents.search_split.compose_per_call"] = (attempts / searches if searches else 0.0, "count/call")
    m["idempotents.search_split.found_ratio"] = (found / searches if searches else 0.0, "ratio")
    c, s, _ = group(module("envelopes"))
    m["envelopes.calls"] = (c, "count")
    m["envelopes.self_s"] = (s, "s")
    m["envelopes.env_check_markov_laws.self_s"] = (group(["envelopes.env_check_markov_laws"])[1], "s")
    for layer in ("supports", "functors"):
        c, s, _ = group(module(layer))
        m[f"{layer}.calls"] = (c, "count")
        m[f"{layer}.self_s"] = (s, "s")
    c, s, entries = group(["cli.parse_kernel"])
    parse_s = incl_ns.get("cli.parse_kernel", 0) / 1e9
    m["cli.parse_kernel.calls"] = (c, "count")
    m["cli.parse_kernel.self_s"] = (s, "s")
    m["cli.parse_kernel.entries_per_s"] = (entries / parse_s if parse_s else 0.0, "1/s")
    m["cli.kernel_to_doc.self_s"] = (group(["cli.kernel_to_doc"])[1], "s")
    m["cli.run.self_s"] = (group(["cli.run"])[1], "s")
    m["trace.spans"] = (len(spans), "count")
    return m
