"""Span tracing around the public callables of each critcenter layer.

Tracing lives entirely in the benchmark: ``install`` replaces each traced
callable, in every ``critcenter`` module that names it, by a wrapper that
records one span per call.  A span is ``(id, parent, job, thread, name,
start_ns, end_ns)``; spans stay in memory until ``Tracer.write`` appends them
to a JSON-lines file when the job ends.

A span's self time is its duration minus the part of it that its child spans
cover.  Children of one span can overlap only when they ran on other threads
(the scan pool of ``vanishing_report``), so covered time is the union of the
child intervals.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# (owner, attribute names sharing one function, span name).  Owners are
# module names or "module:Class".
TRACED = (
    ("critcenter.laurent:LaurentElement", ("__mul__", "__rmul__"), "laurent.mul"),
    ("critcenter.laurent:LaurentElement", ("__add__",), "laurent.add"),
    ("critcenter.laurent:LaurentElement", ("invert",), "laurent.invert"),
    ("critcenter.algebra", ("bracket",), "algebra.bracket"),
    ("critcenter.pbw:NCPoly", ("__mul__", "__rmul__"), "pbw.ncpoly_mul"),
    ("critcenter.pbw:NCPoly", ("__add__",), "pbw.ncpoly_add"),
    ("critcenter.pbw", ("hc_project",), "pbw.hc_project"),
    ("critcenter.sugawara", ("cdet",), "sugawara.cdet"),
    ("critcenter.sugawara", ("ss_vectors",), "sugawara.ss_vectors"),
    ("critcenter.modules:RootModule", ("act",), "modules.act"),
    ("critcenter.modules:RootModule", ("fourier_act",), "modules.fourier_act"),
    ("critcenter.modules", ("state_is_central",), "modules.state_is_central"),
    ("critcenter.modules", ("vanishing_report",), "modules.vanishing_report"),
    ("critcenter.diffop", ("laurent_matrix_det",), "diffop.laurent_matrix_det"),
    ("critcenter.diffop", ("certificate_determinant",), "diffop.certificate_determinant"),
    ("critcenter.diffop", ("cyclic_vector_search",), "diffop.cyclic_vector_search"),
    ("critcenter.diffop", ("connection_to_oper",), "diffop.connection_to_oper"),
    ("critcenter.cli", ("run",), "cli.run"),
)

# Spans whose children may run on pool threads: a span opened on a thread
# with an empty stack takes the innermost open fan-out span as its parent.
FANOUT = {"modules.vanishing_report"}

COUNTED = (
    "laurent.mul", "laurent.add", "laurent.invert", "diffop.laurent_matrix_det",
    "pbw.ncpoly_mul", "pbw.ncpoly_add", "modules.act", "modules.fourier_act",
    "algebra.bracket",
)
SELF_ONLY = ("pbw.hc_project", "sugawara.cdet")
INCLUSIVE = (
    "diffop.connection_to_oper", "sugawara.ss_vectors", "modules.state_is_central",
    "modules.vanishing_report", "cli.run",
)


def layer_metric_names():
    """Every per-layer metric a job reports, with its unit."""
    names = {}
    for name in COUNTED:
        names[f"{name}.calls"] = "count"
        names[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        names[f"{name}.self_s"] = "s"
    for name in INCLUSIVE:
        names[f"{name}.s"] = "s"
    names.update({
        "diffop.oper.precision_retries": "count",
        "diffop.cyclic.candidates": "count",
        "diffop.cyclic.hit_ratio": "ratio",
        "pbw.straighten_cache.entries.deglex": "count",
        "pbw.straighten_cache.entries.triangular": "count",
        "sugawara.S.terms": "count",
        "modules.scan.cells": "count",
        "modules.scan.workers": "count",
        "modules.scan.busy_over_wall": "ratio",
        "modules.act_cache.entries": "count",
        "modules.fourier_cache.entries": "count",
    })
    return names


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans for one job; install() patches, write() flushes."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout = []
        self.modules = []  # every RootModule built during the job
        self.workers = 0  # effective scan pool size seen by vanishing_report

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function, name):
        spans, ids, job = self.spans, self._ids, self.job_id
        fanout = self._fanout if name in FANOUT else None

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._fanout[-1] if self._fanout else None
            sid = next(ids)
            stack.append(sid)
            if fanout is not None:
                fanout.append(sid)
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if fanout is not None:
                    fanout.pop()
                spans.append(
                    (sid, parent, job, threading.get_ident(), name, start, end)
                )

        traced.__wrapped__ = function
        return traced

    def install(self):
        """Patch every traced callable in every loaded critcenter module."""
        import critcenter.cli  # noqa: F401  (loads every layer)
        from critcenter import modules

        loaded = [m for n, m in sys.modules.items() if n.split(".")[0] == "critcenter"]
        for owner, attrs, name in TRACED:
            target = _resolve(owner)
            original = getattr(target, attrs[0])
            wrapper = self._wrap(original, name)
            for attr in attrs:
                setattr(target, attr, wrapper)
            if isinstance(target, type):
                continue
            for module in loaded:  # names bound by "from .x import f"
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        tracer = self
        init = modules.RootModule.__init__

        def recording_init(module, *args, **kwargs):
            init(module, *args, **kwargs)
            tracer.modules.append(module)

        modules.RootModule.__init__ = recording_init
        workers_from_env = modules._workers_from_env

        def recording_workers(cells):
            count = workers_from_env(cells)
            tracer.workers = max(tracer.workers, count if cells > 1 else 1)
            return count

        modules._workers_from_env = recording_workers

    def write(self, path):
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    def layer_metrics(self):
        """Per-layer metrics of this job from its spans and the caches it left."""
        from critcenter import sugawara

        by_id = {span[0]: span for span in self.spans}
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append(span)
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        outer_ns = defaultdict(int)
        for span in self.spans:
            sid, parent, _, _, name, start, end = span
            calls[name] += 1
            self_ns[name] += end - start - _covered(children.get(sid, ()), start, end)
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[4] != name:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:  # outermost span of a recursion
                outer_ns[name] += end - start

        metrics = {}
        for name in COUNTED:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_ns[name] / 1e9
        for name in SELF_ONLY:
            metrics[f"{name}.self_s"] = self_ns[name] / 1e9
        for name in INCLUSIVE:
            metrics[f"{name}.s"] = outer_ns[name] / 1e9

        retries = 0
        searches = candidates = 0
        cells = busy_ns = 0
        for span in self.spans:
            kids = children.get(span[0], ())
            if span[4] == "diffop.connection_to_oper":
                inverts = sum(1 for k in kids if k[4] == "laurent.invert")
                retries += max(0, inverts - 1)
            elif span[4] == "diffop.cyclic_vector_search":
                searches += 1
                candidates += sum(
                    1 for k in kids if k[4] == "diffop.certificate_determinant"
                )
            elif span[4] == "modules.vanishing_report":
                scans = [k for k in kids if k[4] == "modules.fourier_act"]
                cells += len(scans)
                busy_ns += sum(k[6] - k[5] for k in scans)
        scan_ns = outer_ns["modules.vanishing_report"]
        metrics["diffop.oper.precision_retries"] = retries
        metrics["diffop.cyclic.candidates"] = candidates
        metrics["diffop.cyclic.hit_ratio"] = searches / candidates if candidates else 0.0
        metrics["modules.scan.cells"] = cells
        metrics["modules.scan.workers"] = self.workers
        metrics["modules.scan.busy_over_wall"] = busy_ns / scan_ns if scan_ns else 0.0

        families = list(sugawara._family_cache.values())
        for order in ("deglex", "triangular"):
            metrics[f"pbw.straighten_cache.entries.{order}"] = sum(
                len(f.S[0].algebra._straighten_cache.get(order, {})) for f in families
            )
        metrics["sugawara.S.terms"] = sum(len(s._terms) for f in families for s in f.S)
        metrics["modules.act_cache.entries"] = sum(len(m._act_cache) for m in self.modules)
        metrics["modules.fourier_cache.entries"] = sum(
            len(m._fourier_cache) for m in self.modules
        )
        return metrics


def _covered(kids, start, end):
    """Length of the union of the child intervals, clipped to [start, end]."""
    if not kids:
        return 0
    total = 0
    cur_start = cur_end = None
    for _, _, _, _, _, s, e in sorted(kids, key=lambda k: k[5]):
        s, e = max(s, start), min(e, end)
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    return total + (cur_end - cur_start)
