"""Spans and counters recorded from outside the package.

The tracer replaces a function at every name through which the package
looks it up (``separation.body_distance`` and ``basis.body_distance`` are
the same function reached through two modules) and restores the originals
when it is closed.  Each span keeps its name, start, end, parent span and
operation id in memory; self time is a span's duration minus the part of it
that its child spans cover.  Counters are read from the returned results.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

# (span name, ((module, attribute), ...), counter kind) for every traced
# layer boundary; "regions.ConeRegion" names the class that owns the method.
LAYERS = (
    ("separation.separate_sym",
     (("separation", "separate_sym"), ("basis", "separate_sym"),
      ("cli", "separate_sym")), None),
    ("separation.separate_nonsym",
     (("separation", "separate_nonsym"), ("basis", "separate_nonsym"),
      ("cli", "separate_nonsym")), None),
    ("separation.boundary_equivalence_report",
     (("separation", "boundary_equivalence_report"),), None),
    ("separation.verify_certificate",
     (("separation", "verify_certificate"), ("cli", "verify_certificate")), None),
    ("basis.interpolate", (("basis", "interpolate"), ("cli", "interpolate")), None),
    ("basis.is_well_based", (("basis", "is_well_based"), ("cli", "is_well_based")), None),
    ("basis.has_convex_base",
     (("basis", "has_convex_base"), ("cli", "has_convex_base")), None),
    ("distance.body_distance",
     (("distance", "body_distance"), ("separation", "body_distance"),
      ("basis", "body_distance")), "distance"),
    ("kernels.min_norm_point",
     (("kernels", "min_norm_point"), ("basis", "min_norm_point")), "mnp"),
    ("kernels.project_onto_cone", (("kernels", "project_onto_cone"),), None),
    ("kernels.nnls", (("kernels", "nnls"),), "nnls"),
    ("regions.lmo", (("regions.ConeRegion", "lmo"),), None),
    ("geometry.strictly_interior", (("geometry", "strictly_interior"),), None),
    ("geometry.facets", (("geometry", "facets"),), None),
    ("oracle.sample_norm_base", (("oracle", "sample_norm_base"),), None),
    ("instances.load_instance",
     (("instances", "load_instance"), ("cli", "load_instance")), None),
)
# Spans opened by the workloads: the root of one API operation, and the
# batch and per-file spans of the CLI.
OP = "bench.op"
CLI_MAIN = "cli.main"
CLI_FILE = "cli.file"
SPAN_NAMES = tuple(name for name, _, _ in LAYERS) + (OP, CLI_MAIN, CLI_FILE)


def _count(counts, kind, result, args) -> None:
    if kind == "distance":
        counts["distance.body_distance.fw_iters"] += result.iterations
        counts["distance.body_distance.uncertified"] += not result.certified
    elif kind == "mnp":
        counts["kernels.min_norm_point.iters"] += result.iterations
        counts["kernels.min_norm_point.uncertified"] += not result.certified
        counts["kernels.min_norm_point.points"] += len(args[0])
    elif kind == "nnls":
        counts["kernels.nnls.iters"] += result.iterations
        counts["kernels.nnls.uncertified"] += not result.certified


class Tracer:
    """Records spans while installed; ``close`` restores the package."""

    def __init__(self, modules: dict):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []
        for name, targets, kind in LAYERS:
            for mod_name, attr in targets:
                owner = _resolve(modules, mod_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, kind))

    def close(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, root: bool = False, parent: int | None = None):
        """Start a span on this thread; returns a token for ``end``.

        A root span starts a new operation; other spans inherit the
        operation and, unless given, the parent from this thread's stack.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        op = next(self._ops) if root else (stack[-1][1] if stack else None)
        sid = next(self._ids)
        stack.append((sid, op))
        return sid, name, time.perf_counter(), parent, op

    def end(self, token) -> None:
        sid, name, start, parent, op = token
        self.spans.append((sid, name, start, time.perf_counter(), parent, op))
        self._stack().pop()

    def _wrap(self, name, fn, kind):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(token)
            if kind is not None:
                with self._lock:
                    _count(self.counts, kind, result, args)
            return result
        return traced


def _resolve(modules: dict, dotted: str):
    mod_name, _, cls = dotted.partition(".")
    owner = modules[mod_name]
    return getattr(owner, cls) if cls else owner


def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        lo = hi = None
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, start), min(e, end)
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out[sid] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics: calls and self time per span name, the counters,
    the CLI pool figures, and the self-time balance of the operations."""
    spans = tracer.spans
    own = self_times(spans)
    out = {f"{n}.{k}": 0.0 for n in SPAN_NAMES for k in ("calls", "self_s")}
    for sid, name, *_ in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[sid]
    c = tracer.counts
    calls = out["distance.body_distance.calls"]
    out["distance.body_distance.fw_iters"] = c["distance.body_distance.fw_iters"]
    out["distance.body_distance.uncertified"] = c["distance.body_distance.uncertified"]
    out["distance.body_distance.per_op"] = calls / ops
    mnp = out["kernels.min_norm_point.calls"]
    out["kernels.min_norm_point.iters"] = c["kernels.min_norm_point.iters"]
    out["kernels.min_norm_point.uncertified"] = c["kernels.min_norm_point.uncertified"]
    out["kernels.min_norm_point.points_mean"] = (
        c["kernels.min_norm_point.points"] / mnp if mnp else 0.0)
    out["kernels.nnls.iters"] = c["kernels.nnls.iters"]
    out["kernels.nnls.uncertified"] = c["kernels.nnls.uncertified"]
    wall = sum(e - s for _, n, s, e, _, _ in spans if n == CLI_MAIN)
    busy = sum(e - s for _, n, s, e, _, _ in spans if n == CLI_FILE)
    out["cli.main.wall_s"] = wall
    out["cli.busy_s"] = busy
    out["cli.pool_speedup"] = busy / wall if wall else 0.0
    # Every span inside an operation belongs to exactly one root, so the
    # self times of an operation's spans add up to its root's duration.
    op_of = {sid: op for sid, *_, op in spans}
    out["trace.op_s"] = sum(
        e - s for _, _, s, e, parent, op in spans
        if op is not None and op_of.get(parent) is None)
    out["trace.self_sum_s"] = sum(own[sid] for sid, *_, op in spans if op is not None)
    out["trace.spans"] = float(len(spans))
    return out
