"""In-memory span tracer that wraps public functions of ``treecover``.

Each patch point replaces one attribute under the name its caller looks up
(a module global, a class attribute, or a kernel-module function reached
through ``kernel.kernel_for``), so the package itself is not edited. A
wrapped call records a span ``(name, start_ns, end_ns, parent, op)``; some
also feed per-op counters from their arguments or result.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter_ns


def _shot(counts, args, result):
    counts["hull.shots"] += 1
    counts["hull.merging_shots"] += result[1] is not None
    counts["hull.obstacles_final"] = len(args[0])  # store size after the shot


def _merge(counts, args, result):
    counts["hull.merges"] += 1


def _regions_in(counts, args, result):
    counts["hull.regions_in"] += len(args[0])


def _extract_test(counts, args, result):
    counts["hull.extract_tests"] += 1


def _query(counts, args, result):
    counts["box.queries"] += 1
    counts["box.query_hits"] += len(result)


def _index_write(counts, args, result):
    counts["box.index_writes"] += 1


def _boxes_in(counts, args, result):
    counts["box.boxes_in"] += len(args[0])


def _scan(counts, args, result):
    counts["hull.scan_obstacles"] += len(args[4])  # the ``kinds`` column


def _pair(counts, args, result):
    counts["kernel.find_contacts_pairs"] += 1


# (module, attribute path, span name or None for count-only, counter)
PATCHES = (
    ("treecover.cli", "main", "cli.main", None),
    ("treecover.cli", "parse_instance", "model.parse", None),
    ("treecover.cli", "validate_instance", "model.validate", None),
    ("treecover.cli", "hull_cover_fast", "hull.engine", None),
    ("treecover.cli", "box_cover_fast", "box.engine", None),
    ("treecover.model", "Cover.build", "model.cover_build", None),
    ("treecover.model", "Cover.to_json", "model.to_json", None),
    ("treecover.hullcover", "NaiveRayShooter.shoot_from", "hull.shoot", _shot),
    ("treecover.hullcover", "merge_convex_hulls", "hull.merge", _merge),
    ("treecover.hullcover", "maximal_regions", "hull.extract", _regions_in),
    ("treecover.hullcover", "contained_in", None, _extract_test),
    ("treecover.boxcover", "LinearSegmentRangeIndex.query", "box.query", _query),
    ("treecover.boxcover", "LinearSegmentRangeIndex.insert_box", None, _index_write),
    ("treecover.boxcover", "LinearSegmentRangeIndex.delete_box", None, _index_write),
    ("treecover.boxcover", "maximal_boxes", "box.extract", _boxes_in),
    ("treecover._kernelpy", "scan", "kernel.scan", _scan),
    ("treecover._kernelpy", "find_contacts", "kernel.find_contacts", None),
    ("treecover._kernelpy", "seg_relation", None, _pair),
    ("treecover._kernelpy", "find_vertex_hits", "kernel.find_vertex_hits", None),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Collects spans and per-op counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.op_counts: dict[int, dict] = {}
        self._stack: list[int] = []
        self._op = -1
        self._counts: dict = defaultdict(int)
        self._saved: list = []

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._counts = self.op_counts[op_id] = defaultdict(int)

    def install(self) -> None:
        for module, path, span, counter in PATCHES:
            owner, name = _resolve(module, path)
            orig = vars(owner)[name]
            is_static = isinstance(orig, staticmethod)
            fn = orig.__func__ if is_static else orig
            wrapped = self._span(fn, span, counter) if span else self._count(fn, counter)
            setattr(owner, name, staticmethod(wrapped) if is_static else wrapped)
            self._saved.append((owner, name, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    def _span(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self._op)
            if counter is not None:
                counter(self._counts, args, result)
            return result

        return wrapper

    def _count(self, fn, counter):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(self._counts, args, result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, t0, t1, parent, op in self.spans:
                f.write(json.dumps([name, t0, t1, parent, op]) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [tuple(json.loads(line)) for line in f]


def self_times(spans) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    out = [t1 - t0 for _, t0, t1, _, _ in spans]
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out
