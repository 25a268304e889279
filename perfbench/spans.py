"""Span and count tracing around the program's public functions.

The tracer replaces each traced function in every ``affinecover``
module namespace that holds that function object, so ``lva_exact`` is
traced whether ``bounds`` or ``constructions`` calls it.  A span records
(function, start, end, parent span, job, value); ``value`` is a number
read off the call's argument or result, such as the edge-pair count of
a verified drawing.  Spans stay in memory until :meth:`Tracer.dump`.

Geometry predicates only bump a counter: a span per call would cost
more than the predicate it measures.

Only the benchmark's own files change; the program is patched while a
traced pass runs and restored after it.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

#: Traced functions per module.  The value hook gives a span its number.
SPANNED = {
    "graphs": ("parse_graph", "to_graph6"),
    "drawing": (
        "verify_crossing_free",
        "verify_cover_witness",
        "exact_set_cover",
        "greedy_set_cover",
        "min_vertex_line_cover",
        "min_edge_plane_cover",
        "edge_line_count",
        "segment_slope_count",
    ),
    "planar": ("planarity_test", "tree_tracks", "grid_drawing", "dual_circumference_bound"),
    "solvers": (
        "bisection_width_exact",
        "treewidth_exact",
        "chromatic_number",
        "lva_exact",
        "vertex_thickness_exact",
        "clique_cover_exact",
    ),
    "bounds": ("bound_report",),
    "constructions": (
        "pi13_drawing",
        "pi23_drawing",
        "moment_curve_kn",
        "kn_small_plane_cover",
        "kpq_plane_book",
        "parallel_kpq_lines",
        "k2q_optimal",
        "spiral_two_lines",
        "binary_tree_grid",
        "prism_stack_3d",
        "nested_squares_two_lines",
        "pach_multipartite",
    ),
    "certio": ("parse_certificate", "emit_certificate", "verify_certificate"),
    "cli": ("main",),
}

COUNTED = {
    "orient": "geometry.orient_calls",
    "point_strictly_inside_segment": "geometry.point_strictly_inside_segment_calls",
    "canon_line": "geometry.canon_line_calls",
    "canon_plane": "geometry.canon_plane_calls",
    "line_contains_point": "geometry.contains_calls",
    "plane_contains_point": "geometry.contains_calls",
}


def _value(qualname: str, args: tuple, out) -> float:
    if qualname == "drawing.verify_crossing_free":
        m = args[0].graph.m
        return m * (m - 1) // 2
    if qualname == "certio.parse_certificate":
        return len(args[0])
    if qualname == "certio.emit_certificate":
        return len(out)
    if qualname.startswith("solvers."):
        return float(bool(getattr(out, "exact", False)))
    if qualname == "drawing.exact_set_cover":
        return float(bool(out[1]))
    return 0.0


class Tracer:
    def __init__(self):
        self.names: list = []  # span name table, index = name id
        self.spans: list = []  # (name id, start, end, parent, job, value)
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    # -- patching ---------------------------------------------------------

    def _span_wrapper(self, fn, qualname: str):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[slot] = (name_id, start, perf_counter(), parent, self.job, 0.0)
                raise
            finally:
                stack.pop()
            spans[slot] = (name_id, start, perf_counter(), parent, self.job, _value(qualname, args, out))
            return out

        return traced

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced function wherever an affinecover module holds it."""
        wrappers = {}
        for mod_name, fns in SPANNED.items():
            mod = sys.modules[f"affinecover.{mod_name}"]
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._span_wrapper(fn, f"{mod_name}.{fn_name}"))
        geometry = sys.modules["affinecover.geometry"]
        for fn_name, key in COUNTED.items():
            fn = getattr(geometry, fn_name)
            wrappers[id(fn)] = (fn, self._count_wrapper(fn, key))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "affinecover" or mod_name.startswith("affinecover.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the span table and counts as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job", "value"],
                    "names": self.names,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
                separators=(",", ":"),
            )


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer totals divided by the number of traced passes.

    A function's time is the sum of its outermost spans (recursion is not
    counted twice).  Self time is a span's duration minus its children's.
    """
    spans = tracer.spans
    qual = [tracer.names[s[0]] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def is_(*names):
        return lambda q: q in names

    def has_ancestor(i: int, pred) -> bool:
        p = spans[i][3]
        while p >= 0:
            if pred(qual[p]):
                return True
            p = spans[p][3]
        return False

    def picked(pred, outermost=False) -> list:
        return [i for i, q in enumerate(qual) if pred(q) and not (outermost and has_ancestor(i, pred))]

    def duration(idx: list) -> float:
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def values(idx: list) -> float:
        return sum(spans[i][5] for i in idx)

    def self_time(pred) -> float:
        idx = picked(pred)
        return duration(idx) - sum(child_time[i] for i in idx)

    def ratio(hits: float, base: int) -> float:
        return hits / base if base else 0.0

    verify = picked(is_("drawing.verify_crossing_free"))
    solver_calls = picked(lambda q: q.startswith("solvers."))
    cover = picked(is_("drawing.exact_set_cover", "drawing.greedy_set_cover"), outermost=True)
    pi23 = is_("constructions.pi23_drawing")
    m = {
        "drawing.verify_crossing_free_s": duration(verify),
        "drawing.verify_crossing_free_calls": len(verify),
        "drawing.edge_pairs": values(verify),
        "drawing.verify_cover_witness_s": duration(picked(is_("drawing.verify_cover_witness"))),
        "certio.parse_s": duration(picked(is_("certio.parse_certificate"))),
        "certio.parse_kb": values(picked(is_("certio.parse_certificate"))) / 1024,
        "graphs.graph6_s": duration(picked(is_("graphs.parse_graph", "graphs.to_graph6"), outermost=True)),
        "certio.emit_s": duration(picked(is_("certio.emit_certificate"))),
        "certio.emit_kb": values(picked(is_("certio.emit_certificate"))) / 1024,
        "solvers.total_s": duration(picked(lambda q: q.startswith("solvers."), outermost=True)),
        "solvers.calls": len(solver_calls),
        "planar.planarity_test_calls": len(picked(is_("planar.planarity_test"))),
        "drawing.set_cover_s": duration(cover),
        "drawing.set_cover_calls": len(cover),
        "constructions.self_s": self_time(lambda q: q.startswith("constructions.")),
        "constructions.pi23_attempts": sum(has_ancestor(i, pi23) for i in verify),
        "bounds.bound_report_s": duration(picked(is_("bounds.bound_report"))),
        "bounds.self_s": self_time(is_("bounds.bound_report")),
    }
    for mod in ("solvers", "planar"):
        for fn in SPANNED[mod]:
            m[f"{mod}.{fn}_s"] = duration(picked(is_(f"{mod}.{fn}"), outermost=True))
    for key in set(COUNTED.values()):
        m[key] = tracer.counts[key]
    m = {k: v / passes for k, v in m.items()}
    m["solvers.exact_ratio"] = ratio(values(solver_calls), len(solver_calls))
    exact_covers = [i for i in cover if qual[i] == "drawing.exact_set_cover"]
    m["drawing.set_cover_exact_ratio"] = ratio(values(exact_covers), len(cover))
    return m
