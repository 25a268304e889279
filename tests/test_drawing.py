"""Tests for drawings, the crossing-free verifier, and drawing measurements.

Derived oracles: set-cover minima are cross-checked by brute-force
subset enumeration; segment/slope counts by hand enumeration; the sweep
verifier by the pairwise loop it replaced (``reference_verify``).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecover.drawing import (
    CoverWitness,
    Drawing,
    DrawingViolation,
    WitnessViolation,
    edge_line_count,
    ess_record,
    kn_structural_checks,
    min_edge_plane_cover,
    min_vertex_line_cover,
    segment_slope_count,
    verify_cover_witness,
    verify_crossing_free,
)
from affinecover.geometry import (
    CanonLine,
    CanonPlane,
    canon_line,
    integerize,
    point_strictly_inside_segment,
    qpoint,
    segments_intersect,
)
from affinecover.graphs import Graph, complete_graph, path_graph


def make(graph, pts, meta=None):
    return Drawing(graph, tuple(qpoint(*p) for p in pts), dict(meta or {}))


def k4_triangle_center_2d():
    return make(complete_graph(4), [(0, 0), (4, 0), (2, 3), (2, 1)], {"label": "k4tc"})


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------


def test_verify_k4_triangle_center():
    d = verify_crossing_free(k4_triangle_center_2d())
    assert d.verified


def test_verify_rejects_convex_k4():
    d = make(complete_graph(4), [(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(DrawingViolation) as ei:
        verify_crossing_free(d)
    kind, a, b = ei.value.violation
    assert kind == "edge_edge"
    assert {a, b} == {(0, 2), (1, 3)}  # the two diagonals


def test_verify_rejects_vertex_interior_to_edge():
    d = make(Graph(3, [(0, 1)]), [(0, 0), (2, 0), (1, 0)])
    with pytest.raises(DrawingViolation) as ei:
        verify_crossing_free(d)
    kind, v, e = ei.value.violation
    assert kind == "vertex_edge" and v == 2 and e == (0, 1)


def test_verify_rejects_collinear_overlapping_path():
    # P3 bent back onto itself: edges (0,1) and (1,2) overlap
    d = make(path_graph(3), [(0, 0), (2, 0), (1, 0)])
    with pytest.raises(DrawingViolation) as ei:
        verify_crossing_free(d)
    kind, a, b = ei.value.violation
    assert kind == "edge_edge" and a == (0, 1) and b == (1, 2)


def test_verify_rejects_duplicate_points():
    with pytest.raises(ValueError):
        make(path_graph(2), [(0, 0), (0, 0)])


def test_verify_3d_and_flag_untouched_on_original():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    d = make(complete_graph(4), pts)
    out = verify_crossing_free(d)
    assert out.verified and not d.verified


def test_measurements_require_verified():
    d = k4_triangle_center_2d()
    with pytest.raises(ValueError):
        edge_line_count(d)


# ---------------------------------------------------------------------------
# edge_line_count
# ---------------------------------------------------------------------------


def test_edge_line_count_path_on_axis():
    d = verify_crossing_free(make(path_graph(5), [(i, 0) for i in range(5)]))
    count, w = edge_line_count(d)
    assert count == 1
    assert w.kind == "lines_for_edges"
    verify_cover_witness(d, w)


def test_edge_line_count_k4():
    d = verify_crossing_free(k4_triangle_center_2d())
    count, w = edge_line_count(d)
    assert count == 6
    verify_cover_witness(d, w)


def test_edge_line_count_collinear_matching():
    # 3 disjoint edges with gaps on the x-axis
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    d = verify_crossing_free(make(g, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]))
    count, w = edge_line_count(d)
    assert count == 1


# ---------------------------------------------------------------------------
# min_vertex_line_cover
# ---------------------------------------------------------------------------


def brute_min_cover(universe, sets):
    """Smallest subcover by exhaustive subset enumeration."""
    for size in range(0, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            cov = set()
            for i in combo:
                cov |= sets[i]
            if cov == set(universe):
                return size
    raise AssertionError("no cover")


def test_vertex_cover_collinear_points():
    g = Graph(5, [])
    d = verify_crossing_free(make(g, [(i, i) for i in range(5)]))
    count, w = min_vertex_line_cover(d)
    assert count == 1 and w.kind == "lines_for_vertices"
    verify_cover_witness(d, w)


def test_vertex_cover_moment_curve_k6():
    pts = [(t, t * t, t * t * t) for t in range(1, 7)]
    d = verify_crossing_free(make(complete_graph(6), pts))
    count, w = min_vertex_line_cover(d)
    assert count == 3
    verify_cover_witness(d, w)
    # brute-force oracle over all pair-lines
    lines = {}
    qpts = [qpoint(*p) for p in pts]
    for i, j in itertools.combinations(range(6), 2):
        lines.setdefault(canon_line(qpts[i], qpts[j]), set()).update((i, j))
    assert brute_min_cover(range(6), list(lines.values())) == 3


def test_vertex_cover_general_position_four_points():
    g = Graph(4, [])
    d = verify_crossing_free(make(g, [(0, 0), (1, 0), (0, 1), (2, 3)]))
    count, _ = min_vertex_line_cover(d)
    assert count == 2


def test_vertex_cover_single_point():
    d = verify_crossing_free(make(Graph(1, []), [(7, 8)]))
    count, w = min_vertex_line_cover(d)
    assert count == 1
    verify_cover_witness(d, w)


# ---------------------------------------------------------------------------
# min_edge_plane_cover
# ---------------------------------------------------------------------------


def test_plane_cover_flat_drawing():
    pts = [(0, 0, 0), (4, 0, 0), (2, 3, 0), (2, 1, 0)]
    d = verify_crossing_free(make(complete_graph(4), pts))
    count, w = min_edge_plane_cover(d)
    assert count == 1 and w.kind == "planes_for_edges"
    verify_cover_witness(d, w)


def test_plane_cover_folded_two_triangles():
    # K4 minus one edge, folded: needs exactly 2 planes
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    pts = [(0, 0, 0), (2, 0, 0), (1, 1, 0), (1, -1, 1)]
    d = verify_crossing_free(make(g, pts))
    count, w = min_edge_plane_cover(d)
    assert count == 2
    verify_cover_witness(d, w)


def test_plane_cover_collinear_matching_3d():
    g = Graph(4, [(0, 1), (2, 3)])
    d = verify_crossing_free(make(g, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]))
    count, w = min_edge_plane_cover(d)
    assert count == 1
    verify_cover_witness(d, w)


def test_plane_cover_matches_brute_force_small():
    # tetrahedron K4 in general position: every face needs its own plane
    pts = [(0, 0, 0), (4, 0, 0), (1, 3, 0), (1, 1, 5)]
    d = verify_crossing_free(make(complete_graph(4), pts))
    count, w = min_edge_plane_cover(d)
    # oracle: brute force over candidate planes built from all triples
    from affinecover.geometry import canon_plane, plane_contains_segment

    qpts = [qpoint(*p) for p in pts]
    planes = {}
    for a, b, c in itertools.combinations(range(4), 3):
        planes.setdefault(canon_plane(qpts[a], qpts[b], qpts[c]), set())
    edges = sorted(d.graph.edges)
    sets = []
    for pl in planes:
        sets.append({e for e in edges if plane_contains_segment(pl, qpts[e[0]], qpts[e[1]])})
    assert count == brute_min_cover(edges, sets)


# ---------------------------------------------------------------------------
# segments and slopes
# ---------------------------------------------------------------------------


def test_segments_slopes_path():
    d = verify_crossing_free(make(path_graph(5), [(i, 0) for i in range(5)]))
    assert segment_slope_count(d) == (1, 1)


def test_segments_slopes_collinear_matching():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    d = verify_crossing_free(make(g, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]))
    assert segment_slope_count(d) == (3, 1)


def test_segments_slopes_k4():
    d = verify_crossing_free(k4_triangle_center_2d())
    segments, slopes = segment_slope_count(d)
    assert segments == 6 and slopes == 6


def test_segments_slopes_bent_path():
    # P3 bent at a right angle: 2 segments, 2 slopes
    d = verify_crossing_free(make(path_graph(3), [(0, 0), (1, 0), (1, 1)]))
    assert segment_slope_count(d) == (2, 2)


def test_chain_slopes_lines_segments():
    for d in (
        verify_crossing_free(k4_triangle_center_2d()),
        verify_crossing_free(make(path_graph(4), [(0, 0), (1, 0), (2, 1), (3, 1)])),
    ):
        segments, slopes = segment_slope_count(d)
        lines, _ = edge_line_count(d)
        assert slopes <= lines <= segments


# ---------------------------------------------------------------------------
# kn structural checks
# ---------------------------------------------------------------------------


def test_kn_checks_flat_k4():
    pts = [(0, 0, 0), (4, 0, 0), (2, 3, 0), (2, 1, 0)]
    d = verify_crossing_free(make(complete_graph(4), pts))
    _, w = min_edge_plane_cover(d)
    report = kn_structural_checks(d, w)
    assert report.ok and report.violations == ()


def test_kn_checks_requires_complete_graph():
    d = verify_crossing_free(make(path_graph(3), [(0, 0, 0), (1, 0, 0), (1, 1, 0)]))
    _, w = min_edge_plane_cover(d)
    with pytest.raises(ValueError):
        kn_structural_checks(d, w)


# ---------------------------------------------------------------------------
# witness validation and audit registry
# ---------------------------------------------------------------------------


def test_witness_rejects_wrong_assignment():
    d = verify_crossing_free(make(path_graph(3), [(0, 0), (1, 0), (1, 1)]))
    count, w = edge_line_count(d)
    assert count == 2
    # tamper: assign edge (1,2) to the line of edge (0,1)
    bad = CoverWitness(w.kind, w.objects, {**w.assignment, (1, 2): w.assignment[(0, 1)]})
    with pytest.raises(WitnessViolation):
        verify_cover_witness(d, bad)


def test_witness_rejects_missing_item():
    d = verify_crossing_free(make(path_graph(3), [(0, 0), (1, 0), (1, 1)]))
    _, w = edge_line_count(d)
    missing = dict(w.assignment)
    missing.pop((0, 1))
    with pytest.raises(WitnessViolation):
        verify_cover_witness(d, CoverWitness(w.kind, w.objects, missing))


def test_witness_parallel_requires_same_direction():
    g = Graph(4, [(0, 2), (0, 3), (1, 3)])
    pts = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]
    d = verify_crossing_free(make(g, pts))
    l0 = canon_line(qpoint(0, 0, 0), qpoint(0, 0, 1))
    l1 = canon_line(qpoint(1, 0, 0), qpoint(1, 0, 1))
    w = CoverWitness("parallel_lines", (l0, l1), {0: 0, 1: 0, 2: 1, 3: 1})
    verify_cover_witness(d, w)  # same direction (0,0,1): fine
    lx = canon_line(qpoint(0, 0, 0), qpoint(1, 0, 0))
    bad = CoverWitness("parallel_lines", (l0, lx), {0: 0, 1: 0, 2: 1, 3: 1})
    with pytest.raises(WitnessViolation):
        verify_cover_witness(d, bad)


def test_ess_audit_records_3d_drawings():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    d = verify_crossing_free(make(complete_graph(4), pts, {"label": "k4-3d"}))
    rec = ess_record(d)
    assert rec.label == "k4-3d" and rec.n == 4 and rec.m == 6 and rec.es == 4
    assert rec.ok  # both checks hold: 2*4 <= 6*5 and 4*36 > 6*2
    assert rec.line_count == 6
    with pytest.raises(ValueError):
        ess_record(make(complete_graph(4), pts))  # not verified


# ---------------------------------------------------------------------------
# canonical witness objects
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "obj",
    [
        CanonLine(3, (0, 0, 0), (Fraction(0),) * 3),  # zero direction
        CanonLine(3, (0, 0, 2), (Fraction(0),) * 3),  # not primitive
        CanonLine(3, (0, 0, -1), (Fraction(0),) * 3),  # leading component negative
        CanonLine(3, (0, 0, 1), (Fraction(0), Fraction(0), Fraction(1))),  # base off pivot 0
        CanonPlane((0, 0, 0), Fraction(0)),  # zero normal
        CanonPlane((0, 2, 4), Fraction(0)),  # not primitive
        CanonPlane((-1, 0, 0), Fraction(0)),  # leading component negative
    ],
)
def test_witness_rejects_non_canonical_objects(obj):
    pts = [(0, 0, 0), (0, 0, 1), (1, 0, 0)]
    d = verify_crossing_free(make(Graph(3, [(0, 1)]), pts))
    if isinstance(obj, CanonLine):
        w = CoverWitness("lines_for_vertices", (obj,), {v: 0 for v in range(3)})
    else:
        w = CoverWitness("planes_for_edges", (obj,), {(0, 1): 0})
    with pytest.raises(WitnessViolation, match="canonical"):
        verify_cover_witness(d, w)


def test_attached_forged_witness_rejected():
    from affinecover.bounds import bound_report
    from affinecover.constructions import pi13_drawing

    res = pi13_drawing(complete_graph(6))
    forged = CanonLine(3, (0, 0, 0), (Fraction(0),) * 3)
    w = CoverWitness("lines_for_vertices", (forged,), {v: 0 for v in range(6)})
    with pytest.raises(WitnessViolation):
        bound_report(res.drawing.graph, constructions=[replace(res, witness=w)])


# ---------------------------------------------------------------------------
# sweep verifier against the pairwise reference
# ---------------------------------------------------------------------------


def reference_verify(d):
    """The pairwise loop the sweep replaced: every edge pair in sorted
    order, then every vertex against every edge; raises on the first
    offending pair."""
    ipts, _ = integerize(d.points)
    dim = d.dim
    edges = sorted(d.graph.edges)
    boxes = []
    for u, v in edges:
        p, q = ipts[u], ipts[v]
        boxes.append(tuple((min(a, b), max(a, b)) for a, b in zip(p, q)))
    for i in range(len(edges)):
        e = edges[i]
        be = boxes[i]
        for j in range(i + 1, len(edges)):
            f = edges[j]
            shared = len(set(e) & set(f))
            if shared == 0:
                bf = boxes[j]
                if any(be[k][1] < bf[k][0] or bf[k][1] < be[k][0] for k in range(dim)):
                    continue
            rel = segments_intersect(ipts[e[0]], ipts[e[1]], ipts[f[0]], ipts[f[1]])
            expected = "shared_endpoint_only" if shared else "disjoint"
            if rel != expected:
                raise DrawingViolation(("edge_edge", e, f))
    for v in range(d.graph.n):
        p = ipts[v]
        for i, e in enumerate(edges):
            if v in e:
                continue
            be = boxes[i]
            if any(p[k] < be[k][0] or p[k] > be[k][1] for k in range(dim)):
                continue
            if point_strictly_inside_segment(p, ipts[e[0]], ipts[e[1]]):
                raise DrawingViolation(("vertex_edge", v, e))


def outcome(verify, d):
    """None when ``verify`` accepts ``d``, else the violation it reports."""
    try:
        verify(d)
    except DrawingViolation as exc:
        return exc.violation
    return None


@st.composite
def grid_drawings(draw, dim):
    """Small drawings on a coarse grid, so that collinear overlaps,
    axis-parallel (vertical) edges, vertices inside edges, shared
    endpoints and coplanar 3D pairs are common; then moved by one
    affine map that keeps every incidence (a shift past 2**61, a large
    scale, a denominator), so huge and rational coordinates are covered
    too."""
    span = draw(st.sampled_from([1, 2, 4]))
    axes = [range(span + 1)] * 2
    if dim == 3:
        # 3D points often lie on one or two planes z = const
        axes.append(range(draw(st.sampled_from([0, 1, span])) + 1))
    grid = list(itertools.product(*axes))
    n = draw(st.integers(1, min(9, len(grid))))
    pts = draw(st.permutations(grid))[:n]
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.1, 0.2, 0.4]))
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    for _ in range(draw(st.integers(0, 3)) if edges else 0):
        # isolated vertices at midpoints of edges
        a, b = rng.choice(edges)
        mid = tuple(Fraction(x + y, 2) for x, y in zip(pts[a], pts[b]))
        if mid not in pts:
            pts.append(mid)
    shift = draw(st.sampled_from([0, 2**61 + 3, -(2**62)]))
    scale = draw(st.sampled_from([1, 3, 2**60 + 1]))
    den = draw(st.sampled_from([1, 7]))
    pts = [tuple((c * scale + shift) / Fraction(den) for c in p) for p in pts]
    return make(Graph(len(pts), edges), pts)


@given(grid_drawings(2))
@settings(max_examples=250, deadline=None)
def test_sweep_matches_reference_2d(d):
    assert outcome(verify_crossing_free, d) == outcome(reference_verify, d)


@given(grid_drawings(3))
@settings(max_examples=250, deadline=None)
def test_sweep_matches_reference_3d(d):
    assert outcome(verify_crossing_free, d) == outcome(reference_verify, d)


def test_sweep_matches_reference_on_tampered_constructions():
    # Valid layouts with many edges, then one vertex moved onto the
    # midpoint of an edge: many offending pairs, and the sweep must name
    # the one the pairwise loop meets first.
    import random

    from affinecover.constructions import binary_tree_grid, kpq_plane_book, prism_stack_3d

    rng = random.Random(5)
    for res in (binary_tree_grid(4), kpq_plane_book(4, 5), prism_stack_3d(5)):
        d = res.drawing
        assert outcome(verify_crossing_free, d) is None is outcome(reference_verify, d)
        edges = sorted(d.graph.edges)
        for _ in range(8):
            a, b = rng.choice(edges)
            v = rng.choice([w for w in range(d.graph.n) if w not in (a, b)])
            mid = tuple((x + y) / 2 for x, y in zip(d.points[a], d.points[b]))
            if mid in d.points:
                continue
            pts = list(d.points)
            pts[v] = mid
            moved = Drawing(d.graph, tuple(pts))
            found = outcome(verify_crossing_free, moved)
            assert found is not None and found == outcome(reference_verify, moved)
