"""Tests for drawings, the crossing-free verifier, and drawing measurements.

Derived oracles: set-cover minima are cross-checked by brute-force
subset enumeration; segment/slope counts by hand enumeration and by the
union-find they replaced (``reference.segment_count_oracle``); the sweep
verifier by the pairwise loop it replaced (``reference_verify``), which
meets edge pairs with the parametric ``reference.classify_oracle``
instead of the kernel under test, and the 3D edge-pair stage also by
the least pair of ``forbidden_contact`` over all pairs; the
integer-keyed measurements and witness check by the per-pair canonical
records and Fraction containment they replaced (``reference_*``), the
covers sorted and solved on those records by
``reference.record_min_cover``, also on rational affine images of the
drawings (scale > 1).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecover import drawing, geometry
from affinecover.constructions import kpq_plane_book, pach_multipartite, parallel_kpq_lines
from affinecover.drawing import (
    EDGE_KINDS,
    LINE_KINDS,
    WITNESS_KINDS,
    CoverWitness,
    Drawing,
    DrawingViolation,
    WitnessViolation,
    _require_verified,
    _sweep_clear,
    edge_line_count,
    exact_set_cover,
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
    canon_plane,
    canonical_plane_through_segment,
    collinear,
    forbidden_contact,
    integerize,
    is_canonical,
    line_contains_point,
    plane_contains_point,
    point_strictly_inside_segment,
    qpoint,
)
from affinecover.graphs import Graph, complete_graph, path_graph
from reference import classify_oracle, record_min_cover, segment_count_oracle, set_cover_oracle


def make(graph, pts, meta=None):
    return Drawing(graph, *integerize(qpoint(*p) for p in pts), dict(meta or {}))


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


def test_only_the_verifier_sets_the_flag():
    # K5 on five points in convex position is not crossing-free; a flag
    # set by the caller would let bound_report trust it unchecked
    d = make(complete_graph(5), [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)])
    with pytest.raises(TypeError):
        Drawing(d.graph, d.grid, d.scale, verified=True)
    with pytest.raises(ValueError):
        replace(d, verified=True)
    assert not replace(verify_crossing_free(k4_triangle_center_2d())).verified


def test_drawing_integerizes_once(monkeypatch):
    # the verifier, the measurements and the witness check read the
    # drawing's grid instead of integerizing its points again
    calls = []

    def counted(points):
        calls.append(points)
        return integerize(points)

    monkeypatch.setattr(geometry, "integerize", counted)
    monkeypatch.setattr(drawing, "integerize", counted, raising=False)
    pts = [(0, 0), (4, 0), (0, Fraction(7, 2)), (1, Fraction(1, 3))]
    d = Drawing(complete_graph(4), *geometry.integerize(pts))
    v = verify_crossing_free(d)
    edge_line_count(v)
    _, w = min_vertex_line_cover(v)
    verify_cover_witness(v, w)
    assert len(calls) == 1


_coords = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@given(
    st.sampled_from([2, 3]).flatmap(
        lambda dim: st.lists(st.tuples(*[_coords] * dim), min_size=1, max_size=8, unique=True)
    )
)
@settings(max_examples=150, deadline=None)
def test_drawing_grid_is_integerized_points(pts):
    grid, scale = integerize(pts)
    d = Drawing(Graph(len(pts), []), grid, scale)
    assert d.grid == tuple(grid) and d.scale == scale
    assert d.points == tuple(pts) and "points" not in repr(d)
    v = verify_crossing_free(d)
    assert v.grid is d.grid and v.scale == d.scale and v.points == d.points


def test_drawing_grid_is_reduced_and_checked():
    # one constructor: ints over a scale, divided by their common gcd
    d = Drawing(path_graph(2), ((6, 0, 4), (2, -8, 0)), 10)
    assert (d.grid, d.scale) == (((3, 0, 2), (1, -4, 0)), 5)
    assert d.points == ((Fraction(3, 5), 0, Fraction(2, 5)), (Fraction(1, 5), Fraction(-4, 5), 0))
    assert Drawing(path_graph(2), [[0, 0], [0, 7]], 7).grid == ((0, 0), (0, 1))
    for n, grid, scale, message in [
        (0, (), 1, "at least one vertex"),
        (2, ((0, 0),), 1, "2 vertices but 1 points"),
        (2, ((0, 0), (1, 0, 0)), 1, "share one dimension"),
        (2, ((0,), (1,)), 1, "2 or 3 coordinates"),
        (2, ((0, 0), (Fraction(1, 2), 0)), 1, "must be ints"),
        (2, ((0, 0), (True, 0)), 1, "must be ints"),
        (2, ((0, 0), (1, 0)), 0, "must be ints"),
        (2, ((0, 0), (1, 0)), Fraction(2), "must be ints"),
        (3, ((0, 0), (2, 0), (0, 0)), 4, r"vertices 0 and 2 share point \(Fraction\(0, 1\), Fraction\(0, 1\)\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            Drawing(Graph(n, []), grid, scale)


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
    for p in [(7, 8), (Fraction(1, 3), Fraction(2, 5), Fraction(-7, 2))]:
        d = verify_crossing_free(make(Graph(1, []), [p]))
        count, w = min_vertex_line_cover(d)
        assert count == 1
        assert w.objects == (canon_line(qpoint(*p), qpoint(p[0] + 1, *p[1:])),)
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


@pytest.mark.parametrize("m, exact", [(5, True), (62, False)])
def test_plane_cover_all_collinear_fallback(m, exact):
    # every vertex on the x-axis: no edge spans a plane with a third
    # vertex, so the one canonical plane through the first edge covers
    # all; past budget_m = 60 edges it comes from the greedy cover
    plane = CanonPlane((0, 0, 1), Fraction(0))
    d = verify_crossing_free(make(path_graph(m + 1), [(i, 0, 0) for i in range(m + 1)]))
    assert min_edge_plane_cover(d) == (1, CoverWitness("planes_for_edges", (plane,), dict.fromkeys(d.graph.edges, 0), exact))
    # the same at scale 6: the plane's offset is a fraction
    d = verify_crossing_free(make(path_graph(m + 1), [(Fraction(i, 3), 0, Fraction(5, 2)) for i in range(m + 1)]))
    plane = plane._replace(offset=Fraction(5, 2))
    assert min_edge_plane_cover(d) == (1, CoverWitness("planes_for_edges", (plane,), dict.fromkeys(d.graph.edges, 0), exact))


def test_plane_cover_matches_brute_force_small():
    # tetrahedron K4 in general position: every face needs its own plane
    pts = [(0, 0, 0), (4, 0, 0), (1, 3, 0), (1, 1, 5)]
    d = verify_crossing_free(make(complete_graph(4), pts))
    count, w = min_edge_plane_cover(d)
    # oracle: brute force over candidate planes built from all triples
    qpts = [qpoint(*p) for p in pts]
    planes = {}
    for a, b, c in itertools.combinations(range(4), 3):
        planes.setdefault(canon_plane(qpts[a], qpts[b], qpts[c]), set())
    edges = sorted(d.graph.edges)
    sets = []
    for pl in planes:
        sets.append({e for e in edges if all(plane_contains_point(pl, qpts[x]) for x in e)})
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
    assert kn_structural_checks(d, w) == ()


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
            rel = classify_oracle(ipts[e[0]], ipts[e[1]], ipts[f[0]], ipts[f[1]])
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
    found = outcome(reference_verify, d)
    assert outcome(verify_crossing_free, d) == found
    # A wrong "contact" verdict of the 2D sweep would not show in the
    # verifier's result, since the box sweep then runs and accepts.
    assert _sweep_clear(d.grid, sorted(d.graph.edges)) == (found is None or found[0] != "edge_edge")


@given(grid_drawings(3))
@settings(max_examples=250, deadline=None)
def test_sweep_matches_reference_3d(d):
    assert outcome(verify_crossing_free, d) == outcome(reference_verify, d)


def test_sweep_matches_reference_on_tampered_constructions():
    # Valid layouts with many edges, then one vertex moved onto the
    # midpoint of an edge: many offending pairs, and the sweep must name
    # the one the pairwise loop meets first.  The spiral and nested
    # squares put every edge on two crossing lines; the parallel-line
    # and multipartite layouts are where most 3D pairs are skew.
    import random

    from affinecover.constructions import (
        binary_tree_grid,
        kpq_plane_book,
        nested_squares_two_lines,
        pach_multipartite,
        parallel_kpq_lines,
        prism_stack_3d,
        spiral_two_lines,
    )
    from affinecover.graphs import complete_binary_tree
    from affinecover.planar import tree_tracks

    tree = complete_binary_tree(4)
    layouts = (
        binary_tree_grid(4),
        spiral_two_lines(tree, tree_tracks(tree, 0)),
        nested_squares_two_lines(4),
        kpq_plane_book(4, 5),
        parallel_kpq_lines(3, 5),
        pach_multipartite(3, 12),
        prism_stack_3d(5),
    )
    rng = random.Random(5)
    for res in layouts:
        d = res.drawing
        assert outcome(verify_crossing_free, d) is None is outcome(reference_verify, d)
        edges = sorted(d.graph.edges)
        assert d.dim == 3 or _sweep_clear(d.grid, edges)
        for _ in range(8):
            a, b = rng.choice(edges)
            v = rng.choice([w for w in range(d.graph.n) if w not in (a, b)])
            mid = tuple((x + y) / 2 for x, y in zip(d.points[a], d.points[b]))
            if mid in d.points:
                continue
            pts = list(d.points)
            pts[v] = mid
            moved = Drawing(d.graph, *integerize(pts))
            found = outcome(verify_crossing_free, moved)
            assert found is not None and found == outcome(reference_verify, moved)
            assert d.dim == 3 or _sweep_clear(moved.grid, edges) == (found[0] != "edge_edge")


def least_contact(d):
    """The least offending edge pair by ``forbidden_contact`` over all
    pairs in ``sorted(edges)`` order, as ("edge_edge", e, f); else None."""
    grid = d.grid
    for e, f in itertools.combinations(sorted(d.graph.edges), 2):
        if forbidden_contact(grid[e[0]], grid[e[1]], grid[f[0]], grid[f[1]]):
            return ("edge_edge", e, f)
    return None


def test_3d_stage_matches_all_pairs_and_reference():
    # Small random 3D drawings on [-R, R]^3, where shared endpoints on
    # one ray, coplanar and collinear pairs are common, some with an
    # isolated vertex at the midpoint of an edge; each also shifted past
    # 2**61 and scaled, a map that keeps every incidence and so the
    # outcome.
    rng = random.Random(26)
    counts = {"edge_edge": 0, "vertex_edge": 0, None: 0}
    steps = [p for p in itertools.product((-1, 0, 1), repeat=3) if any(p)]
    for _ in range(3000):
        r = rng.choice([1, 2, 3])
        n = rng.randint(3, 8)
        cube = list(itertools.product(range(-r, r + 1), repeat=3))
        pts = rng.sample(cube, n)
        if rng.random() < 0.5:  # up to four of them on one line
            base, step = rng.choice(cube), rng.choice(steps)
            line = [q for k in range(-2 * r, 2 * r + 1) if (q := tuple(b + k * x for b, x in zip(base, step))) in cube]
            pts = list(dict.fromkeys(rng.sample(line, min(4, len(line))) + pts))[:n]
            rng.shuffle(pts)
        density = rng.choice([0.2, 0.35, 0.5])
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        if edges and rng.random() < 0.3:
            a, b = rng.choice(edges)
            mid = tuple(Fraction(x + y, 2) for x, y in zip(pts[a], pts[b]))
            if mid not in pts:
                pts.append(mid)
        scale = rng.choice([3, 2**60 + 1])
        d = make(Graph(len(pts), edges), pts)
        found = outcome(reference_verify, d)
        assert found is None or found[0] == "vertex_edge" or found == least_contact(d)
        assert outcome(verify_crossing_free, d) == found
        assert outcome(verify_crossing_free, make(d.graph, [[c * scale + 2**61 for c in p] for p in pts])) == found
        counts[found and found[0]] += 1
    assert min(counts.values()) > 200


def test_3d_stage_matches_reference_on_tampered_book():
    # kpq_plane_book(5, 6): a vertex moved onto the midpoint of an edge
    # on its own page (the spine lies on every page; edge (a, b) with
    # a < 5 lies on page a // 2), or a new vertex on the ray of an
    # existing edge at one of its ends, joined to that end
    d = kpq_plane_book(5, 6).drawing
    pts, edges = list(d.points), sorted(d.graph.edges)
    moved = []
    for v in range(d.graph.n):
        for a, b in edges:
            mid = tuple((x + y) / 2 for x, y in zip(pts[a], pts[b]))
            if v not in (a, b) and (v >= 5 or v // 2 == a // 2) and mid not in pts:
                moved.append(Drawing(d.graph, *integerize(pts[:v] + [mid] + pts[v + 1 :])))
    rays = []
    for s, t in edges:
        for x, y in ((s, t), (t, s)):
            for k in (Fraction(1, 2), 2):
                far = tuple(c + k * (e - c) for c, e in zip(pts[x], pts[y]))
                if far not in pts:
                    rays.append(Drawing(Graph(d.graph.n + 1, edges + [(x, d.graph.n)]), *integerize(pts + [far])))
    rng = random.Random(6)
    for case in rng.sample(moved, 40) + rng.sample(rays, 40):
        found = outcome(verify_crossing_free, case)
        assert found is not None and found == outcome(reference_verify, case)


def test_coplanar_kernel_calls(monkeypatch):
    # The kernel sees only coplanar pairs with no shared endpoint: on the
    # K16,16 book, each of the 8 pages holds 16 * 15 pairs of edges from
    # its two off-spine vertices to distinct spine vertices; on the skew
    # layouts there are none.
    layouts = (
        (kpq_plane_book(16, 16).drawing, 1920),
        (pach_multipartite(5, 30).drawing, 0),
        (parallel_kpq_lines(12, 24).drawing, 0),
    )
    kernel = drawing.coplanar_segments_meet
    calls = []

    def spy(a, u, c, v):
        ends = {a, tuple(x + y for x, y in zip(a, u)), c, tuple(x + y for x, y in zip(c, v))}
        assert len(ends) == 4  # no shared endpoint
        calls.append(1)
        return kernel(a, u, c, v)

    monkeypatch.setattr(drawing, "coplanar_segments_meet", spy)
    for d, want in layouts:
        calls.clear()
        assert verify_crossing_free(d).verified
        assert len(calls) == want


@pytest.mark.parametrize(
    "build, args",
    ((parallel_kpq_lines, (12, 24)), (pach_multipartite, (5, 30)), (kpq_plane_book, (16, 16))),
    ids=("parallel_kpq_lines", "pach_multipartite", "kpq_plane_book"),
)
def test_3d_stage_matches_references_on_dense_layouts(build, args):
    # The dense layouts at the sizes `certify` verifies, where nearly
    # every pair of boxes overlaps, valid and with one vertex moved onto
    # the midpoint of an edge it is not an end of.
    d = build(*args).drawing
    edges = sorted(d.graph.edges)
    rng = random.Random(30)
    cases = [d]
    while len(cases) < 4:
        a, b = rng.choice(edges)
        v = rng.choice([w for w in range(d.graph.n) if w not in (a, b)])
        mid = tuple((x + y) / 2 for x, y in zip(d.points[a], d.points[b]))
        if mid not in d.points:
            cases.append(Drawing(d.graph, *integerize(d.points[:v] + (mid,) + d.points[v + 1 :])))
    for case in cases:
        found = outcome(reference_verify, case)
        assert (found is None) == (case is d)
        assert least_contact(case) == (found if found is None or found[0] == "edge_edge" else None)
        assert outcome(verify_crossing_free, case) == found


# ---------------------------------------------------------------------------
# integer-keyed measurements and witness check against the Fraction loops
# ---------------------------------------------------------------------------


def reference_edge_line_count(d):
    """edge_line_count with one canon_line record per edge."""
    _require_verified(d)
    lines = {}
    for e in sorted(d.graph.edges):
        lines.setdefault(canon_line(d.points[e[0]], d.points[e[1]]), []).append(e)
    objects = tuple(lines)
    assignment = {e: i for i, es in enumerate(lines.values()) for e in es}
    return len(objects), CoverWitness("lines_for_edges", objects, assignment)


def reference_min_vertex_line_cover(d, budget_n=40):
    """min_vertex_line_cover with one canon_line record per vertex pair."""
    _require_verified(d)
    n = d.graph.n
    members = {}
    for u, v in itertools.combinations(range(n), 2):
        members.setdefault(canon_line(d.points[u], d.points[v]), set()).update((u, v))
    return record_min_cover("lines_for_vertices", members, range(n), n <= budget_n)


def reference_min_edge_plane_cover(d, budget_m=60):
    """min_edge_plane_cover with one canon_plane record per edge-vertex
    triple and a containment test of every edge in every candidate."""
    _require_verified(d)
    edges = sorted(d.graph.edges)
    if not edges:
        return 0, CoverWitness("planes_for_edges", (), {})
    pts = d.points
    candidates = {}
    for u, v in edges:
        spanned = False
        for w in range(d.graph.n):
            if w not in (u, v) and not collinear(pts[u], pts[v], pts[w]):
                spanned = True
                candidates.setdefault(canon_plane(pts[u], pts[v], pts[w]), set())
        if not spanned:
            candidates.setdefault(canonical_plane_through_segment(pts[u], pts[v]), set())
    for plane, covered in candidates.items():
        covered.update(e for e in edges if all(plane_contains_point(plane, pts[x]) for x in e))
    return record_min_cover("planes_for_edges", candidates, edges, len(edges) <= budget_m)


def reference_verify_cover_witness(d, w):
    """verify_cover_witness with its Fraction containment loop: each item's
    points are tested against the object's record one by one."""
    _require_verified(d)
    if w.kind not in WITNESS_KINDS:
        raise WitnessViolation(f"unknown witness kind {w.kind!r}")
    want_line = w.kind in LINE_KINDS
    for obj in w.objects:
        if want_line and not isinstance(obj, CanonLine):
            raise WitnessViolation("line witness holds a non-line object")
        if not want_line and not isinstance(obj, CanonPlane):
            raise WitnessViolation("plane witness holds a non-plane object")
        if want_line and obj.dim != d.dim:
            raise WitnessViolation("line dimension does not match drawing")
        if not is_canonical(obj):
            raise WitnessViolation(f"witness object {obj} is not in canonical form")
    if not want_line and d.dim != 3:
        raise WitnessViolation("plane witness on a 2D drawing")
    items = set(d.graph.edges) if w.kind in EDGE_KINDS else set(range(d.graph.n))
    if set(w.assignment.keys()) != items:
        raise WitnessViolation("assignment does not cover every item exactly")
    for item, idx in w.assignment.items():
        if not 0 <= idx < len(w.objects):
            raise WitnessViolation(f"object index {idx} out of range")
        obj = w.objects[idx]
        for v in item if w.kind in EDGE_KINDS else (item,):
            p = d.points[v]
            ok = line_contains_point(obj, p) if want_line else plane_contains_point(obj, p)
            if not ok:
                raise WitnessViolation(f"item {item} not contained in object {idx}")
    if w.kind == "parallel_lines" and len({obj.direction for obj in w.objects}) > 1:
        raise WitnessViolation("parallel witness uses non-parallel lines")


def witness_outcome(check, d, w):
    """None when ``check`` accepts the witness, else its message."""
    try:
        check(d, w)
    except WitnessViolation as exc:
        return str(exc)
    return None


def crossing_free(d):
    """``d`` with offending edges dropped until the verifier accepts it."""
    while True:
        try:
            return verify_crossing_free(d)
        except DrawingViolation as exc:
            drop = exc.violation[-1]
            d = Drawing(Graph(d.graph.n, [e for e in d.graph.edges if e != drop]), d.grid, d.scale)


def measured_witnesses(d):
    out = [edge_line_count(d)[1], min_vertex_line_cover(d)[1]]
    if d.dim == 3:
        out.append(min_edge_plane_cover(d)[1])
    return out


@given(grid_drawings(2))
@settings(max_examples=200, deadline=None)
def test_segment_count_matches_union_find(d):
    d = crossing_free(d)
    _, witness = reference_edge_line_count(d)
    groups = [[] for _ in witness.objects]
    for e, i in witness.assignment.items():
        groups[i].append(e)
    slopes = {line.direction for line in witness.objects}
    assert segment_slope_count(d) == (segment_count_oracle(groups), len(slopes))


def rational_image(d, rng):
    """``d`` under a random invertible affine map p -> (M p + t) / den,
    M upper triangular with a nonzero diagonal, then sheared: the map
    keeps every incidence and crossing, and the image's coordinates have
    denominators (scale > 1)."""
    dim, den = d.dim, rng.choice((2, 6, 35))
    m = [[rng.choice((-3, -1, 1, 2)) if i == j else rng.randint(-3, 3) * (j > i) for j in range(dim)] for i in range(dim)]
    k = rng.randint(-2, 2)
    m[-1] = [x + k * y for x, y in zip(m[-1], m[0])]
    t = [rng.randint(-5, 5) for _ in range(dim)]
    pts = [tuple(Fraction(sum(a * c for a, c in zip(row, p)) + s, den) for row, s in zip(m, t)) for p in d.points]
    if all(c.denominator == 1 for p in pts for c in p):
        pts = [(p[0] + Fraction(1, den), *p[1:]) for p in pts]
    return verify_crossing_free(Drawing(d.graph, *integerize(pts)))


@given(st.sampled_from([2, 3]).flatmap(grid_drawings), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_measurements_match_fraction_reference(d, rng):
    d = crossing_free(d)
    image = rational_image(d, rng)
    assert image.scale > 1
    for d in (d, image):
        assert repr(edge_line_count(d)) == repr(reference_edge_line_count(d))
        for budget in (40, 0) if d.graph.n > 1 else ():
            assert repr(min_vertex_line_cover(d, budget)) == repr(reference_min_vertex_line_cover(d, budget))
        if d.dim == 3:
            for budget in (60, 0):
                assert repr(min_edge_plane_cover(d, budget)) == repr(reference_min_edge_plane_cover(d, budget))


def _shifted(obj, delta):
    """The object moved off itself by ``delta`` and still canonical: a
    line's base moves on the axis after its pivot, a plane's offset moves."""
    if isinstance(obj, CanonPlane):
        return obj._replace(offset=obj.offset + delta)
    axis = (next(i for i, x in enumerate(obj.direction) if x) + 1) % obj.dim
    base = list(obj.base)
    base[axis] += delta
    return obj._replace(base=tuple(base))


@st.composite
def tampered_witnesses(draw):
    d = crossing_free(draw(st.sampled_from([2, 3]).flatmap(grid_drawings)))
    w = draw(st.sampled_from(measured_witnesses(d)))
    rng = draw(st.randoms(use_true_random=False))
    _, scale = integerize(d.points)
    objects, assignment = list(w.objects), dict(w.assignment)
    for _ in range(draw(st.integers(0, 3))):
        how = rng.choice(("reassign", "shift", "off-grid", "parallel"))
        if how == "reassign" and assignment:
            item = rng.choice(sorted(assignment, key=repr))
            assignment[item] = rng.randrange(-1, len(objects) + 1)
        elif how in ("shift", "off-grid") and objects:
            i = rng.randrange(len(objects))
            # a whole step at the drawing's scale keeps the scaled base
            # or offset an integer; a fraction of it does not
            step = Fraction(rng.choice((1, -2, 3)), scale)
            objects[i] = _shifted(objects[i], step if how == "shift" else step / rng.choice((2, 7)))
        elif how == "parallel" and w.kind == "lines_for_vertices":
            w = replace(w, kind="parallel_lines")
    return d, CoverWitness(w.kind, tuple(objects), assignment, w.exact)


@given(tampered_witnesses())
@settings(max_examples=400, deadline=None)
def test_verify_cover_witness_matches_fraction_reference(case):
    d, w = case
    assert witness_outcome(verify_cover_witness, d, w) == witness_outcome(reference_verify_cover_witness, d, w)


def test_verify_cover_witness_matches_reference_on_constructions():
    from affinecover.constructions import kn_small_plane_cover, kpq_plane_book, pi13_drawing

    results = [kn_small_plane_cover(n) for n in (5, 8)]
    results += [kpq_plane_book(4, 5), pi13_drawing(complete_graph(7))]
    for res in results:
        d, w = res.drawing, res.witness
        assert witness_outcome(verify_cover_witness, d, w) is None
        assert witness_outcome(reference_verify_cover_witness, d, w) is None
        _, scale = integerize(d.points)
        for i in range(len(w.objects)):
            for delta in (Fraction(1, scale), Fraction(1, 2 * scale)):
                objects = list(w.objects)
                objects[i] = _shifted(objects[i], delta)
                bad = replace(w, objects=tuple(objects))
                found = witness_outcome(verify_cover_witness, d, bad)
                assert found is not None and found == witness_outcome(reference_verify_cover_witness, d, bad)


# ---------------------------------------------------------------------------
# exact set cover
# ---------------------------------------------------------------------------


def brute_force_cover(masks, full):
    """Size of the smallest cover of ``full`` by ``masks``."""
    bits = lambda mask: {e for e in range(mask.bit_length()) if mask >> e & 1}  # noqa: E731
    return brute_min_cover(bits(full), [bits(mk & full) for mk in masks])


@st.composite
def set_systems(draw):
    """At most 14 sets over at most 16 elements, some repeated, with a
    universe that may leave out elements the sets hold."""
    u = draw(st.integers(1, 16))
    subsets = st.sets(st.integers(0, u - 1), max_size=draw(st.integers(1, u)))
    base = [sum(1 << e for e in es) for es in draw(st.lists(subsets, min_size=1, max_size=10))]
    masks = draw(st.permutations(base + draw(st.lists(st.sampled_from(base), max_size=4))))
    union = 0
    for mk in masks:
        union |= mk
    if draw(st.booleans()):
        union &= draw(st.integers(0, (1 << u) - 1))
    return masks, union


@given(set_systems())
@settings(max_examples=300, deadline=None)
def test_exact_set_cover_matches_oracle(system):
    masks, full = system
    chosen, exact, lower = exact_set_cover(masks, full)
    assert (chosen, exact) == set_cover_oracle(masks, full)
    assert exact and lower == len(chosen) == brute_force_cover(masks, full)


def seeded_set_systems(seed, count):
    """``count`` systems of 1..14 sets over 1..16 elements, sets of
    random sizes; the universe is the union of the sets."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        u = rng.randint(1, 16)
        masks = [
            sum(1 << e for e in rng.sample(range(u), rng.randint(0, rng.randint(1, u))))
            for _ in range(rng.randint(1, 14))
        ]
        full = 0
        for mk in masks:
            full |= mk
        systems.append((masks, full))
    return systems


def test_exact_set_cover_matches_oracle_on_seeded_systems():
    # most systems have one minimum cover the search order cannot change:
    # reversing the branch order changes the answer on about 1 in 200
    for masks, full in seeded_set_systems(3, 3000):
        assert exact_set_cover(masks, full)[:2] == tuple(set_cover_oracle(masks, full))


def test_exact_set_cover_cap_returns_greedy_and_proven_bound(monkeypatch):
    systems = seeded_set_systems(5, 200)
    capped = 0
    for cap in (0, 1, 5, 40):
        monkeypatch.setattr(drawing, "SET_COVER_NODE_CAP", cap)
        for masks, full in systems:
            chosen, exact, lower = exact_set_cover(masks, full)
            assert lower <= brute_force_cover(masks, full) <= len(chosen)
            if not exact:
                capped += 1
                assert chosen == set_cover_oracle(masks, full, node_cap=0)[0]
    assert capped > 0
