"""Tests for the certified drawing constructions.

Expected values are frozen up front: tiny cases are worked out by hand
(point formulas, line counts, box sizes) and every emitted drawing must
re-pass the exact verifier, which acts as the independent oracle for
the geometric claims.
"""
from __future__ import annotations

import hashlib
import math
import re
from fractions import Fraction

import pytest

from affinecover.certio import certificate_from_result, emit_certificate
from affinecover.constructions import (
    DRAW_TARGETS,
    PRISM_LINE_CONSTANT,
    ConstructionError,
    ConstructionResult,
    binary_tree_grid,
    draw_target,
    k2q_optimal,
    kn_small_plane_cover,
    kpq_plane_book,
    moment_curve_kn,
    nested_squares_two_lines,
    pach_multipartite,
    parallel_kpq_lines,
    pi13_drawing,
    pi23_drawing,
    prism_stack_3d,
    spiral_two_lines,
    tree_grid_size,
)
from affinecover.drawing import (
    edge_line_count,
    kn_structural_checks,
    min_edge_plane_cover,
    min_vertex_line_cover,
    verify_cover_witness,
)
from affinecover.geometry import canon_line, line_contains_point, orient, qpoint
from affinecover.graphs import (
    FamilySpec,
    Graph,
    balanced_multipartite,
    complete_bipartite,
    complete_binary_tree,
    complete_graph,
    cycle_graph,
    nested_squares,
    nested_triangles,
    path_graph,
    triangulated_square_wheel,
)
from affinecover.planar import grid_drawing, tree_tracks
from affinecover.solvers import lva_exact


def check_result(res: ConstructionResult) -> None:
    """The contract every construction must satisfy."""
    assert res.drawing.verified
    verify_cover_witness(res.drawing, res.witness)
    assert res.witness.count <= res.claimed_bound
    assert len(res.box) == res.drawing.dim
    assert all(isinstance(b, int) and b >= 0 for b in res.box)
    assert isinstance(res.drawing.meta.get("construction"), str)


# ---------------------------------------------------------------------------
# multipartite host drawing
# ---------------------------------------------------------------------------


def test_multipartite_host_two_class_points_exact():
    res = pach_multipartite(2, 4)
    check_result(res)
    # p = 3 (smallest prime >= 3), N = 6; class 0 uses t = 0, 3 and
    # class 1 uses t = 1, 4, giving these exact coordinates.
    assert set(res.drawing.points) == {
        qpoint(0, 0, 0),
        qpoint(0, 3, 0),
        qpoint(1, 1, 1),
        qpoint(1, 4, 4),
    }
    assert res.witness.kind == "lines_for_vertices"
    assert res.witness.count == 2
    assert res.claimed_bound == 2
    assert res.drawing.graph == balanced_multipartite(2, 4)


def test_multipartite_host_one_vertex_per_class():
    res = pach_multipartite(3, 3)
    check_result(res)
    # p = 5; classes use t = 0, 1, 4 respectively.
    assert set(res.drawing.points) == {
        qpoint(0, 0, 0),
        qpoint(1, 1, 1),
        qpoint(2, 4, 8),
    }
    assert res.witness.count == 3


def test_multipartite_host_certificate_pinned():
    data = emit_certificate(certificate_from_result(pach_multipartite(3, 9), "pach_multipartite"))
    data = re.sub(rb'"tool":"[^"]*"', b'"tool":""', data)
    assert hashlib.sha256(data).hexdigest() == (
        "95174e2abf6722ac3d5702c43df2b4380ebc153dc72633088a4a1ff3f859b50e"
    )


def test_multipartite_host_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pach_multipartite(2, 3)
    with pytest.raises(ValueError):
        pach_multipartite(1, 4)
    with pytest.raises(ValueError):
        pach_multipartite(3, 0)


def test_multipartite_host_sweep_verifies_and_fits_box():
    # The full desk-scale re-proof of the host lemma: every class count
    # up to 4 and every divisible vertex count up to 24 must verify.
    for r in (2, 3, 4):
        for n in range(r, 25, r):
            res = pach_multipartite(r, n)
            assert res.drawing.verified, (r, n)
            assert res.witness.count == r
            bx, by, bz = res.box
            assert bx <= r and by <= 4 * n and bz <= 4 * r * n, (r, n, res.box)


# ---------------------------------------------------------------------------
# vertex line drawings (3D, minimum classes of linear forests)
# ---------------------------------------------------------------------------


def test_vertex_line_drawing_cycle_two_lines():
    g = cycle_graph(5)
    res = pi13_drawing(g)
    check_result(res)
    assert res.witness.count == 2 == lva_exact(g).value
    assert res.claimed_bound == 2


def test_vertex_line_drawing_path_single_line():
    res = pi13_drawing(path_graph(6))
    check_result(res)
    assert res.witness.count == 1
    line = res.witness.objects[0]
    assert all(line_contains_point(line, p) for p in res.drawing.points)
    assert "prime" not in res.drawing.meta


def test_vertex_line_drawing_triangulation_three_lines():
    g = triangulated_square_wheel()
    res = pi13_drawing(g)
    check_result(res)
    assert res.witness.count == 3


def test_vertex_line_drawing_box_budget():
    for g in (
        cycle_graph(5),
        path_graph(6),
        complete_graph(4),
        complete_graph(6),
        triangulated_square_wheel(),
    ):
        res = pi13_drawing(g)
        check_result(res)
        r = res.witness.count
        n = g.n
        bx, by, bz = res.box
        assert bx <= r and by <= 4 * r * n and bz <= 4 * r * r * n
        assert res.drawing.meta["exact"] is True


def test_vertex_line_drawing_single_vertex():
    res = pi13_drawing(complete_graph(1))
    check_result(res)
    assert res.witness.count == 1


# ---------------------------------------------------------------------------
# vertex plane drawings (stacked planar layers)
# ---------------------------------------------------------------------------


def test_vertex_plane_drawing_planar_graph_is_flat_grid():
    g = triangulated_square_wheel()
    res = pi23_drawing(g, seed=5)
    check_result(res)
    assert res.witness.count == 1
    flat = grid_drawing(g)
    assert res.drawing.points == tuple(
        qpoint(p[0], p[1], 0) for p in flat.points
    )
    assert res.drawing.meta["attempts"] == 0


def test_vertex_plane_drawing_k5_two_parallel_planes():
    res = pi23_drawing(complete_graph(5), seed=1)
    check_result(res)
    assert res.witness.kind == "planes_for_vertices"
    assert res.witness.count == 2
    normals = {pl.normal for pl in res.witness.objects}
    assert normals == {(0, 0, 1)}
    assert res.drawing.meta["attempts"] >= 1


def test_vertex_plane_drawing_k9_three_parallel_planes():
    res = pi23_drawing(complete_graph(9), seed=3)
    check_result(res)
    assert res.witness.count == 3
    assert {pl.normal for pl in res.witness.objects} == {(0, 0, 1)}


def test_vertex_plane_drawing_seed_determinism():
    a = pi23_drawing(complete_graph(6), seed=11)
    b = pi23_drawing(complete_graph(6), seed=11)
    assert a.drawing.points == b.drawing.points
    assert a.drawing.meta["attempts"] == b.drawing.meta["attempts"]


# ---------------------------------------------------------------------------
# complete graphs with vertices on few lines (moment curve)
# ---------------------------------------------------------------------------


def test_moment_curve_points_and_pair_lines():
    res = moment_curve_kn(6)
    check_result(res)
    assert res.drawing.points == tuple(qpoint(t, t * t, t**3) for t in range(6))
    assert res.witness.kind == "lines_for_vertices"
    assert res.witness.count == 3


def test_moment_curve_small_cases():
    assert moment_curve_kn(2).witness.count == 1
    assert moment_curve_kn(5).witness.count == 3
    assert moment_curve_kn(1).witness.count == 1
    for n in (1, 2, 5, 7):
        check_result(moment_curve_kn(n))


def test_moment_curve_no_four_points_coplanar():
    pts = moment_curve_kn(8).drawing.points
    import itertools

    for quad in itertools.combinations(pts, 4):
        assert orient(*quad) != 0


# ---------------------------------------------------------------------------
# bipartite edge plane books
# ---------------------------------------------------------------------------


def test_plane_book_counts():
    for (p, q), want in (((3, 4), 2), ((1, 5), 1), ((4, 4), 2), ((8, 8), 4)):
        res = kpq_plane_book(p, q)
        check_result(res)
        assert res.witness.kind == "planes_for_edges"
        assert res.witness.count == want == math.ceil(p / 2)
        assert res.drawing.graph == complete_bipartite(p, q)


def test_plane_book_rejects_bad_sizes():
    with pytest.raises(ValueError):
        kpq_plane_book(0, 3)
    with pytest.raises(ValueError):
        kpq_plane_book(3, 2)


# ---------------------------------------------------------------------------
# small complete graphs with few edge planes (shipped certificates)
# ---------------------------------------------------------------------------


def test_small_complete_graph_certificates():
    want = {4: 1, 5: 3, 6: 4, 7: 6, 8: 7}
    for n, bound in want.items():
        res = kn_small_plane_cover(n)
        check_result(res)
        assert res.claimed_bound == bound
        assert res.witness.count == bound
        value, _ = min_edge_plane_cover(res.drawing)
        assert value == bound, f"K_{n} drawing admits a smaller plane cover"
        violations = kn_structural_checks(res.drawing, res.witness)
        assert violations == ()


def test_small_complete_graph_certificates_reject_out_of_range():
    for n in (3, 9):
        with pytest.raises(ValueError, match=r"^certificates are shipped for 4 <= n <= 8 only$"):
            kn_small_plane_cover(n)


# ---------------------------------------------------------------------------
# two-line spiral drawings from track assignments
# ---------------------------------------------------------------------------


def diagonal_lines():
    return {
        canon_line(qpoint(0, 0), qpoint(1, 1)),
        canon_line(qpoint(0, 0), qpoint(1, -1)),
    }


def test_spiral_path_tracks():
    g = path_graph(4)
    res = spiral_two_lines(g, tree_tracks(g, 0))
    check_result(res)
    assert res.witness.count in (1, 2)
    assert set(res.witness.objects) <= diagonal_lines()


def test_spiral_star_two_lines():
    g = complete_bipartite(1, 3)
    res = spiral_two_lines(g, tree_tracks(g, 0))
    check_result(res)
    assert res.witness.count == 2


def test_spiral_trees_always_verify():
    trees = [
        path_graph(9),
        complete_binary_tree(3),
        complete_bipartite(1, 7),
        # a lopsided tree whose child order differs from index order
        Graph(7, [(0, 2), (0, 5), (2, 6), (2, 1), (5, 3), (6, 4)]),
    ]
    for t in trees:
        res = spiral_two_lines(t, tree_tracks(t, 0))
        check_result(res)
        assert res.witness.count <= 2


def test_spiral_rejects_wide_track_spans():
    g = path_graph(3)
    with pytest.raises(ValueError):
        spiral_two_lines(g, (0, 0, 2))


@pytest.mark.parametrize("tracks", [(0, 1), (0, 1, 2, 3), (-1, 0, 1)])
def test_spiral_rejects_bad_track_tuples(tracks):
    # a length other than n, or a negative track
    with pytest.raises(ValueError):
        spiral_two_lines(path_graph(3), tracks)


def test_spiral_unrealizable_assignment_raises():
    g = complete_graph(3)
    with pytest.raises(ConstructionError):
        spiral_two_lines(g, (0, 0, 0))


# ---------------------------------------------------------------------------
# parallel vertex lines for complete bipartite graphs
# ---------------------------------------------------------------------------


def test_parallel_lines_counts():
    for (p, q), want in (((2, 3), 3), ((1, 1), 2), ((3, 5), 4)):
        res = parallel_kpq_lines(p, q)
        check_result(res)
        assert res.witness.kind == "parallel_lines"
        assert res.witness.count == want == p + 1
        dirs = {obj.direction for obj in res.witness.objects}
        assert len(dirs) == 1


def test_parallel_lines_rejects_bad_sizes():
    with pytest.raises(ValueError):
        parallel_kpq_lines(0, 2)
    with pytest.raises(ValueError):
        parallel_kpq_lines(4, 3)


# ---------------------------------------------------------------------------
# complete binary trees on the grid
# ---------------------------------------------------------------------------


def test_tree_grid_size_recurrence():
    want = {2: 2, 3: 4, 4: 8, 5: 12, 6: 20, 7: 28, 8: 44, 9: 60, 10: 92}
    for h, m in want.items():
        assert tree_grid_size(h) == m


def test_tree_grid_size_closed_form_matches_recurrence():
    m = {2: 2, 3: 4}
    for h in range(4, 200):
        m[h] = 2 * m[h - 2] + 4
    for h, want in m.items():
        assert tree_grid_size(h) == want
    with pytest.raises(ValueError):
        tree_grid_size(1)


def test_binary_tree_single_point():
    res = binary_tree_grid(0)
    check_result(res)
    assert res.drawing.graph.n == 1
    assert res.witness.count == 0


def test_binary_tree_height_two():
    res = binary_tree_grid(2)
    check_result(res)
    assert res.box[0] <= 2 and res.box[1] <= 3
    assert res.witness.count <= 5


def test_binary_tree_height_four():
    res = binary_tree_grid(4)
    check_result(res)
    assert tree_grid_size(4) == 8
    assert res.box[0] <= 8 and res.box[1] <= 9
    assert res.witness.count <= 17


def test_binary_tree_sweep_fits_grid_and_line_budget():
    for h in range(2, 8):
        res = binary_tree_grid(h)
        m = tree_grid_size(h)
        n = res.drawing.graph.n
        assert res.box[0] <= m and res.box[1] <= m + 1, h
        measured = res.witness.count
        assert measured <= 2 * m + 1, h
        assert measured * measured > n - 3, h


# ---------------------------------------------------------------------------
# exact-count drawings of two-by-q complete bipartite graphs
# ---------------------------------------------------------------------------


def test_two_by_q_exact_counts():
    for q, want in ((1, 1), (3, 4), (5, 7)):
        res = k2q_optimal(q)
        check_result(res)
        n = q + 2
        assert want == math.ceil((3 * n - 7) / 2)
        assert res.witness.count == want


def test_two_by_q_formula_sweep():
    for q in range(1, 11):
        res = k2q_optimal(q)
        n = q + 2
        assert res.witness.count == math.ceil((3 * n - 7) / 2), q


def test_two_by_q_rejects_nonpositive():
    with pytest.raises(ValueError):
        k2q_optimal(0)


# ---------------------------------------------------------------------------
# prism stacks in 3D
# ---------------------------------------------------------------------------


def test_prism_single_square():
    res = prism_stack_3d(1, "C4")
    check_result(res)
    assert res.drawing.graph.n == 4
    assert res.witness.count == 4


def test_prism_small_tower():
    res = prism_stack_3d(3, "C4")
    check_result(res)
    n = res.drawing.graph.n
    assert res.witness.count <= PRISM_LINE_CONSTANT * n ** (2 / 3)


def test_prism_eight_and_twentyseven_scaling():
    counts = {}
    for k in (8, 27):
        res = prism_stack_3d(k, "C4")
        check_result(res)
        n = 4 * k
        counts[k] = res.witness.count
        assert res.witness.count <= PRISM_LINE_CONSTANT * n ** (2 / 3), k
    ratio = counts[27] / counts[8]
    power = (108 / 32) ** (2 / 3)
    assert power / 2 <= ratio <= power * 2


def test_prism_triangle_base():
    res = prism_stack_3d(8, "C3")
    check_result(res)
    assert res.drawing.graph.n == 24
    n = 24
    assert res.witness.count <= PRISM_LINE_CONSTANT * n ** (2 / 3)


def test_prism_rejects_bad_arguments():
    with pytest.raises(ValueError):
        prism_stack_3d(0, "C4")
    with pytest.raises(ValueError):
        prism_stack_3d(4, "C6")


def test_prism_partial_columns_verify():
    # sizes that do not split into equal full columns
    for k in (5, 10, 13):
        res = prism_stack_3d(k, "C4")
        check_result(res)


# ---------------------------------------------------------------------------
# nested squares on two lines
# ---------------------------------------------------------------------------


def test_nested_squares_small():
    res = nested_squares_two_lines(1)
    check_result(res)
    assert res.drawing.graph.n == 4
    assert res.witness.count == 2
    res2 = nested_squares_two_lines(2)
    check_result(res2)
    assert res2.drawing.graph.n == 8
    assert set(res2.witness.objects) == diagonal_lines()


def test_nested_squares_four_rings_minimum_is_two():
    res = nested_squares_two_lines(4)
    check_result(res)
    value, _ = min_vertex_line_cover(res.drawing)
    assert value == 2


def test_nested_squares_rejects_nonpositive():
    with pytest.raises(ValueError):
        nested_squares_two_lines(0)


# ---------------------------------------------------------------------------
# the draw-target table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "target, g, spec",
    [
        ("pi13", complete_graph(5), None),
        ("pi23", cycle_graph(5), None),
        ("rho23_kn", complete_graph(6), None),
        ("rho23_kpq", complete_bipartite(3, 4), None),
        ("parallel_kpq", complete_bipartite(2, 5), None),
        ("k2q", complete_bipartite(2, 4), None),
        ("two_lines", path_graph(6), None),
        ("binary_tree", complete_binary_tree(3), FamilySpec("complete_binary_tree", (3,))),
        ("prism3d", nested_triangles(2), FamilySpec("nested_triangles", (2,))),
        ("nested_squares", nested_squares(3), FamilySpec("nested_squares", (3,))),
    ],
)
def test_draw_target_builds_and_records_its_builder(target, g, spec):
    res = draw_target(target, g, spec, seed=3)
    check_result(res)
    assert res.drawing.graph == g
    assert res.drawing.meta["construction"] == DRAW_TARGETS[target].builder


@pytest.mark.parametrize(
    "target, g, spec, needs",
    [
        ("rho23_kn", complete_graph(9), None, "a complete graph on 4..8 vertices"),
        ("rho23_kn", path_graph(4), None, "a complete graph on 4..8 vertices"),
        ("rho23_kpq", cycle_graph(5), None, "a complete bipartite graph"),
        ("k2q", complete_bipartite(3, 3), None, "a complete bipartite graph with p = 2"),
        ("two_lines", cycle_graph(4), None, "a tree"),
        ("binary_tree", complete_binary_tree(2), None, "--family complete_binary_tree:h"),
        ("prism3d", cycle_graph(4), FamilySpec("cycle", (4,)), "--family c4_prism_stack:k"),
        ("nested_squares", nested_squares(2), None, "--family nested_squares:k"),
    ],
)
def test_draw_target_that_does_not_apply(target, g, spec, needs):
    with pytest.raises(ValueError, match=f"^target {target} needs {re.escape(needs)}"):
        draw_target(target, g, spec)


def test_draw_target_rejects_relabelled_input():
    # K_{2,3} with the larger side first: the book layout numbers it the other way
    g = Graph(5, [(i, j) for i in (0, 1, 2) for j in (3, 4)])
    with pytest.raises(ValueError, match="vertex labels do not match"):
        draw_target("rho23_kpq", g)
