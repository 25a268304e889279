"""Tests for planarity, grid drawings, dual circumference, and tree tracks.

Derived oracles: face counts via Euler's formula; dual circumferences
by independent cycle enumeration on the dual of an embedding; grid
drawings are certified by the exact verifier.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import networkx as nx
import pytest

from affinecover.drawing import verify_crossing_free
from affinecover.graphs import (
    FamilySpec,
    Graph,
    balanced_multipartite,
    build_family,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
)
from affinecover.planar import (
    _clockwise,
    _embedding,
    _stacked_triangulation,
    dual_circumference_bound,
    grid_drawing,
    planarity_test,
    tree_tracks,
    triangulations,
    validate_embedding,
)
from affinecover.solvers import vertex_thickness_exact
from reference import (
    dual_circumference_oracle,
    from_networkx,
    nx_embedding,
    nx_faces,
    nx_grid_points,
)


# ---------------------------------------------------------------------------
# planarity_test
# ---------------------------------------------------------------------------


def test_planarity_k4_has_four_faces():
    faces = planarity_test(complete_graph(4))
    assert faces is not None
    assert len(faces) == 4
    validate_embedding(complete_graph(4), faces)


def test_planarity_rejects_k5_and_k33():
    assert planarity_test(complete_graph(5)) is None
    assert planarity_test(complete_bipartite(3, 3)) is None


def test_planarity_embedding_invariants_on_families():
    for spec in (
        FamilySpec("nested_triangles", (3,)),
        FamilySpec("nested_squares", (4,)),
        FamilySpec("complete_binary_tree", (3,)),
        FamilySpec("cycle", (7,)),
        FamilySpec("c4_prism_stack", (3,)),
    ):
        g = build_family(spec)
        faces = planarity_test(g)
        assert faces is not None
        validate_embedding(g, faces)
        # Euler for connected graphs: n - m + f = 2
        assert g.n - g.m + len(faces) == 2


def test_planarity_agrees_with_euler_rejection():
    # any graph with m > 3n-6 (n >= 3) must be reported non-planar
    for g in (complete_graph(6), complete_graph(7), balanced_multipartite(4, 8)):
        if g.m > 3 * g.n - 6:
            assert planarity_test(g) is None


def test_planarity_disconnected():
    g = Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    faces = planarity_test(g)
    assert faces is not None
    validate_embedding(g, faces)


@pytest.mark.parametrize(
    "g, faces, message",
    [
        # (0, 2) is not an edge of the 4-cycle
        (cycle_graph(4), ((0, 1, 2, 3), (0, 2, 1)), "non-edge"),
        (complete_graph(3), ((0, 1, 2), (0, 1, 2)), "two faces"),
        (complete_graph(3), ((0, 1, 2),), "no face"),
        # a toroidal face set of K4: every directed edge on exactly one
        # face, but n - m + f = 4 - 6 + 2 = 0
        (complete_graph(4), ((0, 1, 2, 3), (0, 2, 1, 3, 2, 0, 3, 1)), "Euler"),
    ],
)
def test_validate_embedding_rejects_bad_faces(g, faces, message):
    with pytest.raises(ValueError, match=message):
        validate_embedding(g, faces)


# ---------------------------------------------------------------------------
# grid_drawing
# ---------------------------------------------------------------------------


def test_grid_drawing_k4():
    d = grid_drawing(complete_graph(4))
    assert d.verified and d.dim == 2
    n = 4
    for p in d.points:
        assert all(x.denominator == 1 for x in p)
        assert all(0 <= x <= 2 * n - 4 for x in p)


def test_grid_drawing_c6():
    d = grid_drawing(cycle_graph(6))
    assert d.verified
    assert all(0 <= x <= 8 for p in d.points for x in p)


def test_grid_drawing_single_edge():
    d = grid_drawing(path_graph(2))
    assert d.verified and d.points[0] != d.points[1]


def test_grid_drawing_rejects_nonplanar():
    with pytest.raises(ValueError):
        grid_drawing(complete_graph(5))


def test_grid_drawing_disconnected_tiles_components():
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
    d = grid_drawing(g)
    assert d.verified


def test_grid_drawing_planar_corpus():
    for spec in (
        FamilySpec("nested_triangles", (8,)),
        FamilySpec("nested_squares", (6,)),
        FamilySpec("complete_binary_tree", (4,)),
        FamilySpec("caterpillar", (6, 2, 1, 0, 3, 1, 2)),
        FamilySpec("c4_prism_stack", (5,)),
        FamilySpec("cycle", (12,)),
    ):
        g = build_family(spec)
        assert g.n <= 50
        d = grid_drawing(g)
        assert d.verified
        if g.n >= 4:
            assert all(0 <= x <= 2 * g.n - 4 and 0 <= y <= g.n - 2 for x, y in d.points)


# ---------------------------------------------------------------------------
# the embedding and the shift method against networkx
# ---------------------------------------------------------------------------


def assert_matches_networkx(g: Graph) -> bool:
    """The planarity verdict, the clockwise rotation at every vertex (from
    the same first neighbour), the faces of ``planarity_test`` and the
    points of ``grid_drawing`` all equal networkx's; returns the verdict."""
    emb = nx_embedding(g)
    ours = _embedding(g)
    assert (ours is None) == (emb is None)
    if emb is None:
        assert planarity_test(g) is None
        return False
    cw, _ = ours
    assert [list(_clockwise(cw[v])) for v in range(g.n)] == [
        list(emb.neighbors_cw_order(v)) for v in range(g.n)
    ]
    assert planarity_test(g) == nx_faces(g, emb)
    if g.n:
        points = grid_drawing(g).points
        assert points == nx_grid_points(g, emb)
        if g.n >= 4:
            assert all(0 <= x <= 2 * g.n - 4 and 0 <= y <= g.n - 2 for x, y in points)
    return True


def test_embedding_matches_networkx_on_the_atlas():
    graphs = nx.graph_atlas_g()
    assert len(graphs) == 1253
    planar = sum(assert_matches_networkx(from_networkx(ng)) for ng in graphs)
    assert planar == 1253 - 237


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("nested_triangles", (60,)),
        FamilySpec("c4_prism_stack", (40,)),
        FamilySpec("nested_squares", (16,)),
        FamilySpec("complete_binary_tree", (7,)),
        FamilySpec("caterpillar", (6, 2, 1, 0, 3, 1, 2)),
        FamilySpec("caterpillar", (1, 5)),
        FamilySpec("caterpillar", (12, *range(12))),
    ],
)
def test_embedding_matches_networkx_on_families(spec):
    assert assert_matches_networkx(build_family(spec))


def test_embedding_matches_networkx_on_disconnected_graphs():
    graphs = [
        Graph(5, []),
        Graph(9, [(2, 7)]),
        Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)]),
        Graph(12, [(0, 4), (4, 8), (8, 0), (1, 5), (5, 9), (9, 1), (2, 6)]),
    ]
    rng = random.Random("disconnected")
    while len(graphs) < 300:
        # about 0.6 edges per vertex: several components, often isolated vertices
        n = rng.randrange(4, 24)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 1.2 / n])
        if len(g.components()) > 1:
            graphs.append(g)
    assert sum(min(map(len, g.adj)) == 0 for g in graphs) > 100
    for g in graphs:
        assert assert_matches_networkx(g)


def test_embedding_matches_networkx_on_vertex_thickness_classes():
    # the induced classes pi23_drawing draws, one plane each
    checked = 0
    for n, p, seed in itertools.product(range(8, 17), (0.3, 0.5, 0.7), range(3)):
        rng = random.Random(f"classes:{n}:{p}:{seed}")
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        for cls in vertex_thickness_exact(g).partition.classes:
            assert assert_matches_networkx(g.induced(sorted(cls)))
            checked += 1
    assert checked == 152


def test_deep_inputs_need_no_recursion():
    # the networkx code these replace is iterative; 3,000 vertices is
    # three times the default recursion limit
    d = grid_drawing(path_graph(3000))
    assert d.verified and len(set(d.points)) == 3000
    faces = planarity_test(cycle_graph(3000))
    assert sorted(map(len, faces)) == [3000, 3000]


# ---------------------------------------------------------------------------
# dual_circumference_bound
# ---------------------------------------------------------------------------


def brute_circumference(adj):
    """Independent longest-cycle search by exhaustive simple-path DFS."""
    n = len(adj)
    best = 0

    def dfs(path, visited):
        nonlocal best
        u = path[-1]
        for w in adj[u]:
            if w == path[0] and len(path) >= 3:
                best = max(best, len(path))
            elif w not in visited and w > path[0]:
                visited.add(w)
                path.append(w)
                dfs(path, visited)
                path.pop()
                visited.remove(w)

    for s in range(n):
        dfs([s], {s})
    return best


def test_dual_circumference_k4():
    res = dual_circumference_bound(complete_graph(4))
    assert res.c_dual == 4 and res.lower_bound == 1 and res.exact
    # independent brute force on the dual (tetrahedron is self-dual: K4)
    assert brute_circumference([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]) == 4


def test_dual_circumference_octahedron():
    octa = balanced_multipartite(3, 6)
    res = dual_circumference_bound(octa)
    assert res.c_dual == 8 and res.lower_bound == 1 and res.exact
    # oracle: the dual of the octahedron is the cube; brute-force its circumference
    cube = nx.hypercube_graph(3)
    cube = nx.convert_node_labels_to_integers(cube)
    adj = [sorted(cube.neighbors(v)) for v in range(8)]
    assert brute_circumference(adj) == 8


def test_dual_circumference_icosahedron():
    res = dual_circumference_bound(Graph(12, nx.icosahedral_graph().edges()))
    assert res == (1, 20, True)


def test_dual_circumference_cycle_certificate():
    c, cyc, dual = dual_circumference_oracle(complete_graph(4))
    assert c == len(cyc) == 4 and len(set(cyc)) == 4
    for i, u in enumerate(cyc):
        assert cyc[(i + 1) % len(cyc)] in dual[u]


def test_dual_rejects_non_triangulations():
    with pytest.raises(ValueError):
        dual_circumference_bound(cycle_graph(6))
    with pytest.raises(ValueError):
        dual_circumference_bound(complete_graph(5))
    with pytest.raises(ValueError):
        dual_circumference_bound(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))


def test_dual_budget_exceeded_flagged():
    # past 20 vertices the dual may have 38 or more vertices, where a
    # cubic 3-connected planar graph need not be Hamiltonian, so c_dual
    # is only its upper bound 2n - 4
    res = dual_circumference_bound(_stacked_triangulation(21))
    assert res == (1, 38, False)


def test_dual_bound_matches_circumference_oracle():
    """Every triangulation with 4..9 vertices and the stacked ones with
    10..20, the end of the range where the theorem makes every dual
    Hamiltonian: the oracle's search finds a Hamiltonian cycle of the
    dual, and the bound is ceil((2n-4)/c) for that circumference."""
    graphs = [g for n in range(4, 10) for g in triangulations(n)]
    graphs += [_stacked_triangulation(n) for n in range(10, 21)]
    assert len(graphs) == 84
    for g in graphs:
        c, cycle, dual = dual_circumference_oracle(g)
        assert len(dual) == c == 2 * g.n - 4
        assert all(len(set(row)) == 3 for row in dual)  # simple and cubic
        assert sorted(cycle) == list(range(c))
        for i, u in enumerate(cycle):
            assert cycle[(i + 1) % c] in dual[u]
        res = dual_circumference_bound(g)
        assert res == (-(-(2 * g.n - 4) // c), c, True)


def test_dual_search_pinned_on_small_triangulations():
    """Every triangulation with 4..9 vertices and the stacked ones with
    10..14: the oracle's search returns a Hamiltonian cycle of the dual,
    and the (length, cycle) pairs are the ones the search returned when
    it ran inside ``dual_circumference_bound``."""
    graphs = [g for n in range(4, 10) for g in triangulations(n)]
    graphs += [_stacked_triangulation(n) for n in range(10, 15)]
    assert len(graphs) == 78
    rows = []
    for g in graphs:
        c, cyc, dual = dual_circumference_oracle(g)
        assert c == 2 * g.n - 4
        assert sorted(cyc) == list(range(c))
        for i, u in enumerate(cyc):
            assert cyc[(i + 1) % len(cyc)] in dual[u]
        rows.append((c, cyc))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "3a3c7a33297ef29d143c5431c5b471b172c33fae36634d9616121e8eb1635fa8"


# ---------------------------------------------------------------------------
# tree_tracks
# ---------------------------------------------------------------------------


def test_tree_tracks_examples():
    assert tree_tracks(path_graph(3), 0) == (0, 1, 2)
    star = complete_bipartite(1, 3)
    assert tree_tracks(star, 0) == (0, 1, 1, 1)
    cbt = build_family(FamilySpec("complete_binary_tree", (2,)))
    assert tree_tracks(cbt, 0) == (0, 1, 1, 2, 2, 2, 2)


def test_tree_tracks_edge_span_invariant():
    g = build_family(FamilySpec("caterpillar", (4, 1, 2, 0, 1)))
    t = tree_tracks(g, 2)
    for u, v in g.edges:
        assert abs(t[u] - t[v]) == 1


def test_tree_tracks_rejects_cycles_and_forests():
    with pytest.raises(ValueError):
        tree_tracks(cycle_graph(4), 0)
    with pytest.raises(ValueError):
        tree_tracks(Graph(4, [(0, 1), (2, 3)]), 0)
