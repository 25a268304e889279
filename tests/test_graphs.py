"""Tests for graph representation, families, and structural predicates.

Derived oracles: family edge counts are recomputed by brute-force
definitions inside the tests; graph6 parsing is cross-checked against
the networkx reference codec.
"""

from __future__ import annotations

import itertools
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecover.graphs import (
    _FAMILIES,
    FAMILY_KINDS,
    FAMILY_MAX_N,
    FamilySpec,
    Graph,
    brute_force_isomorphic,
    build_family,
    cartesian_product,
    complete_bipartite,
    complete_bipartite_shape,
    complete_graph,
    cycle_graph,
    es_count,
    essential_vertices,
    is_complete,
    is_linear_forest,
    linear_forest_order,
    parse_graph,
    path_graph,
    to_graph6,
)
from reference import from_networkx, to_networkx


# ---------------------------------------------------------------------------
# Graph type invariants
# ---------------------------------------------------------------------------


def test_graph_rejects_self_loops_and_bad_indices():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(-1, 0)])


def test_graph_normalizes_duplicate_and_reversed_edges():
    g = Graph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.m == 2
    assert (0, 1) in g.edges and (1, 2) in g.edges


def test_graph_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert g.adj[1] == {0, 2}
    assert g.max_degree() == 2


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_complete_family_edge_counts():
    for n in range(1, 65):
        g = complete_graph(n)
        assert g.n == n and g.m == n * (n - 1) // 2


def test_family_examples():
    assert build_family(FamilySpec("complete", (6,))).m == 15
    g = build_family(FamilySpec("nested_triangles", (4,)))
    assert g.n == 12 and g.m == 21
    kb = build_family(FamilySpec("complete_bipartite", (2, 3)))
    assert kb.n == 5 and kb.m == 6


def test_nested_triangles_matches_brute_force_product():
    # brute-force C3 x P4 by definition
    k = 4
    verts = [(i, c) for i in range(k) for c in range(3)]
    idx = {v: j for j, v in enumerate(verts)}
    edges = set()
    for (i, c), (i2, c2) in itertools.combinations(verts, 2):
        ring_adj = i == i2 and (c - c2) % 3 in (1, 2)
        path_adj = c == c2 and abs(i - i2) == 1
        if ring_adj or path_adj:
            edges.add(tuple(sorted((idx[(i, c)], idx[(i2, c2)]))))
    g = build_family(FamilySpec("nested_triangles", (k,)))
    assert g.edges == frozenset(edges)


def test_nested_squares_structure():
    # paper-style nested 4-cycles with alternating diagonal connectors
    g = build_family(FamilySpec("nested_squares", (3,)))
    assert g.n == 12 and g.m == 4 * 3 + 2 * 2
    assert g.max_degree() == 3
    # ring edges present
    for i in range(3):
        for c in range(4):
            assert tuple(sorted((4 * i + c, 4 * i + (c + 1) % 4))) in g.edges
    # connectors: ring0->ring1 at corners 0,2; ring1->ring2 at corners 1,3
    assert (0, 4) in g.edges and (2, 6) in g.edges
    assert (5, 9) in g.edges and (7, 11) in g.edges
    assert (1, 5) not in g.edges


def test_nested_squares_k1_is_c4():
    g = build_family(FamilySpec("nested_squares", (1,)))
    assert brute_force_isomorphic(g, cycle_graph(4))


def test_c4_prism_stack_is_product():
    g = build_family(FamilySpec("c4_prism_stack", (3,)))
    h = cartesian_product(path_graph(3), cycle_graph(4))
    assert g.edges == h.edges and g.n == h.n
    assert g.n == 12 and g.m == 4 * 3 + 4 * 2


def test_complete_binary_tree():
    g = build_family(FamilySpec("complete_binary_tree", (3,)))
    assert g.n == 15 and g.m == 14
    assert g.degree(0) == 2
    assert sorted(g.adj[0]) == [1, 2]
    assert sorted(g.adj[1]) == [0, 3, 4]
    h0 = build_family(FamilySpec("complete_binary_tree", (0,)))
    assert h0.n == 1 and h0.m == 0


def test_caterpillar():
    # spine of 3, leaf counts 2,0,1
    g = build_family(FamilySpec("caterpillar", (3, 2, 0, 1)))
    assert g.n == 3 + 3 and g.m == 2 + 3
    assert g.degree(0) == 3  # spine end with 2 leaves
    assert g.degree(1) == 2
    assert g.degree(2) == 2


def test_balanced_multipartite():
    g = build_family(FamilySpec("balanced_multipartite", (2, 4)))
    assert g.n == 4 and g.m == 4  # K_{2,2}
    assert brute_force_isomorphic(g, complete_bipartite(2, 2))
    g2 = build_family(FamilySpec("balanced_multipartite", (3, 7)))
    # class sizes 3,2,2 -> m = 3*2+3*2+2*2 = 16
    assert g2.n == 7 and g2.m == 16


def test_family_invalid_params():
    with pytest.raises(ValueError):
        build_family(FamilySpec("nested_triangles", (0,)))
    with pytest.raises(ValueError):
        build_family(FamilySpec("complete_bipartite", (3, 2)))  # requires p <= q
    with pytest.raises(ValueError):
        build_family(FamilySpec("cycle", (2,)))
    with pytest.raises(ValueError, match="unknown family kind 'no_such_kind'"):
        build_family(FamilySpec("no_such_kind", (1,)))


@pytest.mark.parametrize(
    "kind, params",
    [
        ("complete", (1,)),
        ("complete", (9,)),
        ("complete_bipartite", (4, 6)),
        ("cycle", (9,)),
        ("path", (1,)),
        ("path", (6,)),
        ("nested_triangles", (1,)),
        ("nested_triangles", (4,)),
        ("nested_squares", (1,)),
        ("nested_squares", (5,)),
        ("c4_prism_stack", (1,)),
        ("c4_prism_stack", (5,)),
        ("complete_binary_tree", (0,)),
        ("complete_binary_tree", (6,)),
        ("caterpillar", (3, 1, 0, 2)),
        ("balanced_multipartite", (3, 7)),
        ("balanced_multipartite", (4, 16)),
        ("balanced_multipartite", (5, 5)),
    ],
)
def test_family_size_is_read_off_the_parameters(kind, params):
    """The size ``build_family`` checks against its limit before it
    builds is the size of the graph it builds."""
    g = build_family(FamilySpec(kind, params))
    assert _FAMILIES[kind][1](*params) == (g.n, g.m)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("complete", (FAMILY_MAX_N + 1,)),
        ("complete", (448,)),  # 100,128 edges
        ("complete_bipartite", (317, 317)),
        ("path", (FAMILY_MAX_N + 1,)),
        ("complete_binary_tree", (10**12,)),
        ("caterpillar", (2, 0, FAMILY_MAX_N)),
        ("balanced_multipartite", (10**12, 10**12)),
    ],
)
def test_family_over_the_limit_is_refused(kind, params):
    with pytest.raises(ValueError, match="is too large: the limit is"):
        build_family(FamilySpec(kind, params))


def test_family_kinds_listed_once_in_order():
    assert FAMILY_KINDS == (
        "complete",
        "complete_bipartite",
        "cycle",
        "path",
        "nested_triangles",
        "nested_squares",
        "c4_prism_stack",
        "complete_binary_tree",
        "caterpillar",
        "balanced_multipartite",
    )


@pytest.mark.parametrize(
    "kind, params",
    [
        ("complete", (3, 4)),
        ("complete_bipartite", (3,)),
        ("cycle", ()),
        ("nested_squares", (2, 2)),
        ("caterpillar", ()),
        ("balanced_multipartite", (2, 4, 6)),
    ],
)
def test_family_wrong_parameter_count(kind, params):
    message = f"bad parameter count for family {kind!r}: {params}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_family(FamilySpec(kind, params))


# ---------------------------------------------------------------------------
# cartesian product
# ---------------------------------------------------------------------------


def test_product_c3_p2_is_prism():
    g = cartesian_product(cycle_graph(3), path_graph(2))
    assert g.n == 6 and g.m == 9
    # brute-force adjacency per definition
    verts = [(u, v) for u in range(3) for v in range(2)]
    idx = {w: j for j, w in enumerate(verts)}
    expected = set()
    for (u, v), (u2, v2) in itertools.combinations(verts, 2):
        if (u == u2 and abs(v - v2) == 1) or (v == v2 and (u - u2) % 3 in (1, 2)):
            expected.add(tuple(sorted((idx[(u, v)], idx[(u2, v2)]))))
    assert g.edges == frozenset(expected)


def test_product_with_k1_is_identity():
    g = cycle_graph(5)
    h = cartesian_product(g, complete_graph(1))
    assert h.n == g.n and h.edges == g.edges


def test_product_p2_p2_is_c4():
    g = cartesian_product(path_graph(2), path_graph(2))
    assert brute_force_isomorphic(g, cycle_graph(4))


def test_product_commutative_up_to_isomorphism():
    # explicit transposition bijection (u,v) -> (v,u) must be an isomorphism
    atlas = nx.graph_atlas_g()[1:53]  # all graphs on 1..5 vertices
    graphs = [from_networkx(nx.convert_node_labels_to_integers(a)) for a in atlas]
    for g, h in itertools.product(graphs, repeat=2):
        gh = cartesian_product(g, h)
        hg = cartesian_product(h, g)
        phi = {u * h.n + v: v * g.n + u for u in range(g.n) for v in range(h.n)}
        mapped = frozenset(tuple(sorted((phi[a], phi[b]))) for a, b in gh.edges)
        assert mapped == hg.edges and gh.n == hg.n


# ---------------------------------------------------------------------------
# essential vertices / linear forests
# ---------------------------------------------------------------------------


def test_essential_vertices_examples():
    assert essential_vertices(cycle_graph(5)) == frozenset()
    assert essential_vertices(complete_graph(3)) == frozenset({0, 1, 2})
    assert es_count(complete_graph(3)) == 3
    # cubic graphs: every vertex essential
    for g in (complete_graph(4), complete_bipartite(3, 3), from_networkx(nx.petersen_graph())):
        assert essential_vertices(g) == frozenset(range(g.n))


def test_essential_superset_of_high_degree():
    for g in (
        complete_graph(6),
        build_family(FamilySpec("nested_squares", (4,))),
        build_family(FamilySpec("complete_binary_tree", (4,))),
        build_family(FamilySpec("caterpillar", (5, 1, 1, 1, 1, 1))),
    ):
        ess = essential_vertices(g)
        assert {v for v in range(g.n) if g.degree(v) >= 3} <= ess


def test_essential_triangle_vertices_without_degree():
    # triangle with a pendant path: path vertices have degree <= 2 and are
    # not in any triangle, so exactly the triangle is essential
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert essential_vertices(g) == frozenset({0, 1, 2})


def test_is_linear_forest():
    p4 = path_graph(4)
    assert is_linear_forest(p4, set(range(4)))
    c4 = cycle_graph(4)
    assert not is_linear_forest(c4, set(range(4)))
    star = complete_bipartite(1, 3)
    assert not is_linear_forest(star, set(range(4)))
    # induced subsets
    assert is_linear_forest(c4, {0, 1, 2})
    assert is_linear_forest(star, {0, 1})
    assert is_linear_forest(star, {1, 2, 3})  # independent set
    assert is_linear_forest(p4, set())


@st.composite
def graphs_with_parts(draw):
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    # sparse graphs, so that many parts are linear forests
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    part = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return Graph(n, edges), part


@given(graphs_with_parts())
@settings(max_examples=300, deadline=None)
def test_linear_forest_order_matches_networkx(case):
    g, part = case
    h = to_networkx(g).subgraph(part)
    forest = not part or (nx.is_forest(h) and max(d for _, d in h.degree) <= 2)
    order = linear_forest_order(g, part)
    assert (order is not None) == forest == is_linear_forest(g, part)
    if not forest:
        return
    assert sorted(order) == sorted(part)
    if not order:
        return
    # a path is a run of consecutive adjacent vertices, and together the
    # runs walk every induced edge once
    steps = [(u, v) for u, v in zip(order, order[1:]) if g.has_edge(u, v)]
    assert len(steps) == h.number_of_edges()
    starts = [0] + [i + 1 for i, (u, v) in enumerate(zip(order, order[1:])) if not g.has_edge(u, v)]
    runs = [order[i:j] for i, j in zip(starts, starts[1:] + [len(order)])]
    assert all(run[0] <= run[-1] for run in runs)
    assert [run[0] for run in runs] == sorted(run[0] for run in runs)


def _bipartite_shape_oracle(g: Graph):
    """(p, q) from the first split of the vertices into sides of p <= q
    vertices, both nonempty, with every cross pair an edge and no edge
    inside a side; None when there is no such split."""
    for p in range(1, g.n // 2 + 1):
        for side in itertools.combinations(range(g.n), p):
            a, b = set(side), set(range(g.n)) - set(side)
            cross = all((min(u, v), max(u, v)) in g.edges for u in a for v in b)
            inside = any((u in a) == (v in a) for u, v in g.edges)
            if cross and not inside:
                return (p, g.n - p)
    return None


def test_complete_bipartite_shape_matches_oracle_on_all_small_graphs():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            assert complete_bipartite_shape(g) == _bipartite_shape_oracle(g), sorted(g.edges)


def test_is_complete():
    assert is_complete(Graph(0)) and is_complete(Graph(1))
    assert is_complete(complete_graph(2)) and is_complete(complete_graph(7))
    assert not is_complete(Graph(2))
    assert not is_complete(path_graph(3))
    assert not is_complete(Graph(7, complete_graph(6).edges))  # plus an isolated vertex


def test_complete_bipartite_shape_edge_cases():
    assert complete_bipartite_shape(Graph(0)) is None
    assert complete_bipartite_shape(Graph(1)) is None
    assert complete_bipartite_shape(Graph(4)) is None  # edgeless
    assert complete_bipartite_shape(complete_bipartite(1, 1)) == (1, 1)
    larger_side_first = Graph(7, [(i, j) for i in range(5) for j in (5, 6)])
    assert complete_bipartite_shape(larger_side_first) == (2, 5)
    k23_plus_isolated = Graph(6, complete_bipartite(2, 3).edges)
    assert complete_bipartite_shape(k23_plus_isolated) is None
    assert complete_bipartite_shape(cycle_graph(4)) == (2, 2)
    assert complete_bipartite_shape(cycle_graph(6)) is None
    assert complete_bipartite_shape(complete_graph(3)) is None


# ---------------------------------------------------------------------------
# parsing and encoding
# ---------------------------------------------------------------------------


def test_parse_graph6_k5_matches_reference():
    g = parse_graph(b"D~{", "graph6")
    assert g.n == 5 and g.m == 10
    # re-encode with the reference encoder and reparse
    ref = nx.from_graph6_bytes(b"D~{")
    assert g.edges == from_networkx(ref).edges
    assert to_graph6(g) == b"D~{"


def test_graph6_round_trip_families():
    for spec in (
        FamilySpec("complete", (7,)),
        FamilySpec("nested_triangles", (3,)),
        FamilySpec("complete_binary_tree", (3,)),
        FamilySpec("complete_bipartite", (2, 5)),
    ):
        g = build_family(spec)
        assert parse_graph(to_graph6(g), "graph6").edges == g.edges


def test_parse_edge_list():
    g = parse_graph(b"# a comment\n0 1\n1 2\n\n2 3\n", "edge_list")
    assert g.n == 4 and g.m == 3


def test_parse_edge_list_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_graph(b"0 0\n", "edge_list")
    with pytest.raises(ValueError, match="line 2"):
        parse_graph(b"0 1\n0 1\n", "edge_list")
    with pytest.raises(ValueError, match="line 1"):
        parse_graph(b"0 x\n", "edge_list")
    with pytest.raises(ValueError):
        parse_graph(b"not-a-graph6\xff", "graph6")


def test_parsed_graph_over_the_limit_is_refused():
    """The largest id decides the vertex count, so one line can ask for
    any number of vertices; past ``FAMILY_MAX_N`` nothing is built."""
    assert parse_graph(f"0 {FAMILY_MAX_N - 1}\n".encode(), "edge_list").n == FAMILY_MAX_N
    with pytest.raises(ValueError, match="is too large: the limit is"):
        parse_graph(f"0 {FAMILY_MAX_N}\n".encode(), "edge_list")
    n = FAMILY_MAX_N + 1
    head = bytes(63 + x for x in (63, n >> 12 & 63, n >> 6 & 63, n & 63))
    with pytest.raises(ValueError, match="is too large: the limit is"):
        parse_graph(head, "graph6")


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 255, 300])
def test_graph6_codec_matches_networkx(n):
    rng = random.Random(n)
    for p in (0.0, 0.05, 0.5, 1.0):
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        data = to_graph6(g)
        assert data == nx.to_graph6_bytes(to_networkx(g), header=False).strip()
        assert parse_graph(data, "graph6") == g
        assert from_networkx(nx.from_graph6_bytes(data)) == g


def test_graph6_long_size_prefixes():
    # n = 5 written with the 4- and 8-byte size prefixes decodes as networkx does
    body = to_graph6(complete_graph(5))[1:]
    for head in (b"~??D", b"~~?????D"):
        ref = from_networkx(nx.from_graph6_bytes(head + body))
        assert parse_graph(head + body, "graph6") == ref == complete_graph(5)


@pytest.mark.parametrize(
    "text",
    [
        b"",
        b"~",  # truncated 4-byte size prefix
        b"~??",
        b"~~????",  # truncated 8-byte size prefix
        b"A__",  # n = 2 wants one data byte, not two
        b"D~",  # n = 5 wants two data bytes
        b"D~{?",  # one data byte too many
        b"@\x10",  # byte below 63
        b"D~\x7f",  # byte above 126
        b"~~~~~~~~",  # n = 2**36 - 1 with no data: rejected before allocating
        b"~??~",  # n = 63 with no data
    ],
)
def test_graph6_malformed_raises_value_error(text):
    with pytest.raises(ValueError):
        parse_graph(text, "graph6")
