"""Tests for the exact combinatorial solvers.

Derived-value oracles are independent brute-force enumerations written
inline here (full elimination-order sweeps, full bipartition sweeps,
direct colorability checks) so that solver answers are cross-checked
against a second route, not against themselves.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecover.graphs import (
    Graph,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    from_networkx,
    is_linear_forest,
    path_graph,
    to_networkx,
    triangulated_square_wheel,
)
from affinecover.planar import _count_verdict, _reduce, is_planar, planarity_test
from affinecover.solvers import (
    BisectionResult,
    TreewidthResult,
    _degeneracy,
    _greedy_elimination_width,
    _stays_planar,
    bisection_width_exact,
    chromatic_number,
    clique_cover_exact,
    lva_exact,
    steiner_bounds,
    treewidth_exact,
    validate_partition,
    vertex_thickness_exact,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_colorable(g: Graph, k: int) -> bool:
    for assign in itertools.product(range(k), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in g.edges):
            return True
    return False


def brute_chromatic(g: Graph) -> int:
    for k in range(1, g.n + 1):
        if brute_colorable(g, k):
            return k
    return g.n


def brute_lva(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            classes = [[v for v in range(g.n) if assign[v] == c] for c in range(k)]
            if all(is_linear_forest(g, cls) for cls in classes):
                return k
    return g.n


def brute_treewidth(g: Graph) -> int:
    """Minimum over all elimination orders of the maximum fill degree."""
    best = g.n - 1
    for order in itertools.permutations(range(g.n)):
        adj = {v: set(g.adj[v]) for v in range(g.n)}
        width = 0
        for v in order:
            nbrs = adj[v]
            width = max(width, len(nbrs))
            if width >= best:
                break
            for a, b in itertools.combinations(nbrs, 2):
                adj[a].add(b)
                adj[b].add(a)
            for u in nbrs:
                adj[u].discard(v)
            del adj[v]
        best = min(best, width)
    return best


def brute_bisection(g: Graph) -> int:
    half = g.n // 2
    best = g.m
    for side in itertools.combinations(range(g.n), half):
        s = set(side)
        cut = sum(1 for u, v in g.edges if (u in s) != (v in s))
        best = min(best, cut)
    return best


def reference_bisection(g: Graph) -> BisectionResult:
    """The plain bisection search the bitset search replaced: index order,
    side A first, vertex 0 fixed to A when n is even, pruned only by
    ``cut >= best``."""
    n = g.n
    size_a = (n + 1) // 2
    prefix = set(range(size_a))
    prefix_cut = sum(1 for u, v in g.edges if (u in prefix) != (v in prefix))
    if n <= 1:
        return BisectionResult(0, True, tuple(range(n)))
    best = prefix_cut
    best_side = tuple(sorted(prefix))
    side = [-1] * n

    def dfs(v, cnt_a, cnt_b, cut):
        nonlocal best, best_side
        if cut >= best:
            return
        if v == n:
            best = cut
            best_side = tuple(i for i in range(n) if side[i] == 0)
            return
        for s in (0, 1):
            if s == 0 and cnt_a == size_a:
                continue
            if s == 1 and cnt_b == n - size_a:
                continue
            if v == 0 and s == 1 and n % 2 == 0:
                continue
            side[v] = s
            extra = sum(1 for w in g.adj[v] if w < v and side[w] != s)
            dfs(v + 1, cnt_a + (s == 0), cnt_b + (s == 1), cut + extra)
            side[v] = -1

    dfs(0, 0, 0, 0)
    return BisectionResult(best, True, best_side)


def reference_vertex_thickness(g: Graph) -> tuple:
    """The plain vertex-thickness search the pre-checks speed up: classes
    tried in index order, every class of five or more vertices tested
    with ``planarity_test``.  Returns (value, classes)."""
    n = g.n
    if n == 0:
        return 0, ()
    for k in range(1, n + 1):
        members = [[] for _ in range(k)]

        def feasible(cls, v):
            if len(cls) < 4:
                return True
            return planarity_test(g.induced(cls + [v])) is not None

        def dfs(v, used):
            if v == n:
                return True
            for c in range(min(used + 1, k)):
                if feasible(members[c], v):
                    members[c].append(v)
                    if dfs(v + 1, max(used, c + 1)):
                        return True
                    members[c].pop()
            return False

        if dfs(0, 0):
            return k, tuple(frozenset(c) for c in members)
    raise AssertionError("a partition into singletons always exists")


def reference_treewidth(g: Graph) -> TreewidthResult:
    """The treewidth search the elimination-graph rows replaced: every
    remaining vertex tried by increasing degree, each degree found by a
    search through the eliminated vertices, and a memo keyed by the
    remaining set; no simplicial rule."""
    n = g.n
    if n <= 1:
        return TreewidthResult(0, 0, True)
    lower = _degeneracy(g)
    upper = _greedy_elimination_width(g)
    if lower == upper:
        return TreewidthResult(lower, upper, True)
    adj_bits = [0] * n
    for u, v in g.edges:
        adj_bits[u] |= 1 << v
        adj_bits[v] |= 1 << u
    best = upper
    seen: dict = {}

    def contracted_degree(remaining: int, v: int) -> int:
        # neighbours of v once the eliminated vertices are contracted away
        reached = 1 << v
        stack = [v]
        cnt = 0
        while stack:
            u = stack.pop()
            new = adj_bits[u] & ~reached
            reached |= new
            while new:
                b = new & -new
                new ^= b
                if remaining & b:
                    cnt += 1
                else:
                    stack.append(b.bit_length() - 1)
        return cnt

    def dfs(remaining: int, cur: int) -> None:
        nonlocal best
        if cur >= best:
            return
        if remaining == 0:
            best = cur
            return
        prev = seen.get(remaining)
        if prev is not None and prev <= cur:
            return
        seen[remaining] = cur
        cand = sorted(
            (contracted_degree(remaining, v), v) for v in range(n) if remaining >> v & 1
        )
        for dg, v in cand:
            if max(cur, dg) < best:
                dfs(remaining & ~(1 << v), max(cur, dg))

    dfs((1 << n) - 1, 0)
    return TreewidthResult(best, best, True)


def small_graph_strategy(max_n=6):
    def build(n, mask):
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        return Graph(n, edges)

    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            build, st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1)
        )
    )


def density_graph_strategy(max_n):
    """Graphs on 2..max_n vertices whose edges are kept with a drawn
    probability of 0.1 to 1, so dense graphs occur as often as sparse."""

    def build(n, density, seed):
        rng = random.Random(seed)
        pairs = itertools.combinations(range(n), 2)
        return Graph(n, [e for e in pairs if rng.random() < density / 10])

    return st.builds(
        build,
        st.sampled_from(range(2, max_n + 1)),
        st.sampled_from(range(1, 11)),
        st.integers(0, 2**32),
    )


# ---------------------------------------------------------------------------
# chromatic_number
# ---------------------------------------------------------------------------


def test_chromatic_examples():
    assert chromatic_number(complete_graph(4)).value == 4
    assert chromatic_number(cycle_graph(5)).value == 3
    petersen = from_networkx(nx.petersen_graph())
    res = chromatic_number(petersen)
    assert res.value == 3 and res.exact
    # derived oracle: no proper 2-coloring of the Petersen graph exists
    assert not brute_colorable(petersen, 2)
    validate_partition(petersen, res.partition)


def test_chromatic_budget_fallback():
    res = chromatic_number(cycle_graph(5), budget_n=3)
    assert not res.exact
    assert res.value >= 3
    validate_partition(cycle_graph(5), res.partition)


@settings(max_examples=40, deadline=None)
@given(small_graph_strategy())
def test_chromatic_matches_brute_force(g):
    res = chromatic_number(g)
    assert res.exact and res.value == brute_chromatic(g)
    validate_partition(g, res.partition)


# ---------------------------------------------------------------------------
# lva_exact
# ---------------------------------------------------------------------------


def test_lva_examples():
    assert lva_exact(cycle_graph(5)).value == 2
    assert lva_exact(path_graph(7)).value == 1
    res = lva_exact(triangulated_square_wheel())
    assert res.value == 3 and res.exact
    validate_partition(triangulated_square_wheel(), res.partition)


def test_lva_complete_graphs():
    # every class of 3+ vertices of a complete graph contains a triangle
    for n in range(2, 9):
        assert lva_exact(complete_graph(n)).value == (n + 1) // 2


def test_lva_fallback_honours_budget():
    # the crown graph K3,3 minus a perfect matching, ordered a1 b1 a2 b2
    # a3 b3: bipartite, but first-fit colouring needs three colours
    crown = Graph(6, [(2 * i, 2 * j + 1) for i in range(3) for j in range(3) if i != j])
    assert chromatic_number(crown).value == 2
    res = lva_exact(crown, budget_n=2)
    assert res.value == 3 and not res.exact
    validate_partition(crown, res.partition)
    assert lva_exact(crown).value == 2  # a 6-cycle


def test_lva_budget_fallback_is_coloring():
    res = lva_exact(complete_graph(5), budget_n=3)
    assert not res.exact
    validate_partition(complete_graph(5), res.partition)
    assert res.value >= 3  # true optimum


@settings(max_examples=25, deadline=None)
@given(small_graph_strategy(5))
def test_lva_matches_brute_force(g):
    res = lva_exact(g)
    assert res.exact and res.value == brute_lva(g)
    validate_partition(g, res.partition)


# ---------------------------------------------------------------------------
# vertex_thickness_exact
# ---------------------------------------------------------------------------


def test_vertex_thickness_examples():
    assert vertex_thickness_exact(complete_graph(4)).value == 1
    res9 = vertex_thickness_exact(complete_graph(9))
    assert res9.value == 3 and res9.exact
    validate_partition(complete_graph(9), res9.partition)
    res5 = vertex_thickness_exact(complete_graph(5))
    assert res5.value == 2
    # derived: K5 is non-planar, so one class cannot work
    assert planarity_test(complete_graph(5)) is None


def test_vertex_thickness_complete():
    for n in range(1, 17):
        assert vertex_thickness_exact(complete_graph(n)).value == -(-n // 4)


@settings(max_examples=150, deadline=None)
@given(density_graph_strategy(12))
def test_vertex_thickness_matches_reference(g):
    res = vertex_thickness_exact(g)
    assert res.exact
    assert (res.value, res.partition.classes) == reference_vertex_thickness(g)


def test_vertex_thickness_tests_each_set_once(monkeypatch):
    seen = []
    check_planarity = nx.check_planarity

    def counting(h, *args, **kwargs):
        seen.append(frozenset(h.edges))
        return check_planarity(h, *args, **kwargs)

    # the networkx fallback of is_planar; the rook's graph K4 x K3 has
    # classes that reduce to seven or more vertices, and its search asks
    # about some of those vertex sets twice
    monkeypatch.setattr(nx, "check_planarity", counting)
    g = cartesian_product(complete_graph(4), complete_graph(3))
    res = vertex_thickness_exact(g)
    assert res.value == 2 and res.exact
    assert seen and len(seen) == len(set(seen))
    assert min(len({u for e in edges for u in e}) for edges in seen) >= 7


def adjacency(g: Graph) -> dict:
    return {u: set(g.adj[u]) for u in range(g.n)}


def graph_of(adj: dict) -> Graph:
    idx = {u: i for i, u in enumerate(sorted(adj))}
    return Graph(len(idx), [(idx[u], idx[w]) for u in adj for w in adj[u]])


def check_planarity_prechecks(g: Graph, planar: bool) -> None:
    assert is_planar(adjacency(g)) == planar
    assert _count_verdict(adjacency(g)) in (None, planar)
    reduced = _reduce(adjacency(g))
    assert all(len(nb) >= 3 and u not in nb for u, nb in reduced.items())
    assert all(u in reduced[w] for u, nb in reduced.items() for w in nb)
    assert (planarity_test(graph_of(reduced)) is not None) == planar
    assert _count_verdict(reduced) in (None, planar)
    tested: dict = {}
    for v in range(g.n):
        rest = set(range(g.n)) - {v}
        if planarity_test(g.induced(rest)) is not None:
            assert _stays_planar(g, rest, v, tested) == planar


@settings(max_examples=300, deadline=None)
@given(density_graph_strategy(9))
def test_planarity_prechecks_match_planarity_test(g):
    check_planarity_prechecks(g, planarity_test(g) is not None)


def subdivide(g: Graph, times: int) -> Graph:
    """Every edge of ``g`` replaced by a path through ``times`` new vertices."""
    n, edges = g.n, []
    for u, v in sorted(g.edges):
        path = [u, *range(n, n + times), v]
        n += times
        edges += zip(path, path[1:])
    return Graph(n, edges)


def with_pendant_path(g: Graph, at: int, length: int) -> Graph:
    path = [at, *range(g.n, g.n + length)]
    return Graph(g.n + length, [*g.edges, *zip(path, path[1:])])


K33 = complete_bipartite(3, 3)
K5 = complete_graph(5)
K4_DOUBLED = Graph(
    10, [*complete_graph(4).edges, *subdivide(complete_graph(4), 1).edges]
)
HARD_CASES = {
    "K5 subdivided once": (subdivide(K5, 1), False),
    "K5 subdivided twice": (subdivide(K5, 2), False),
    "K3,3 subdivided once": (subdivide(K33, 1), False),
    "K3,3 subdivided twice": (subdivide(K33, 2), False),
    "Petersen": (from_networkx(nx.petersen_graph()), False),
    "K5 minus an edge": (Graph(5, K5.edges - {(0, 1)}), True),
    "K3,3 with pendant paths": (
        with_pendant_path(with_pendant_path(K33, 0, 3), 4, 2),
        False,
    ),
    "wheel with a 6-cycle rim": (
        Graph(7, [*((i, (i + 1) % 6) for i in range(6)), *((i, 6) for i in range(6))]),
        True,
    ),
    "triangle with a pendant path": (with_pendant_path(cycle_graph(3), 2, 3), True),
    "K4 with every edge doubled by a 2-path": (K4_DOUBLED, True),
}


@pytest.mark.parametrize("name", HARD_CASES)
def test_planarity_prechecks_hard_cases(name):
    g, planar = HARD_CASES[name]
    assert (planarity_test(g) is not None) == planar
    check_planarity_prechecks(g, planar)


def test_reduction_on_hard_cases():
    # suppressing a triangle vertex makes a parallel edge, which is
    # dropped, and then the whole graph strips away
    assert _reduce(adjacency(HARD_CASES["triangle with a pendant path"][0])) == {}
    # suppressing the midpoints gives K4 with every edge doubled: a
    # reduction that counted the parallel edges would find 12 > 3*4 - 6
    # and call this planar graph non-planar
    reduced = _reduce(adjacency(K4_DOUBLED))
    assert reduced == adjacency(complete_graph(4))
    assert _count_verdict(reduced) is True
    # subdivisions reduce to their branch graphs
    assert _reduce(adjacency(HARD_CASES["K5 subdivided twice"][0])) == adjacency(K5)
    assert _count_verdict(adjacency(K5)) is False
    assert _reduce(adjacency(HARD_CASES["K3,3 subdivided twice"][0])) == adjacency(K33)
    assert _count_verdict(adjacency(K33)) is None  # left to planarity_test
    assert _reduce(adjacency(HARD_CASES["K3,3 with pendant paths"][0])) == adjacency(K33)


def nx_planar(g: Graph) -> bool:
    return nx.check_planarity(to_networkx(g))[0]


def six_vertex_cores() -> list:
    """Every labelled graph on six vertices with minimum degree 3 and 9
    to 12 edges: the graphs that reach the Kuratowski test of is_planar
    unreduced."""
    pairs = list(itertools.combinations(range(6), 2))
    graphs = []
    for mask in range(1 << len(pairs)):
        if 9 <= mask.bit_count() <= 12:
            g = Graph(6, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if min(map(len, g.adj)) >= 3:
                graphs.append(g)
    return graphs


def test_is_planar_on_every_six_vertex_core():
    graphs = six_vertex_cores()
    assert len(graphs) == 1737
    verdicts = [is_planar(adjacency(g)) for g in graphs]
    assert verdicts == [nx_planar(g) for g in graphs]
    assert 0 < sum(verdicts) < len(graphs)


@settings(max_examples=200, deadline=None)
@given(small_graph_strategy(6))
def test_is_planar_matches_networkx_small(g):
    assert is_planar(adjacency(g)) == nx_planar(g)


def test_stays_planar_decides_by_reduction(monkeypatch):
    def refuse(h, *args, **kwargs):
        raise AssertionError("networkx called on a reducible set")

    monkeypatch.setattr(nx, "check_planarity", refuse)
    for name in ("K5 subdivided twice", "K4 with every edge doubled by a 2-path"):
        g, planar = HARD_CASES[name]
        # the last vertex subdivides an edge; the rest of the graph is planar
        assert _stays_planar(g, set(range(g.n - 1)), g.n - 1, {}) == planar


def test_vertex_thickness_budget_fallback():
    res = vertex_thickness_exact(complete_graph(9), budget_n=4)
    assert not res.exact and res.value == 3
    validate_partition(complete_graph(9), res.partition)


# ---------------------------------------------------------------------------
# treewidth_exact
# ---------------------------------------------------------------------------


def test_treewidth_examples():
    assert treewidth_exact(complete_graph(5)).value == 4
    assert treewidth_exact(path_graph(5)).value == 1
    assert treewidth_exact(complete_bipartite(1, 4)).value == 1
    res = treewidth_exact(cycle_graph(6))
    assert res.value == 2 and res.exact
    assert brute_treewidth(cycle_graph(6)) == 2


def test_treewidth_budget_pair():
    # 6x6 grid: degeneracy 2 but actual treewidth 6, so over budget the
    # solver must report an honest (lower, upper) pair, not an exact value
    g = cartesian_product(path_graph(6), path_graph(6))
    res = treewidth_exact(g)
    assert not res.exact
    assert 2 <= res.lower <= res.upper


@settings(max_examples=25, deadline=None)
@given(small_graph_strategy(7))
def test_treewidth_matches_brute_force(g):
    res = treewidth_exact(g)
    assert res.exact and res.value == brute_treewidth(g)


@settings(max_examples=200, deadline=None)
@given(density_graph_strategy(12))
def test_treewidth_matches_reference(g):
    assert treewidth_exact(g) == reference_treewidth(g)


def test_treewidth_fixed_cases_match_reference():
    petersen = from_networkx(nx.petersen_graph())
    for g in (
        petersen,
        cartesian_product(path_graph(4), path_graph(4)),
        cartesian_product(complete_graph(4), complete_graph(3)),
        triangulated_square_wheel(),
        complete_bipartite(4, 5),
    ):
        assert treewidth_exact(g) == reference_treewidth(g)


# ---------------------------------------------------------------------------
# bisection_width_exact
# ---------------------------------------------------------------------------


def test_bisection_examples():
    assert bisection_width_exact(complete_graph(4)).value == 4
    assert bisection_width_exact(path_graph(6)).value == 1
    assert bisection_width_exact(complete_bipartite(3, 3)).value == 5
    assert brute_bisection(complete_graph(4)) == 4
    assert brute_bisection(complete_bipartite(3, 3)) == 5


@settings(max_examples=30, deadline=None)
@given(small_graph_strategy())
def test_bisection_matches_brute_force(g):
    res = bisection_width_exact(g)
    assert res.exact and res.value == brute_bisection(g)


@settings(max_examples=200, deadline=None)
@given(density_graph_strategy(12))
def test_bisection_matches_reference(g):
    assert bisection_width_exact(g) == reference_bisection(g)


def test_bisection_small_and_fixed_cases():
    for n in (0, 1):
        assert bisection_width_exact(Graph(n)) == reference_bisection(Graph(n))
    petersen = from_networkx(nx.petersen_graph())
    for g in (petersen, complete_graph(9), cycle_graph(11), complete_bipartite(5, 6)):
        assert bisection_width_exact(g) == reference_bisection(g)


def test_bisection_budget_flag():
    res = bisection_width_exact(complete_bipartite(3, 3), budget_n=4)
    assert not res.exact and res.value >= 5


# ---------------------------------------------------------------------------
# clique_cover_exact
# ---------------------------------------------------------------------------


def check_cover(n, s, cover):
    assert all(len(b) <= s for b in cover.blocks)
    covered = set()
    for b in cover.blocks:
        covered |= set(itertools.combinations(sorted(b), 2))
    assert covered == set(itertools.combinations(range(n), 2))


def test_clique_cover_k5_k4():
    res = clique_cover_exact(5, 4)
    assert res.exact and res.lower == res.upper == 3
    check_cover(5, 4, res.cover)


def test_clique_cover_k6_k4():
    res = clique_cover_exact(6, 4)
    assert res.exact and res.lower == res.upper == 3
    check_cover(6, 4, res.cover)


def test_clique_cover_k7_k3():
    res = clique_cover_exact(7, 3)
    assert res.exact and res.lower == res.upper == 7
    check_cover(7, 3, res.cover)


def test_clique_cover_k9_k3_steiner():
    res = clique_cover_exact(9, 3)
    assert res.exact and res.value == 12  # resolvable triple system exists
    check_cover(9, 3, res.cover)


def test_clique_cover_k9_k4_exhausts_six():
    res = clique_cover_exact(9, 4, max_value=6)
    assert res.lower == 7 and res.lower_exhaustive
    check_cover(9, 4, res.cover)  # fallback witness is still a valid cover


def test_clique_cover_tiny():
    res = clique_cover_exact(3, 3)
    assert res.exact and res.value == 1
    # two triangles on four vertices share an edge, so they cover only
    # five of the six edges: three blocks are needed
    res = clique_cover_exact(4, 3)
    assert res.exact and res.value == 3
    check_cover(4, 3, res.cover)


def test_clique_cover_budget_rejects():
    with pytest.raises(ValueError):
        clique_cover_exact(14, 3)
    with pytest.raises(ValueError):
        clique_cover_exact(11, 4)
    with pytest.raises(ValueError):
        clique_cover_exact(6, 5)


# ---------------------------------------------------------------------------
# steiner_bounds
# ---------------------------------------------------------------------------


def test_steiner_examples():
    assert steiner_bounds(7, 3) == (7, True)
    assert steiner_bounds(9, 4) == (6, False)
    assert steiner_bounds(13, 4) == (13, True)
    assert steiner_bounds(9, 3) == (12, True)
    assert steiner_bounds(6, 4) == (3, False)
    with pytest.raises(ValueError):
        steiner_bounds(7, 5)


def test_clique_cover_meets_steiner_bound():
    for n, s in ((5, 3), (6, 3), (7, 3), (9, 3), (5, 4), (6, 4), (7, 4)):
        lower, exists = steiner_bounds(n, s)
        res = clique_cover_exact(n, s)
        assert res.lower >= lower
        if exists and res.exact:
            assert res.value == lower


# ---------------------------------------------------------------------------
# cross-parameter invariants
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(small_graph_strategy())
def test_parameter_sandwich(g):
    chi = chromatic_number(g).value
    lva = lva_exact(g).value
    vt = vertex_thickness_exact(g).value
    assert chi / 2 <= lva <= chi
    assert chi / 4 <= vt <= chi
    assert vt <= -(-g.n // 4)
    if len(g.components()) == 1 and g.n >= 2:
        assert lva <= g.max_degree() // 2 + 1


def test_solvers_deterministic():
    g = from_networkx(nx.petersen_graph())
    assert chromatic_number(g) == chromatic_number(g)
    assert lva_exact(g) == lva_exact(g)
    assert treewidth_exact(g) == treewidth_exact(g)
    assert bisection_width_exact(g) == bisection_width_exact(g)
    k14 = complete_graph(14)
    res = vertex_thickness_exact(k14)
    assert res == vertex_thickness_exact(k14)
    assert res.value == 4 and res.exact
    validate_partition(k14, res.partition)
