"""Tests for the exact combinatorial solvers.

Derived-value oracles are independent brute-force enumerations written
inline here (full elimination-order sweeps, full bipartition sweeps,
direct colorability checks) so that solver answers are cross-checked
against a second route, not against themselves.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from affinecover import drawing, graphs, planar, solvers
from affinecover.bounds import bound_report
from affinecover.graphs import (
    Graph,
    balanced_multipartite,
    cartesian_product,
    caterpillar,
    complete_binary_tree,
    complete_bipartite,
    complete_graph,
    c4_prism_stack,
    cycle_graph,
    is_linear_forest,
    nested_squares,
    nested_triangles,
    parse_graph,
    path_graph,
    triangulated_square_wheel,
)
from affinecover.cli import main
from affinecover.planar import (
    _count_verdict,
    _left_right_planar,
    _reduce,
    _stacked_triangulation,
    induces_planar,
    is_planar,
    planarity_test,
    triangulations,
)
from affinecover.solvers import (
    CLIQUE_COVER_MAX_N,
    BisectionResult,
    Partition,
    _fit_classes,
    _minor_min_width,
    _greedy_elimination_width,
    _lva_feasible,
    _neighbours_by_depth,
    _stays_planar,
    _swap_search_cut,
    bisection_width_exact,
    chromatic_number,
    clique_cover_exact,
    lva_exact,
    schonheim_bound,
    steiner_bounds,
    treewidth_exact,
    validate_partition,
    vertex_thickness_exact,
)
from reference import (
    clique_cover_oracle,
    degeneracy_oracle,
    from_networkx,
    greedy_elimination_oracle,
    minor_min_width_oracle,
    pinned_triangulations,
    to_networkx,
)
from test_cli import BOUNDS_GOLDEN


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


def assert_minimum_bisection(g: Graph, res: BisectionResult) -> None:
    """``res`` has the value and flag of the plain search, and its side
    holds ⌈n/2⌉ vertices and cuts ``res.value`` edges: a minimum
    bisection, though not always the plain search's."""
    want = reference_bisection(g)
    assert (res.value, res.exact) == (want.value, want.exact)
    side = set(res.side)
    assert len(side) == (g.n + 1) // 2
    assert sum(1 for u, v in g.edges if (u in side) != (v in side)) == res.value


def reference_partition(g: Graph, joins) -> tuple:
    """The plain minimum-partition search: class counts from 1 up, each
    vertex in index order tried in the classes by index, ``joins(cls,
    v)`` deciding whether ``v`` may join the list of vertices ``cls``.
    Returns (value, classes)."""
    n = g.n
    if n == 0:
        return 0, ()
    for k in range(1, n + 1):
        members = [[] for _ in range(k)]

        def dfs(v, used):
            if v == n:
                return True
            for c in range(min(used + 1, k)):
                if joins(members[c], v):
                    members[c].append(v)
                    if dfs(v + 1, max(used, c + 1)):
                        return True
                    members[c].pop()
            return False

        if dfs(0, 0):
            return k, tuple(frozenset(c) for c in members)
    raise AssertionError("a partition into singletons always exists")


def reference_vertex_thickness(g: Graph) -> tuple:
    """The plain vertex-thickness search the pre-checks speed up: every
    class of five or more vertices tested with ``planarity_test``."""
    return reference_partition(
        g, lambda cls, v: len(cls) < 4 or planarity_test(g.induced(cls + [v])) is not None
    )


def brute_clique_number(g: Graph) -> int:
    return max(
        (len(vs) for r in range(g.n + 1) for vs in itertools.combinations(range(g.n), r)
         if all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))),
        default=0,
    )


def reference_treewidth(g: Graph) -> int:
    """Treewidth by branch and bound over elimination orders: every
    remaining vertex tried by increasing degree, each degree found by a
    search through the eliminated vertices, and a memo keyed by the
    remaining set.  The oracle for ``treewidth_exact``'s sandwich;
    ``brute_treewidth`` checks it in turn."""
    n = g.n
    if n <= 1:
        return 0
    lower = degeneracy_oracle(g)
    upper = greedy_elimination_oracle(g)
    if lower == upper:
        return lower
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
    return best


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


def density_graph_strategy(max_n, min_n=2):
    """Graphs on min_n..max_n vertices whose edges are kept with a drawn
    probability of 0.1 to 1, so dense graphs occur as often as sparse."""

    def build(n, density, seed):
        rng = random.Random(seed)
        pairs = itertools.combinations(range(n), 2)
        return Graph(n, [e for e in pairs if rng.random() < density / 10])

    return st.builds(
        build,
        st.sampled_from(range(min_n, max_n + 1)),
        st.sampled_from(range(1, 11)),
        st.integers(0, 2**32),
    )


# ---------------------------------------------------------------------------
# clique number: where the partition searches start
# ---------------------------------------------------------------------------


def test_clique_number_matches_brute_force_on_the_atlas():
    graphs = nx.graph_atlas_g()
    assert len(graphs) == 1253
    for ng in graphs:
        g = from_networkx(ng)
        assert g.search.omega == brute_clique_number(g)


@settings(max_examples=300, deadline=None)
@given(density_graph_strategy(16, min_n=0))
def test_clique_number_matches_networkx(g):
    largest = max(map(len, nx.find_cliques(to_networkx(g))), default=0)
    assert g.search.omega == largest


@pytest.mark.parametrize(
    "g", [balanced_multipartite(4, 16), complete_graph(14)], ids=["K4,4,4,4", "K14"]
)
def test_partition_searches_start_at_the_clique_bound(g, monkeypatch):
    """Each exact partition search tries ⌈ω / h⌉ classes first, h = 1,
    2, 4 for colour classes, linear forests and planar classes, and
    every count from there up to its value."""
    omega = max(map(len, nx.find_cliques(to_networkx(g))))
    tried = []
    fit_classes = solvers._fit_classes

    def spy(ctx, fits, k, forward):
        tried.append(k)
        return fit_classes(ctx, fits, k, forward)

    monkeypatch.setattr(solvers, "_fit_classes", spy)
    for search, per_class in ((chromatic_number, 1), (lva_exact, 2), (vertex_thickness_exact, 4)):
        tried.clear()
        res = search(g)
        assert res.exact
        assert tried == list(range(-(-omega // per_class), res.value + 1))


@settings(max_examples=100, deadline=None)
@given(density_graph_strategy(10, min_n=0))
def test_colour_and_forest_witnesses_match_reference(g):
    """The value and the lexicographically least classes of a search
    that tries every class count from one."""
    want = reference_partition(g, lambda cls, v: not g.adj[v] & set(cls))
    res = chromatic_number(g)
    assert (res.value, res.partition.classes) == want
    want = reference_partition(g, lambda cls, v: is_linear_forest(g, [*cls, v]))
    res = lva_exact(g)
    assert (res.value, res.partition.classes) == want


def gnp(tag: str, n: int, p: float) -> Graph:
    """A G(n, p) graph seeded by ``tag``, ``n`` and ``p``."""
    rng = random.Random(f"{tag}:{n}:{p}")
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


@pytest.mark.parametrize("n", range(14, 21))
@pytest.mark.parametrize("p", (0.2, 0.35, 0.5))
def test_colouring_matches_reference_at_bounds_sizes(n, p):
    """The sizes the `bounds` workload asks for, where the forward check
    cuts most; the hypothesis test above stops at 10 vertices."""
    g = gnp("chromatic", n, p)
    res = chromatic_number(g)
    assert (res.value, res.partition.classes) == reference_partition(
        g, lambda cls, v: not g.adj[v] & set(cls)
    )


@pytest.mark.parametrize("name, calls", [("gnp_15", (105, 60)), ("gnp_16", (1090, 250))])
def test_colouring_forward_check_cuts(name, calls):
    """The class tests a colouring search makes at the chromatic number,
    without and with the forward check: a check that cuts less than
    this (or more) shows here, though it leaves every result alone."""
    g = parse_graph(BOUNDS_GOLDEN[name][1].encode("ascii"), "graph6")
    rows = g.search.rows
    k = chromatic_number(g).value
    counts = []
    for check in (None, "colour"):
        tests = 0

        def fits(cls, v):
            nonlocal tests
            tests += 1
            return not rows[v] & cls

        classes, _ = _fit_classes(g.search, fits, k, check)
        assert [frozenset(v for v in range(g.n) if c >> v & 1) for c in classes] == [
            *chromatic_number(g).partition.classes
        ]
        counts.append(tests)
    assert tuple(counts) == calls


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


@pytest.mark.parametrize(
    "g, classes, kind, message",
    [
        (Graph(3), [{0, 1}, {1, 2}], "chromatic", "overlap"),
        (Graph(3), [{0}, {1}], "chromatic", "do not cover"),
        (path_graph(3), [{0, 1}, {2}], "chromatic", "not independent"),
        (cycle_graph(4), [range(4)], "lva", "linear forest"),
        (complete_bipartite(1, 3), [range(4)], "lva", "linear forest"),
        (complete_graph(5), [range(5)], "vertex_thickness", "planar"),
    ],
)
def test_validate_partition_rejects(g, classes, kind, message):
    part = Partition(tuple(frozenset(c) for c in classes), kind)
    with pytest.raises(ValueError, match=message):
        validate_partition(g, part)


def test_partition_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown partition kind"):
        Partition((frozenset({0}),), "proper_coloring")


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


def test_lva_with_colouring_matches_lva_without_on_the_atlas():
    """Handed an exact colouring, the linear-forest search starts at
    ⌈χ/2⌉ classes when that beats ⌈ω/2⌉; the counts it skips are
    infeasible, so the value and the classes are those of the search
    without it."""
    graphs = nx.graph_atlas_g()[1:]
    assert len(graphs) == 1252
    raised = 0
    for ng in graphs:
        g = from_networkx(ng)
        colouring = chromatic_number(g)
        plain, floored = lva_exact(g), lva_exact(g, _colouring=colouring)
        assert floored.exact and (floored.value, floored.partition) == (
            plain.value, plain.partition
        )
        raised += colouring.value > g.search.omega + (g.search.omega & 1)
    assert raised > 0  # some graph starts higher with the colouring


@pytest.mark.parametrize(
    "ng, start",
    [
        (nx.cycle_graph(5), 2),
        (nx.mycielski_graph(4), 2),
        (nx.full_join(nx.cycle_graph(5), nx.cycle_graph(5), rename=("a", "b")), 3),
    ],
    ids=["C5", "Groetzsch", "C5+C5"],
)
def test_lva_starts_at_half_the_chromatic_number(ng, start, monkeypatch):
    """χ = 3, 4 and 6 against ω = 2, 2 and 4: only an exact colouring
    raises the first class count tried above ⌈ω/2⌉ to ⌈χ/2⌉."""
    g = from_networkx(nx.convert_node_labels_to_integers(ng))
    tried = []
    fit_classes = solvers._fit_classes

    def spy(ctx, fits, k, forward):
        tried.append(k)
        return fit_classes(ctx, fits, k, forward)

    monkeypatch.setattr(solvers, "_fit_classes", spy)
    colouring = chromatic_number(g)
    assert colouring.exact and -(-colouring.value // 2) == start > -(-g.search.omega // 2)
    tried.clear()
    res = lva_exact(g, _colouring=colouring)
    assert tried == list(range(start, res.value + 1))
    inexact = chromatic_number(g, budget_n=0)
    assert not inexact.exact
    tried.clear()
    assert lva_exact(g, _colouring=inexact) == res
    assert tried[0] == -(-g.search.omega // 2)


def forest_reference(g: Graph) -> tuple:
    return reference_partition(g, lambda cls, v: is_linear_forest(g, [*cls, v]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(density_graph_strategy(12, min_n=4))
def test_forest_forward_check_matches_reference_on_twin_free_graphs(g):
    """Without twins only the forward check cuts the linear-forest
    search, so this compares it alone with the plain search."""
    assume(not any(g.search.twin))
    res = lva_exact(g)
    assert res.exact and (res.value, res.partition.classes) == forest_reference(g)


def planted_hubs(n: int, density: int, seed: int, hubs: int) -> Graph:
    """A random graph on vertices 0..n-1 and, after them, ``hubs``
    vertices each joined to about 85% of the vertices before it: a hub
    meets most classes in three or more vertices, so the forward check
    blocks it from them."""
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density / 10]
    for h in range(n, n + hubs):
        edges += [(u, h) for u in range(h) if rng.random() < 0.85]
    return Graph(n + hubs, edges)


@settings(max_examples=150, deadline=None)
@given(st.builds(planted_hubs, st.integers(4, 9), st.integers(2, 10), st.integers(0, 2**32), st.integers(1, 3)))
def test_forest_forward_check_matches_reference_with_planted_hubs(g):
    res = lva_exact(g)
    assert res.exact and (res.value, res.partition.classes) == forest_reference(g)


def test_forest_forward_check_fires():
    """On graphs with planted hubs the checked search ends as the
    unchecked one does, at the value and one below it, and below it,
    where there is no leaf to find, the check cuts on every graph."""
    for seed in range(20):
        g = planted_hubs(9, 4, seed, 2)
        ctx = g.search
        fits = _lva_feasible(ctx.rows)
        k = lva_exact(g).value
        nodes = {}
        for classes in (k - 1, k):
            plain, plain_nodes = _fit_classes(ctx, fits, classes, None)
            checked, checked_nodes = _fit_classes(ctx, fits, classes, "forest")
            assert checked == plain
            nodes[classes] = checked_nodes, plain_nodes
        assert nodes[k][0] <= nodes[k][1]
        assert nodes[k - 1][0] < nodes[k - 1][1], seed


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
    asked, full = [], []

    def counting_induces_planar(rows, verts):
        asked.append(verts)
        return induces_planar(rows, verts)

    def counting_left_right(nbrs):
        full.append(len(nbrs))
        return _left_right_planar(nbrs)

    # the rook's graph K4 x K3 has classes that reduce to seven or more
    # vertices, so they reach the left-right test, and its search asks
    # about some of those vertex sets twice
    monkeypatch.setattr(solvers, "induces_planar", counting_induces_planar)
    monkeypatch.setattr(planar, "_left_right_planar", counting_left_right)
    g = cartesian_product(complete_graph(4), complete_graph(3))
    res = vertex_thickness_exact(g)
    assert res.value == 2 and res.exact
    assert asked and len(asked) == len(set(asked))
    assert full and min(full) >= 7


def test_solvers_make_no_networkx_planarity_call(monkeypatch, capsys):
    calls = []
    check_planarity = nx.check_planarity

    def counting(h, *args, **kwargs):
        calls.append(h)
        return check_planarity(h, *args, **kwargs)

    triangulated = pinned_triangulations()  # built with planarity_test, so first
    monkeypatch.setattr(nx, "check_planarity", counting)
    g = balanced_multipartite(4, 16)
    assert vertex_thickness_exact(g).value == 3
    pi23 = bound_report(g)["pi23"]
    assert pi23.lower == pi23.upper == 3
    assert calls == []
    # K4,6 is non-planar with 3n - 6 edges; the octahedron K2,2,2 and the
    # pinned triangulations are planar triangulations, whose dual bound
    # needs no embedding either
    for h in (complete_bipartite(4, 6), balanced_multipartite(3, 6), *triangulated):
        bound_report(h)
    assert calls == []
    for name, args in BOUNDS_GOLDEN.items():
        assert main(["bounds", *args]) == 0
        assert calls == [], name
    capsys.readouterr()


def test_partition_solvers_build_bit_rows_once_within_budget(monkeypatch):
    """The bit rows of a graph are built once, with its ``Graph.search``
    context, and shared by every exact search on it: the clique floor,
    the class tests, the twins and the bisection.  A search over its
    budget builds none."""
    built = []
    bit_rows = graphs._bit_rows

    def counting(g):
        built.append(g.n)
        return bit_rows(g)

    monkeypatch.setattr(graphs, "_bit_rows", counting)
    solves = (chromatic_number, lva_exact, vertex_thickness_exact, bisection_width_exact)
    g = gnp("rows", 12, 0.4)
    for solve in solves:
        assert not solve(g, budget_n=11).exact
    assert built == []
    for solve in solves:
        assert solve(g).exact
        assert built == [12], solve.__name__
    # the context lives on the graph: an equal graph builds its own
    assert bisection_width_exact(gnp("rows", 12, 0.4)).exact
    assert built == [12, 12]


@pytest.mark.parametrize(
    "modules, loaded",
    [("affinecover.certio, affinecover.export", False), ("affinecover.cli", True)],
)
def test_networkx_is_imported_through_planar_only(modules, loaded):
    # the certificate modules never load networkx; the CLI loads it at
    # import, through planar, which the startup benchmark times
    src = Path(solvers.__file__).resolve().parents[1]
    code = f"import sys, {modules}; print('networkx' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.strip() == str(loaded)


def adjacency(g: Graph) -> dict:
    return {u: set(g.adj[u]) for u in range(g.n)}


def graph_of(adj: dict) -> Graph:
    idx = {u: i for i, u in enumerate(sorted(adj))}
    return Graph(len(idx), [(idx[u], idx[w]) for u in adj for w in adj[u]])


def neighbour_lists(g: Graph) -> list:
    return [sorted(nb) for nb in g.adj]


def bit_adjacency(g: Graph) -> dict:
    """Vertex -> neighbours as a bitmask, the form ``_reduce`` works on."""
    return {u: sum(1 << w for w in g.adj[u]) for u in range(g.n)}


def reduced(g: Graph) -> tuple:
    """``_reduce`` on the whole of ``g``: what is left and its edge count."""
    nb = bit_adjacency(g)
    return nb, _reduce(nb, g.m)


def as_sets(nb: dict) -> dict:
    return {u: {w for w in range(r.bit_length()) if r >> w & 1} for u, r in nb.items()}


def check_planarity_prechecks(g: Graph, planar: bool) -> None:
    assert is_planar(adjacency(g)) == planar
    assert induces_planar(g.search.rows, (1 << g.n) - 1) == planar
    assert (_left_right_planar(neighbour_lists(g)) is not None) == planar
    assert _count_verdict(g.n, g.m) in (None, planar)
    nb, m = reduced(g)
    left = as_sets(nb)
    assert all(len(ws) >= 3 and u not in ws for u, ws in left.items())
    assert all(u in left[w] for u, ws in left.items() for w in ws)
    assert m == sum(map(len, left.values())) // 2  # the running count
    assert (planarity_test(graph_of(left)) is not None) == planar
    assert _count_verdict(len(nb), m) in (None, planar)
    tested: dict = {}
    rows = g.search.rows
    for v in range(g.n):
        rest = set(range(g.n)) - {v}
        if planarity_test(g.induced(rest)) is not None:
            mask = (1 << g.n) - 1 & ~(1 << v)
            assert _stays_planar(rows, mask, v, tested) == planar


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
    assert reduced(HARD_CASES["triangle with a pendant path"][0]) == ({}, 0)
    # suppressing the midpoints gives K4 with every edge doubled: a
    # reduction that counted the parallel edges would find 12 > 3*4 - 6
    # and call this planar graph non-planar
    assert reduced(K4_DOUBLED) == (bit_adjacency(complete_graph(4)), 6)
    assert _count_verdict(4, 6) is True
    # subdivisions reduce to their branch graphs
    assert reduced(HARD_CASES["K5 subdivided twice"][0]) == (bit_adjacency(K5), 10)
    assert _count_verdict(5, 10) is False
    assert reduced(HARD_CASES["K3,3 subdivided twice"][0]) == (bit_adjacency(K33), 9)
    assert _count_verdict(6, 9) is None  # left to planarity_test
    assert reduced(HARD_CASES["K3,3 with pendant paths"][0]) == (bit_adjacency(K33), 9)


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


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graph_strategy(6), density_graph_strategy(16, min_n=7)))
def test_is_planar_matches_networkx_small(g):
    # graphs on 7 to 16 vertices are the ones whose reduction can leave
    # seven or more vertices for the left-right test
    expected = nx_planar(g)
    assert is_planar(adjacency(g)) == expected
    assert (_left_right_planar(neighbour_lists(g)) is not None) == expected


@settings(max_examples=300, deadline=None)
@given(density_graph_strategy(16, min_n=0), st.integers(0, 2**16 - 1))
def test_induces_planar_matches_planarity_test_on_induced_subsets(g, mask):
    """The bit-row core on a random vertex subset against an embedding
    of the induced subgraph."""
    verts = mask & (1 << g.n) - 1
    members = [u for u in range(g.n) if verts >> u & 1]
    want = planarity_test(g.induced(members)) is not None
    assert induces_planar(g.search.rows, verts) == want


def test_left_right_matches_networkx_on_the_atlas():
    graphs = nx.graph_atlas_g()
    assert len(graphs) == 1253
    for ng in graphs:
        g = from_networkx(ng)
        expected = nx.check_planarity(ng)[0]
        assert (_left_right_planar(neighbour_lists(g)) is not None) == expected
        assert is_planar(adjacency(g)) == expected


def test_left_right_rejects_triangulations_plus_an_edge():
    checked = 0
    for n in range(5, 10):
        for t in triangulations(n):
            assert _left_right_planar(neighbour_lists(t)) is not None
            for e in itertools.combinations(range(n), 2):
                if not t.has_edge(*e):
                    h = Graph(n, [*t.edges, e])
                    assert _left_right_planar(neighbour_lists(h)) is None
                    assert not nx_planar(h)
                    checked += 1
    assert checked == 927


def test_left_right_on_a_deep_graph():
    # 6,000 vertices: a recursive depth-first search would pass the
    # interpreter's recursion limit
    g = nested_triangles(2000)
    assert g.n == 6000
    k33 = subdivide(K33, 1)
    h = Graph(g.n + k33.n, [*g.edges, *((u + g.n, v + g.n) for u, v in k33.edges)])
    assert is_planar(adjacency(g)) is nx_planar(g) is True
    assert is_planar(adjacency(h)) is nx_planar(h) is False


def test_stays_planar_decides_by_reduction(monkeypatch):
    def refuse(nbrs):
        raise AssertionError("left-right test called on a reducible set")

    monkeypatch.setattr(planar, "_left_right_planar", refuse)
    for name in ("K5 subdivided twice", "K4 with every edge doubled by a 2-path"):
        g, planar_ = HARD_CASES[name]
        # the last vertex subdivides an edge; the rest of the graph is planar
        rest = (1 << g.n - 1) - 1
        assert _stays_planar(g.search.rows, rest, g.n - 1, {}) == planar_


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


def assert_sandwiches(g: Graph, tw: int) -> None:
    """``treewidth_exact(g)`` holds the treewidth ``tw`` between its
    bounds, and is exact just when they meet."""
    res = treewidth_exact(g)
    assert res.lower <= tw <= res.upper
    assert res.exact == (res.lower == res.upper)


def test_treewidth_budget_pair():
    """Graphs of 24 to 36 vertices: the minor-min-width floor runs at
    every size, closes the sandwiches of the nested squares and the C4
    prism stack, and leaves the grid an honest inexact pair."""
    for g, want in (
        (nested_squares(6), (3, 3, True)),
        (c4_prism_stack(6), (4, 4, True)),
        (cartesian_product(path_graph(6), path_graph(6)), (4, 6, False)),  # treewidth 6
    ):
        res = treewidth_exact(g)
        assert (res.lower, res.upper, res.exact) == want


@settings(max_examples=25, deadline=None)
@given(small_graph_strategy(7))
def test_treewidth_matches_brute_force(g):
    tw = brute_treewidth(g)
    assert reference_treewidth(g) == tw
    assert_sandwiches(g, tw)


@settings(max_examples=200, deadline=None)
@given(density_graph_strategy(12))
def test_treewidth_matches_reference(g):
    assert_sandwiches(g, reference_treewidth(g))


@settings(max_examples=300, deadline=None)
@given(density_graph_strategy(40))
def test_treewidth_sandwich_heaps_match_scans(g):
    assert _minor_min_width(g) == minor_min_width_oracle(g) >= degeneracy_oracle(g)
    assert _greedy_elimination_width(g) == greedy_elimination_oracle(g)


def test_treewidth_fixed_cases_match_reference():
    """The sandwich and the treewidth on fixed graphs: a floor that
    weakens or a greedy width that grows moves a pinned number."""
    petersen = from_networkx(nx.petersen_graph())
    for g, sandwich, tw in (
        (petersen, (3, 4, False), 4),
        (cartesian_product(path_graph(4), path_graph(4)), (4, 4, True), 4),
        (cartesian_product(complete_graph(4), complete_graph(3)), (5, 7, False), 7),
        (triangulated_square_wheel(), (3, 3, True), 3),
        (complete_bipartite(4, 5), (4, 4, True), 4),
    ):
        res = treewidth_exact(g)
        assert (res.lower, res.upper, res.exact) == sandwich
        assert reference_treewidth(g) == tw


@settings(max_examples=200, deadline=None)
@given(density_graph_strategy(12))
def test_minor_min_width_is_a_treewidth_lower_bound(g):
    assert _minor_min_width(g) <= reference_treewidth(g)


@pytest.mark.parametrize("n", range(13, 19))
@pytest.mark.parametrize("p", (0.2, 0.35, 0.5))
def test_treewidth_matches_reference_at_bounds_sizes(n, p):
    """The sizes the `bounds` workload asks for; the hypothesis test
    above stops at 12 vertices."""
    g = gnp("treewidth", n, p)
    assert_sandwiches(g, reference_treewidth(g))


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
    assert_minimum_bisection(g, bisection_width_exact(g))


def test_bisection_small_and_fixed_cases():
    """Values, witnesses and the search nodes: a completion bound that
    weakens moves a pinned count, though it leaves every result alone."""
    for n in (0, 1):
        assert bisection_width_exact(Graph(n)) == reference_bisection(Graph(n))
    petersen = from_networkx(nx.petersen_graph())
    for g, nodes in (
        (petersen, 36),
        (complete_graph(9), 1),
        (cycle_graph(11), 41),
        (complete_bipartite(5, 6), 22),
    ):
        res = bisection_width_exact(g)
        assert_minimum_bisection(g, res)
        assert res.nodes == nodes


@pytest.mark.parametrize("n", range(14, 21))
@pytest.mark.parametrize("p", (0.2, 0.35, 0.5, 0.7, 0.8))
def test_bisection_matches_reference_at_bounds_sizes(n, p):
    """The sizes the `bounds` workload asks for, where the capacity bound
    and the forced completion prune most; the hypothesis test above
    stops at 12 vertices.  The search orders by falling degree up to
    density ½ and by rising degree above it, so both orders meet the
    reference here."""
    g = gnp("bisection", n, p)
    assert_minimum_bisection(g, bisection_width_exact(g))


def swap_cut(g: Graph) -> tuple:
    """The cut ``_swap_search_cut`` reaches from the index-prefix split,
    and the side A it reaches."""
    size_a = (g.n + 1) // 2
    prefix_cut = sum(1 for u, v in g.edges if (u < size_a) != (v < size_a))
    return _swap_search_cut(g.search.rows, (1 << size_a) - 1, prefix_cut)


@pytest.mark.parametrize("n", range(15, 21))
@pytest.mark.parametrize("p", (0.4, 0.5))
def test_bisection_witness_matches_reference_under_relabelling(n, p):
    """The search relabels by degree, ties by index, so the witness can
    move with the labels: under seeded relabellings of one G(n, p)
    graph the value is the plain search's and the side is a minimum
    bisection.  The swap search's cut lies between the optimum and the
    prefix split's cut."""
    base = gnp("relabel", n, p)
    for seed in range(4):
        perm = random.Random(f"relabel:{n}:{p}:{seed}").sample(range(n), n)
        g = Graph(n, [(perm[u], perm[v]) for u, v in base.edges])
        res = bisection_width_exact(g)
        assert_minimum_bisection(g, res)
        size_a = (n + 1) // 2
        prefix_cut = sum(1 for u, v in g.edges if (u < size_a) != (v < size_a))
        assert res.value <= swap_cut(g)[0] <= prefix_cut


@settings(max_examples=200, deadline=None)
@given(density_graph_strategy(12))
def test_swap_search_cut_is_never_below_the_bisection_width(g):
    """The swap search returns a bisection and the cut it has."""
    cut, a = swap_cut(g)
    assert cut >= brute_bisection(g)
    assert a.bit_count() == (g.n + 1) // 2
    assert sum(1 for u, v in g.edges if (a >> u & 1) != (a >> v & 1)) == cut


def reference_neighbours_by_depth(rows: list) -> list:
    """The per-depth neighbour lists, built one depth at a time: the
    later vertices with a placed neighbour in index order, then the
    unplaced-neighbour counts of the others sorted from most to fewest."""
    nbrs_at = []
    for v in range(len(rows) + 1):
        later = [(ru & (1 << v) - 1, (ru >> v).bit_count() + 1) for ru in rows[v:] if ru]
        placed = [(nb, 2 * nb.bit_count(), up) for nb, up in later if nb]
        ups = sorted((up for nb, up in later if not nb), reverse=True)
        nbrs_at.append((placed, ups))
    return nbrs_at


@settings(max_examples=100, deadline=None)
@given(density_graph_strategy(16, min_n=0))
def test_neighbours_by_depth_keeps_the_order_the_breaks_read(g):
    """Every later vertex with a neighbour is listed once per depth, the
    ones with a placed neighbour apart from the others, whose counts
    fall: the bound leaves the second list at the first count that fits
    both sides, and the forced completion reads only the first."""
    rows = g.search.rows
    assert _neighbours_by_depth(rows) == reference_neighbours_by_depth(rows)


def test_bisection_budget_flag():
    res = bisection_width_exact(complete_bipartite(3, 3), budget_n=4)
    assert not res.exact and res.value >= 5


# ---------------------------------------------------------------------------
# twin symmetry: the cuts keep every value and witness
# ---------------------------------------------------------------------------


def brute_twins(g: Graph) -> tuple:
    """For each vertex w, the bit of the latest u < w with the same
    neighbours apart from each other, by comparing every pair."""
    return tuple(
        max((1 << u for u in range(w) if g.adj[u] - {w} == g.adj[w] - {u}), default=0)
        for w in range(g.n)
    )


def twin_graph_strategy(max_base=8, max_plants=4):
    """Random graphs with planted twins: each plant copies a random
    vertex's neighbours onto a new vertex, joined to it (true twins) or
    not (false twins), and the result is randomly relabelled."""

    def build(n, density, seed, plants):
        rng = random.Random(seed)
        adj = {v: set() for v in range(n)}
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < density / 10:
                adj[u].add(v)
                adj[v].add(u)
        for true_twin in plants:
            u, w = rng.randrange(len(adj)), len(adj)
            adj[w] = set(adj[u]) | ({u} if true_twin else set())
            for x in adj[w]:
                adj[x].add(w)
        perm = rng.sample(range(len(adj)), len(adj))
        return Graph(len(adj), [(perm[u], perm[w]) for u in adj for w in adj[u] if u < w])

    return st.builds(
        build,
        st.integers(1, max_base),
        st.integers(0, 10),
        st.integers(0, 2**32),
        st.lists(st.booleans(), max_size=max_plants),
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(twin_graph_strategy(), density_graph_strategy(16, min_n=0)))
def test_twin_scan_finds_every_twin_and_only_automorphisms(g):
    twin = g.search.twin
    assert twin == brute_twins(g)
    for w, bit in enumerate(twin):
        if bit:
            u = bit.bit_length() - 1
            swap = {u: w, w: u}
            image = {tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in g.edges}
            assert image == g.edges


def assert_searches_match_references(g: Graph) -> None:
    """All four twin-cut searches return the value of the plain
    searches, which use no symmetry, and the three partition searches
    also their witness; the bisection's is a minimum bisection."""
    for res, want in (
        (chromatic_number(g), reference_partition(g, lambda cls, v: not g.adj[v] & set(cls))),
        (lva_exact(g), reference_partition(g, lambda cls, v: is_linear_forest(g, [*cls, v]))),
        (vertex_thickness_exact(g), reference_vertex_thickness(g)),
    ):
        assert res.exact and (res.value, res.partition.classes) == want
    assert_minimum_bisection(g, bisection_width_exact(g))


def twin_rich_families() -> dict:
    """Complete multipartite graphs, K_{p,q}, complete graphs, complete
    binary trees and caterpillars on at most 16 vertices, the size up
    to which every search is exact.  Past 14 vertices only graphs with
    at most four parts come in: on more, the plain planar search takes
    seconds."""
    out = {f"multipartite:{r},{n}": balanced_multipartite(r, n)
           for r in range(2, 9) for n in range(r, 17) if n <= 14 or r <= 4}
    out |= {f"complete_bipartite:{p},{q}": complete_bipartite(p, q)
            for p in range(1, 9) for q in range(p, 17 - p)}
    out |= {f"complete:{n}": complete_graph(n) for n in range(1, 13)}
    out |= {f"complete_binary_tree:{h}": complete_binary_tree(h) for h in range(4)}
    for spine in range(1, 6):
        for counts in itertools.product(range(4), repeat=spine):
            if spine + sum(counts) <= 16 and (spine < 4 or len(set(counts)) <= 2):
                out[f"caterpillar:{spine},{','.join(map(str, counts))}"] = caterpillar(spine, counts)
    return out


def test_twin_cuts_keep_values_and_witnesses_on_families():
    families = twin_rich_families()
    assert len(families) >= 300
    for name, g in families.items():
        try:
            assert_searches_match_references(g)
        except AssertionError as exc:
            raise AssertionError(name) from exc


@settings(max_examples=150, deadline=None)
@given(twin_graph_strategy())
def test_twin_cuts_keep_values_and_witnesses_with_planted_twins(g):
    assert any(g.search.twin) or g.n <= 8
    assert_searches_match_references(g)


def test_twin_cuts_on_k4444():
    """The search nodes of the four searches on K4,4,4,4, over every
    class count tried: a twin cut that weakens moves a pinned count,
    though it leaves every result alone."""
    g = balanced_multipartite(4, 16)
    results = (chromatic_number(g), lva_exact(g), vertex_thickness_exact(g), bisection_width_exact(g))
    assert [res.value for res in results] == [4, 4, 3, 48]
    assert [res.nodes for res in results] == [17, 154, 139, 103]
    assert vertex_thickness_exact(g, budget_n=15).nodes == 0


# ---------------------------------------------------------------------------
# clique_cover_exact
# ---------------------------------------------------------------------------


def check_cover(n, s, blocks):
    assert all(len(b) <= s for b in blocks)
    covered = set()
    for b in blocks:
        covered |= set(itertools.combinations(sorted(b), 2))
    assert covered == set(itertools.combinations(range(n), 2))


def test_clique_cover_k5_k4():
    res = clique_cover_exact(5, 4)
    assert res.exact and res.lower == res.upper == 3
    check_cover(5, 4, res.blocks)


def test_clique_cover_k6_k4():
    res = clique_cover_exact(6, 4)
    assert res.exact and res.lower == res.upper == 3
    check_cover(6, 4, res.blocks)


def test_clique_cover_k7_k3():
    res = clique_cover_exact(7, 3)
    assert res.exact and res.lower == res.upper == 7
    check_cover(7, 3, res.blocks)


def test_clique_cover_k9_k3_steiner():
    res = clique_cover_exact(9, 3)
    assert res.exact and res.value == 12  # resolvable triple system exists
    check_cover(9, 3, res.blocks)


def test_clique_cover_tiny():
    res = clique_cover_exact(3, 3)
    assert res.exact and res.value == 1
    # two triangles on four vertices share an edge, so they cover only
    # five of the six edges: three blocks are needed
    res = clique_cover_exact(4, 3)
    assert res.exact and res.value == 3
    check_cover(4, 3, res.blocks)


#: The covers whose oracle search ends at its node cap (about 5 s on
#: each), with the fields ``clique_cover_exact`` returns: (10, 3) meets
#: Schönheim's bound of 17, and (12, 3) stops at the set-cover node cap
#: with Schönheim's 24 proven.
CAPPED_CLIQUE_COVERS = {(10, 3): (17, 17, True), (12, 3): (24, 26, False)}


@pytest.mark.parametrize(
    "n, s", [(n, s) for s, top in CLIQUE_COVER_MAX_N.items() for n in range(top + 1)]
)
def test_clique_cover_matches_oracle(n, s):
    res = clique_cover_exact(n, s)
    check_cover(n, s, res.blocks)
    fields = (res.lower, res.upper, res.exact)
    if (n, s) in CAPPED_CLIQUE_COVERS:
        assert fields == CAPPED_CLIQUE_COVERS[n, s]
    else:
        assert fields == clique_cover_oracle(n, s)[:3]


def test_clique_cover_node_cap_keeps_a_proven_interval(monkeypatch):
    monkeypatch.setattr(drawing, "SET_COVER_NODE_CAP", 100)
    # the minimum is 9 and Schönheim's bound 8, so the search must run
    res = clique_cover_exact(10, 4)
    assert not res.exact and steiner_bounds(10, 4)[0] <= res.lower <= 9 <= res.upper
    assert res.blocks == clique_cover_oracle(10, 4, node_cap=0)[3]


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


@pytest.mark.parametrize(
    "n, s", [(n, s) for s, top in CLIQUE_COVER_MAX_N.items() for n in range(2, top + 1)]
)
def test_schonheim_bound_against_oracle(n, s):
    """Schönheim's bound never passes the cover number, and meets it for
    triangles (Fort & Hedlund)."""
    bound = schonheim_bound(n, s)
    assert bound >= steiner_bounds(n, s)[0]
    if (n, s) in CAPPED_CLIQUE_COVERS:
        # the oracle stops at its node cap here; a checked cover bounds the value
        res = clique_cover_exact(n, s)
        check_cover(n, s, res.blocks)
        assert bound <= res.upper
        return
    _, upper, exact, *_ = clique_cover_oracle(n, s)
    assert exact and bound <= upper
    if s == 3:
        assert bound == upper


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
