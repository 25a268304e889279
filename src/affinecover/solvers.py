"""Exact small-instance solvers for cover-related graph parameters.

All searches are deterministic branch-and-bound with lexicographic
tie-breaking (lowest-index vertex assigned first, lowest-index class
preferred; the bisection search first relabels the vertices by
degree), so witnesses are stable across runs.  Exceeding a search
budget never silently yields a wrong exact value: every result carries
an ``exact`` flag and fallbacks are valid one-sided bounds.  Clique
covers are set covers, searched by ``drawing.exact_set_cover``.

The partition and bisection searches read one ``Graph.search`` context
per graph (bit rows, clique number, twins; the bisection takes the
twins of its degree-relabelled rows) and break twin symmetry.
Swapping two twins u < w is an automorphism, and every class test here
is invariant under automorphisms.  So a leaf that puts w in a lower
class or side than u maps to a valid leaf, which agrees with it before
u and puts u lower: once classes are renumbered by first use it comes
earlier in the search order.  The first leaf (or the first optimal one)
therefore keeps u no higher than w, and a search that cuts every other
leaf returns the same value and witness.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from .drawing import exact_set_cover
from .graphs import Graph, SearchContext, _twins, is_linear_forest, to_graph6
from .planar import induces_planar, planarity_test, triangulations

__all__ = [
    "Partition",
    "PartitionResult",
    "TreewidthResult",
    "BisectionResult",
    "CliqueCoverResult",
    "validate_partition",
    "chromatic_number",
    "lva_exact",
    "lva_sweep",
    "vertex_thickness_exact",
    "treewidth_exact",
    "bisection_width_exact",
    "clique_cover_exact",
    "schonheim_bound",
    "steiner_bounds",
    "DEFAULT_BUDGETS",
    "CLIQUE_COVER_MAX_N",
]

DEFAULT_BUDGETS = {
    "chromatic": 24,
    "lva": 20,
    "vertex_thickness": 16,
    "bisection": 20,
}

CLIQUE_COVER_MAX_N = {3: 13, 4: 10}


@dataclass(frozen=True)
class Partition:
    """Ordered partition of the vertex set with a certified class predicate."""

    classes: tuple[frozenset, ...]
    certifies: str

    def __post_init__(self):
        if self.certifies not in _CLASS_TESTS:
            raise ValueError(f"unknown partition kind {self.certifies!r}")


@dataclass(frozen=True)
class PartitionResult:
    value: int
    partition: Partition
    exact: bool
    nodes: int = field(default=0, compare=False)  # search nodes over every class count tried


@dataclass(frozen=True)
class TreewidthResult:
    lower: int
    upper: int
    exact: bool

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("treewidth not solved exactly; use .lower/.upper")
        return self.upper


@dataclass(frozen=True)
class BisectionResult:
    value: int
    exact: bool
    side: tuple  # the ⌈n/2⌉ side of a split cutting ``value`` edges; no rule reads it
    nodes: int = field(default=0, compare=False)  # search nodes visited


@dataclass(frozen=True)
class CliqueCoverResult:
    """Bounds on the fewest blocks covering K_n; ``blocks`` has ``upper``."""

    lower: int
    upper: int
    blocks: tuple[tuple, ...]
    exact: bool

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("cover number not solved exactly; use .lower/.upper")
        return self.lower


#: Each partition kind's class test, the error it raises and the
#: most vertices of one clique a class can hold: one in an independent
#: set, two in a linear forest (three make a triangle), four in a planar
#: graph (K5 is not planar).  A kind names its vertex budget in
#: ``DEFAULT_BUDGETS`` too.
_CLASS_TESTS = {
    "chromatic": (
        lambda g, cls: not any(g.adj[v] & cls for v in cls),
        "coloring class is not independent",
        1,
    ),
    "lva": (is_linear_forest, "class does not induce a linear forest", 2),
    "vertex_thickness": (
        lambda g, cls: planarity_test(g.induced(cls)) is not None,
        "class does not induce a planar subgraph",
        4,
    ),
}


def validate_partition(g: Graph, p: Partition) -> None:
    """Re-check that ``p`` partitions V(g) and each class satisfies its
    certified predicate; raise ``ValueError`` otherwise."""
    seen: set = set()
    for cls in p.classes:
        if cls & seen:
            raise ValueError("partition classes overlap")
        seen |= cls
    if seen != set(range(g.n)):
        raise ValueError("partition classes do not cover the vertex set")
    test, message, _ = _CLASS_TESTS[p.certifies]
    for cls in p.classes:
        if not test(g, cls):
            raise ValueError(message)


# ---------------------------------------------------------------------------
# generic minimum-partition search
# ---------------------------------------------------------------------------


def _fit_classes(
    ctx: SearchContext, fits: Callable[[int, int], bool], k: int, forward: str | None
) -> tuple:
    """The lexicographically least way to put the vertices of the graph
    of ``ctx``, in index order, into k classes kept feasible by
    ``fits``, as vertex bitmasks (None if there is none), and the search
    nodes visited.

    A vertex with an earlier twin (``ctx.twin``) tries the classes from
    its twin's on.  A leaf that puts it lower maps, by the swap of the
    two, to a leaf that puts the twin lower and agrees with it before
    the twin; renumbered by first use, that leaf comes first in the
    search order, so the cut never loses the first leaf.

    ``forward`` names a forward check for the kind of class: each class
    keeps the vertices it blocks, and a branch ends once some later
    vertex is blocked by every class.  Classes only grow, and so do the
    sets they block, so that vertex can never join one and the branch
    holds no leaf; the first leaf and its classes are those of the
    search without the check.  A class not yet opened blocks nothing,
    so the check can cut only once all k classes are open.

    * ``"colour"``: a colour class blocks its members' neighbours.
    * ``"forest"``: a linear-forest class blocks a vertex with three
      neighbours in it, and every neighbour of a member with two
      neighbours in it (an inner vertex of a path, which one more
      neighbour would give degree 3).  The class keeps the vertices
      with at least one and with at least two neighbours in it, a
      count cut off at two in two bitmasks.
    """
    rows, twin = ctx.rows, ctx.twin
    n = len(rows)
    classes = [0] * k
    blocked = [0] * k  # later vertices each class blocks, kept only with a check
    one = [0] * k  # "forest": vertices with a neighbour in the class
    two = [0] * k  # "forest": vertices with two or more
    colour = forward == "colour"
    nodes = 0

    def dfs(v: int, used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if v == n:
            return True
        first = 0
        tw = twin[v]
        if tw:
            while not classes[first] & tw:
                first += 1
        for c in range(first, min(used + 1, k)):
            cls = classes[c]
            if fits(cls, v):
                classes[c] = cls | 1 << v
                if forward is None:
                    if dfs(v + 1, max(used, c + 1)):
                        return True
                else:
                    before = blocked[c]
                    rv = rows[v]
                    if colour:
                        blocked[c] = before | rv
                    else:
                        ones, twos = one[c], two[c]
                        one[c] = ones | rv
                        two[c] = twos | ones & rv
                        # vertices v gives a third neighbour, then the
                        # neighbours of the members v gives a second and
                        # of v itself if it has two
                        block = before | twos & rv
                        inner = ones & rv & cls
                        if (rv & cls).bit_count() == 2:
                            inner |= 1 << v
                        while inner:
                            low = inner & -inner
                            inner ^= low
                            block |= rows[low.bit_length() - 1]
                        blocked[c] = block
                    stuck = -2 << v  # later vertices every class blocks
                    for mask in blocked:
                        stuck &= mask
                        if not stuck:
                            break
                    if not stuck and dfs(v + 1, max(used, c + 1)):
                        return True
                    blocked[c] = before
                    if not colour:
                        one[c], two[c] = ones, twos
                classes[c] = cls
        return False

    return (classes if dfs(0, 0) else None), nodes


def _min_partition(
    ctx: SearchContext, fits: Callable[[int, int], bool], start: int, forward: str | None
) -> tuple:
    """The fewest classes, each kept feasible as the vertices join it in
    index order, as the lexicographically least witness in vertex
    bitmasks, and the search nodes over every class count tried.

    ``fits(cls, v)`` decides whether vertex ``v`` may join the class
    with bitmask ``cls``.  Class counts are tried upward from ``start``
    (one at least), which must be at most the optimum: the counts below
    it are infeasible, so skipping them leaves the first feasible count
    and its witness unchanged.  ``forward`` names the forward check of
    ``_fit_classes`` to run, if any.
    """
    nodes = 0
    for k in range(max(start, 1), len(ctx.rows) + 1):
        classes, visited = _fit_classes(ctx, fits, k, forward)
        nodes += visited
        if classes is not None:
            return classes, nodes
    return [], nodes


def _partition(
    g: Graph, kind: str, budget_n, fits, fallback, forward=None, floor=0
) -> PartitionResult:
    """Exact ``_min_partition`` within the vertex budget of ``kind``;
    over it, the classes ``fallback()`` returns, flagged inexact.

    Within the budget the search reads ``g.search``: ``fits(rows)``
    gives the kind's class test on its bit rows, and ``forward`` names
    the forward check of ``_fit_classes`` for the kind, if it has one.
    The exact search starts at ⌈ω / h⌉ classes, where ω is the clique
    number of ``g`` and h the most vertices of a clique that one class
    of ``kind`` holds (``_CLASS_TESTS``): every class meets a largest
    clique in at most h vertices.  A larger ``floor``, which the caller
    must have proved to be at most the optimum, starts it there instead.
    """
    budget = DEFAULT_BUDGETS[kind] if budget_n is None else budget_n
    exact = g.n <= budget
    nodes = 0
    if exact:
        ctx = g.search
        start = max(-(-ctx.omega // _CLASS_TESTS[kind][2]), floor)
        masks, nodes = _min_partition(ctx, fits(ctx.rows), start, forward)
        classes = [[v for v in range(g.n) if mask >> v & 1] for mask in masks]
    else:
        classes = fallback()
    part = Partition(tuple(frozenset(c) for c in classes), kind)
    return PartitionResult(len(part.classes), part, exact, nodes)


# ---------------------------------------------------------------------------
# chromatic number
# ---------------------------------------------------------------------------


def _greedy_coloring(g: Graph) -> list:
    classes: list = []
    for v in range(g.n):
        for cls in classes:
            if not (g.adj[v] & cls):
                cls.add(v)
                break
        else:
            classes.append({v})
    return classes


def chromatic_number(g: Graph, budget_n: int | None = None) -> PartitionResult:
    """Exact chromatic number with an independent-set partition witness.

    The search starts at the clique number ω: the vertices of a clique
    need pairwise different colours.  Each class count is searched with
    ``_fit_classes``' forward check.  Over budget, falls back to
    first-fit greedy colouring (upper bound, flagged inexact).
    """
    return _partition(
        g, "chromatic", budget_n, lambda rows: lambda cls, v: not (rows[v] & cls),
        lambda: _greedy_coloring(g), forward="colour",
    )


# ---------------------------------------------------------------------------
# linear vertex arboricity
# ---------------------------------------------------------------------------


def _lva_feasible(rows: list):
    def feasible(cls, v):
        nbrs = rows[v] & cls
        if nbrs.bit_count() > 2:
            return False
        rest = nbrs
        while rest:
            b = rest & -rest
            rest ^= b
            if (rows[b.bit_length() - 1] & cls).bit_count() >= 2:
                return False
        if nbrs.bit_count() == 2:
            # joining two vertices already connected inside the class
            # would close a cycle; a is a path end, so the walk from it
            # meets one new vertex per step
            a = nbrs & -nbrs
            reach = step = a
            while step:
                step = rows[step.bit_length() - 1] & cls & ~reach
                if step & nbrs:
                    return False
                reach |= step
        return True

    return feasible


def lva_exact(
    g: Graph, budget_n: int | None = None, *, _colouring: PartitionResult | None = None
) -> PartitionResult:
    """Minimum partition of V into classes inducing linear forests.

    The search starts at ⌈ω/2⌉ classes, ω the clique number: three
    vertices of a clique in one class would make a triangle.  Over
    budget, falls back to the colouring partition that
    ``chromatic_number`` returns under the same ``budget_n`` (independent
    sets are linear forests), flagged as a possibly non-optimal upper
    bound.  With the default budgets that colouring is still exact for
    21 <= n <= 24; with an explicit ``budget_n`` it is first-fit.
    ``_colouring``, for callers inside the package, is that colouring
    when the caller holds it already, so it is not searched for twice.
    When it is exact the search starts at ⌈χ/2⌉ classes if that is
    more: linear forests are bipartite, so two colours per class give
    a proper colouring and χ <= 2·lva.  The counts skipped are
    infeasible, so the value and witness are the same.
    """
    floor = -(-_colouring.value // 2) if _colouring is not None and _colouring.exact else 0
    return _partition(
        g, "lva", budget_n, _lva_feasible,
        lambda: (_colouring or chromatic_number(g, budget_n)).partition.classes,
        forward="forest", floor=floor,
    )


def lva_sweep(max_n: int = 8) -> dict:
    """Exact smallest-partition-into-linear-forests values over all planar
    graphs on 4..max_n vertices, keyed by vertex count.

    Only edge-maximal planar graphs are inspected: removing an edge never
    raises the optimum (a partition valid for the larger graph stays valid),
    so per-n maxima over these representatives bound every planar graph of
    that order.  Rows are (graph6 string, exact value).
    """
    out = {}
    for n in range(4, max_n + 1):
        reps = sorted(triangulations(n), key=to_graph6)
        out[n] = [(to_graph6(g).decode("ascii"), lva_exact(g).value) for g in reps]
    return out


# ---------------------------------------------------------------------------
# vertex thickness
# ---------------------------------------------------------------------------


def _stays_planar(rows: tuple, member: int, v: int, tested: dict) -> bool:
    """Whether the planar class with bitmask ``member`` plus ``v``
    induces a planar subgraph of the graph with bit rows ``rows``;
    ``tested`` keeps ``induces_planar`` answers by bitmask."""
    if (rows[v] & member).bit_count() <= 1:
        return True
    verts = member | 1 << v
    verdict = tested.get(verts)
    if verdict is None:
        verdict = tested[verts] = induces_planar(rows, verts)
    return verdict


def vertex_thickness_exact(g: Graph, budget_n: int | None = None) -> PartitionResult:
    """Minimum partition of V into classes inducing planar subgraphs.

    The search starts at ⌈ω/4⌉ classes, ω the clique number: five
    vertices of a clique in one class would induce K5, which is not
    planar.  A vertex with at most one neighbour in a class keeps it
    planar; otherwise ``planar.induces_planar`` decides the class plus
    the vertex on the bit rows, once per vertex set and call, without an
    embedding.  Its answers are checked against ``planarity_test`` in
    the tests, so value and classes are those of a search that tests
    every class with ``planarity_test``.  A vertex with an earlier twin starts at its
    twin's class: swapping two twins is an automorphism, which keeps
    every class planar, so the first leaf never puts the later twin in
    a lower class (see ``_fit_classes``).  The parts of a complete
    multipartite graph are classes of twins, so there the cut saves
    the most.

    Over budget, falls back to consecutive blocks of four vertices
    (always planar), flagged inexact.
    """
    tested: dict = {}
    return _partition(
        g, "vertex_thickness", budget_n,
        lambda rows: lambda cls, v: _stays_planar(rows, cls, v, tested),
        lambda: [range(i, min(i + 4, g.n)) for i in range(0, g.n, 4)],
    )


# ---------------------------------------------------------------------------
# treewidth
# ---------------------------------------------------------------------------


def _greedy_elimination_width(g: Graph) -> int:
    """Width of the elimination order that always eliminates the vertex
    of least (degree, index) in the elimination graph: an upper bound on
    treewidth.

    A heap holds a (degree, vertex) entry for each vertex, and a new one
    whenever an elimination changes a degree; an entry whose vertex is
    gone or whose degree is no longer the vertex's own is skipped.  So
    each pick is the least (degree, vertex) among the remaining
    vertices, in O(log n) where a scan takes O(n).
    """
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    heap = [(len(nb), v) for v, nb in adj.items()]
    heapq.heapify(heap)
    width = 0
    while heap:
        deg, v = heapq.heappop(heap)
        nb = adj.get(v)
        if nb is None or deg != len(nb):
            continue
        width = max(width, deg)
        for a in nb:
            na = adj[a]
            before = len(na)
            na |= nb
            na.discard(a)
            na.discard(v)
            if len(na) != before:
                heapq.heappush(heap, (len(na), a))
        del adj[v]
    return width


def _minor_min_width(g: Graph) -> int:
    """Minor-min-width of ``g``: a lower bound on treewidth (Gogate &
    Dechter 2004).

    Treewidth never grows under taking minors, and a graph's treewidth
    is at least its least degree.  So the largest least degree met
    while contracting, one at a time, the vertex of least (degree,
    index) into the neighbour with which it shares the fewest
    neighbours (lowest index on ties) bounds it from below; an isolated
    vertex is deleted.  The loop stops once too few vertices are left to
    raise the bound.

    It is never below the degeneracy d.  While the d-core (the largest
    subgraph of least degree d) is intact, a vertex of degree below d
    lies outside it, and contracting such a vertex into any neighbour
    deletes no edge of the core, so the core stays intact until a pick
    of degree at least d.  Too few vertices cannot stop the loop first:
    the core has more than d.

    Picks come off a heap as in :func:`_greedy_elimination_width`: a
    contraction pushes a fresh entry for each vertex whose degree it
    changes (the kept neighbour, and each other neighbour already
    adjacent to it), and an entry whose degree is stale is skipped.
    """
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    heap = [(len(nb), v) for v, nb in adj.items()]
    heapq.heapify(heap)
    out = 0
    while len(adj) > out + 1:
        deg, v = heapq.heappop(heap)
        nb = adj.get(v)
        if nb is None or deg != len(nb):
            continue
        out = max(out, deg)
        del adj[v]
        if not nb:
            continue
        _, u = min((len(adj[w] & nb), w) for w in nb)
        into = adj[u]
        into.discard(v)
        for w in nb:
            if w == u:
                continue
            nw = adj[w]
            nw.discard(v)
            if u in nw:
                heapq.heappush(heap, (len(nw), w))
            else:
                nw.add(u)
                into.add(w)
        heapq.heappush(heap, (len(into), u))
    return out


def treewidth_exact(g: Graph) -> TreewidthResult:
    """Treewidth sandwiched between two bounds, with no search: the
    minor-min-width below (at least the degeneracy) and the width of the
    greedy elimination order above.  Exact when they meet.

    Both bounds pick from a heap and run at any size.  No bound rule
    reads the result: rho13 >= tw/3 narrows no interval on the atlas or
    the benchmark graphs, and the greedy order takes minutes on large
    sparse graphs.  The solver stays only for the benchmark's traced
    span of that name and its tests, and goes with ROADMAP item 19.
    """
    lower = _minor_min_width(g)
    upper = _greedy_elimination_width(g)
    return TreewidthResult(lower, upper, lower == upper)


# ---------------------------------------------------------------------------
# bisection width
# ---------------------------------------------------------------------------


def _neighbours_by_depth(rows: tuple) -> list:
    """Per depth v = 0..n, with vertices 0..v-1 placed: ``(placed, ups)``.
    ``placed`` lists each later vertex with a placed neighbour as (its
    placed neighbours as a bitmask, twice how many, one more than its
    unplaced neighbours), in index order; ``ups`` holds one more than
    the degree of each later vertex with neighbours, none of them
    placed, from most to fewest.

    The search reads ``placed`` to its end and leaves ``ups`` once a
    count is small enough, so only ``ups`` needs an order.  A vertex is
    in it while the depth is at most its index and its lowest
    neighbour, so one order by degree serves every depth."""
    n = len(rows)
    degree = [ru.bit_count() for ru in rows]
    by_degree = sorted(range(n), key=lambda u: -degree[u])
    first = [min(u, (ru & -ru).bit_length() - 1) for u, ru in enumerate(rows)]  # -1 if isolated
    nbrs_at = []
    for v in range(n + 1):
        below = (1 << v) - 1
        placed = []
        for ru in rows[v:]:
            nb = ru & below
            if nb:
                placed.append((nb, 2 * nb.bit_count(), (ru >> v).bit_count() + 1))
        nbrs_at.append((placed, [degree[u] + 1 for u in by_degree if first[u] >= v]))
    return nbrs_at


def _swap_search_cut(rows: tuple, a: int, cut: int) -> tuple[int, int]:
    """The cut a greedy swap search reaches from the split with side A
    ``a`` (a bitmask) and cut ``cut``, and the side A it reaches: while
    some exchange of a vertex u of A with a vertex w of B lowers the
    cut, make the one that lowers it most.  Moving a vertex across
    gains D, its neighbours on the other side less those on its own,
    and the exchange gains D(u) + D(w) - 2 when u and w are adjacent,
    else D(u) + D(w).  With both sides scanned by falling D, a scan
    stops as soon as no later pair can beat the best gain.  Every
    exchange keeps the side sizes, so the result is a bisection and its
    cut is at least the optimum."""
    deg = [ru.bit_count() for ru in rows]
    while True:
        side_a, side_b = [], []
        for u, ru in enumerate(rows):
            if a >> u & 1:
                side_a.append((deg[u] - 2 * (ru & a).bit_count(), u))
            else:
                side_b.append((2 * (ru & a).bit_count() - deg[u], u))
        side_a.sort(reverse=True)
        side_b.sort(reverse=True)
        top_b = side_b[0][0]
        gain, pick = 0, 0
        for du, u in side_a:
            if du + top_b <= gain:
                break
            ru = rows[u]
            for dw, w in side_b:
                swap = du + dw
                if swap <= gain:
                    break
                if ru >> w & 1:
                    swap -= 2
                if swap > gain:
                    gain, pick = swap, 1 << u | 1 << w
        if not gain:
            return cut, a
        cut -= gain
        a ^= pick


def _degree_order(rows: tuple) -> tuple[list, tuple]:
    """The vertices by falling degree, or by rising degree when more
    than half the vertex pairs are edges (falling degree in the
    complement), ties by index; and the bit rows of the graph with
    vertex ``order[i]`` renamed i."""
    n = len(rows)
    degree = [ru.bit_count() for ru in rows]
    sign = -1 if 2 * sum(degree) <= n * (n - 1) else 1
    order = sorted(range(n), key=lambda u: sign * degree[u])
    bit = {1 << u: 1 << i for i, u in enumerate(order)}
    relabelled = []
    for u in order:
        ru, row = rows[u], 0
        while ru:
            low = ru & -ru
            row |= bit[low]
            ru ^= low
        relabelled.append(row)
    return order, tuple(relabelled)


def bisection_width_exact(g: Graph, budget_n: int | None = None) -> BisectionResult:
    """Minimum edge cut over all ⌈n/2⌉ / ⌊n/2⌋ vertex bipartitions, with
    a minimum bisection as witness (``side`` is its ⌈n/2⌉ side).

    The search runs on the graph relabelled by ``_degree_order``:
    falling degree when 4m <= n(n - 1), that is at density at most ½,
    rising degree otherwise, ties by index.  On G(n, p) graphs of 14 to
    20 vertices this order visits fewer nodes than index order at every
    p from 0.1 to 0.9, while falling degree alone visits more in 23 of
    the 28 cells with p >= 0.6, up to 6.5 times more
    (BENCH_bisection_order.json).  Everything
    below is said of the relabelled graph, and the kept split is mapped
    back to the caller's labels at the end.

    Vertices are placed in order, side A first, with the sides as
    bitmasks.  A node's bound is its cut plus a cheapest completion,
    counted in half edges.  An unplaced vertex sent to a side costs two
    halves per placed neighbour on the other side, and one half per
    unplaced neighbour that cannot fit beside it: with room for r more
    vertices on that side and d unplaced neighbours, at least
    d - (r - 1) of them land on the other side.  An edge between two
    unplaced vertices is charged at most one half from each end, so the
    halves never count an edge twice.  Each vertex goes to its cheaper
    side, and when more vertices prefer a side than it has room for,
    the excess pays the smallest differences between its two costs.
    Every leaf below a node cuts at least ⌈halves / 2⌉ edges, so a node
    where that reaches the best cut has no better leaf.  Once one side
    is full the rest of the assignment is forced and the bound is its
    exact cut, recorded without descending.  Which neighbours of a
    vertex are placed depends only on the depth, so each depth lists
    them once, and those on side B are the ones not on side A.
    ``nodes`` counts the nodes visited.

    The best cut starts at the cut H that ``_swap_search_cut`` reaches
    from the prefix split, with its split as the witness; H is the cut
    of a bisection, so at least the optimum.  A later leaf replaces the
    witness only when it cuts fewer edges.  When the optimum is below
    H, every ancestor of the first optimal leaf in depth-first order
    has ⌈halves / 2⌉ <= optimum < the best cut so far, so the search
    reaches that leaf; either way the witness is a minimum bisection,
    though not in general the first one in index order.

    Twins are those of the relabelled rows (``graphs._twins``): a
    vertex with an earlier twin skips side A while its twin is on side
    B, and a forced completion that would send such a vertex to A is
    refused.  A leaf with the later twin on A and the earlier on B
    maps, by the swap of the two (an automorphism), to a leaf with the
    same cut that agrees with it before the earlier twin and puts that
    twin on A, so it comes first in depth-first order: the first
    optimal leaf is never cut.

    Over budget, reports the cut of the index-prefix split (valid upper
    bound, flagged).
    """
    n = g.n
    size_a = (n + 1) // 2
    budget = DEFAULT_BUDGETS["bisection"] if budget_n is None else budget_n
    if n > budget:
        prefix_cut = sum(1 for u, v in g.edges if (u < size_a) != (v < size_a))
        return BisectionResult(prefix_cut, False, tuple(range(size_a)))
    if n <= 1:
        return BisectionResult(0, True, tuple(range(n)))

    order, rows = _degree_order(g.search.rows)
    twin = _twins(rows)
    low = [ru & (1 << v) - 1 for v, ru in enumerate(rows)]  # neighbours of v before it
    twins_from = [0] * (n + 1)  # earlier twins of the vertices from v on
    for v in range(n - 1, -1, -1):
        twins_from[v] = twins_from[v + 1] | twin[v]
    nbrs_at = _neighbours_by_depth(rows)
    prefix = (1 << size_a) - 1
    prefix_cut = sum((ru & ~prefix).bit_count() for ru in rows[:size_a])
    best, best_a = _swap_search_cut(rows, prefix, prefix_cut)
    nodes = 0

    def dfs(v: int, a: int, b: int, cnt_a: int, cut: int) -> None:
        nonlocal best, best_a, nodes
        nodes += 1
        room_a = size_a - cnt_a
        room_b = n - v - room_a
        placed, ups = nbrs_at[v]
        if not room_a or not room_b:
            if room_a:
                if twins_from[v] & b:
                    return
                for nb, count, _ in placed:
                    cut += (count >> 1) - (nb & a).bit_count()
            else:
                for nb, _, _ in placed:
                    cut += (nb & a).bit_count()
            if cut < best:
                best = cut
                best_a = a | ((1 << n) - (1 << v)) if room_a else a
            return
        # in half edges: a vertex on side A with d unplaced neighbours
        # has d - (room_a - 1) of them on side B at least, and each end
        # of such an edge is charged one half
        bound = 2 * cut
        prefer_a = []  # extra cost of sending a vertex that prefers A to B
        prefer_b = []
        for nb, count, up in placed:
            to_b = 2 * (nb & a).bit_count()
            to_a = count - to_b + (up - room_a if up > room_a else 0)
            if up > room_b:
                to_b += up - room_b
            if to_a < to_b:
                bound += to_a
                prefer_a.append(to_b - to_a)
            else:
                bound += to_b
                if to_a > to_b:
                    prefer_b.append(to_a - to_b)
        for up in ups:
            if up <= room_a:
                if up <= room_b:
                    break  # neither side costs this vertex or any after it
                prefer_a.append(up - room_b)
            elif up <= room_b:
                prefer_b.append(up - room_a)
            elif room_a > room_b:  # both sides cost, A less
                bound += up - room_a
                prefer_a.append(room_a - room_b)
            else:
                bound += up - room_b
                if room_b > room_a:
                    prefer_b.append(room_b - room_a)
        if len(prefer_a) > room_a:
            prefer_a.sort()
            bound += sum(prefer_a[: len(prefer_a) - room_a])
        elif len(prefer_b) > room_b:
            prefer_b.sort()
            bound += sum(prefer_b[: len(prefer_b) - room_b])
        if bound + 1 >> 1 >= best:
            return
        bit = 1 << v
        if not twin[v] & b:
            dfs(v + 1, a | bit, b, cnt_a + 1, cut + (low[v] & b).bit_count())
        # sides are exchangeable when equally sized, so vertex 0 stays in A
        if v or n % 2:
            dfs(v + 1, a, b | bit, cnt_a, cut + (low[v] & a).bit_count())

    dfs(0, 0, 0, 0, 0)
    side = sorted(order[i] for i in range(n) if best_a >> i & 1)
    return BisectionResult(best, True, tuple(side), nodes)


# ---------------------------------------------------------------------------
# clique covers of complete graphs
# ---------------------------------------------------------------------------


def steiner_bounds(n: int, k: int) -> tuple[int, bool]:
    """Counting lower bound ⌈n(n-1)/(k(k-1))⌉ for covering the edges of
    K_n by K_k blocks, plus whether a perfect pairwise-balanced design
    meets it (k=3: n ≡ 1,3 mod 6; k=4: n ≡ 1,4 mod 12)."""
    if k not in (3, 4):
        raise ValueError("block order must be 3 or 4")
    lower = -(-(n * (n - 1)) // (k * (k - 1)))
    if k == 3:
        exists = n % 6 in (1, 3)
    else:
        exists = n % 12 in (1, 4)
    return lower, exists


def schonheim_bound(n: int, s: int) -> int:
    """Schönheim's lower bound ⌈(n/s)·⌈(n-1)/(s-1)⌉⌉ (Pacific J. Math.
    14, 1964) on the blocks of at most s vertices that cover the edges
    of K_n, for n >= 2 and s >= 2.

    Each vertex has n - 1 edges and a block through it covers at most
    s - 1 of them, so it lies in ⌈(n-1)/(s-1)⌉ blocks or more; each
    block holds at most s vertices.  Fort & Hedlund (Pacific J. Math. 8,
    1958) show that the bound is the minimum for s = 3.
    """
    return -(-n * -(-(n - 1) // (s - 1)) // s)


def clique_cover_exact(n: int, s: int) -> CliqueCoverResult:
    """Minimum number of ≤ s-vertex blocks covering every edge of K_n.

    The first block is fixed to {0,...,s-1}, justified by the
    transitivity of the symmetric group on equal-size vertex subsets;
    :func:`~affinecover.drawing.exact_set_cover` covers the remaining
    pairs.  Its deepening starts at :func:`schonheim_bound` less the
    fixed block, which no cover of the rest can beat.
    """
    if s not in CLIQUE_COVER_MAX_N:
        raise ValueError("block order must be 3 or 4")
    if n > CLIQUE_COVER_MAX_N[s]:
        raise ValueError(f"n={n} beyond search budget for block order {s}")
    if n < 2:
        return CliqueCoverResult(0, 0, (), True)
    if n <= s:
        return CliqueCoverResult(1, 1, (tuple(range(n)),), True)
    pair_index = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    blocks = list(itertools.combinations(range(n), s))
    masks = [sum(1 << pair_index[p] for p in itertools.combinations(b, 2)) for b in blocks]
    full = (1 << len(pair_index)) - 1
    floor = schonheim_bound(n, s) - 1
    chosen, exact, lower = exact_set_cover(masks, full & ~masks[0], floor)
    cover = tuple(blocks[i] for i in [0, *chosen])
    return CliqueCoverResult(lower + 1, len(chosen) + 1, cover, exact)
