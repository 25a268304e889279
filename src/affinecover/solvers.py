"""Exact small-instance solvers for cover-related graph parameters.

All searches are deterministic branch-and-bound with lexicographic
tie-breaking (lowest-index vertex assigned first, lowest-index class
preferred), so witnesses are stable across runs.  Exceeding a search
budget never silently yields a wrong exact value: every result carries
an ``exact`` flag and fallbacks are valid one-sided bounds.  Clique
covers are set covers, searched by ``drawing.exact_set_cover``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .drawing import exact_set_cover
from .graphs import Graph, is_linear_forest, to_graph6
from .planar import is_planar, planarity_test, triangulations

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
    side: tuple
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


def _bit_rows(g: Graph) -> list:
    """The neighbourhood of each vertex of ``g`` as a bitmask."""
    rows = [0] * g.n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _clique_number(rows: list) -> int:
    """Size of a largest clique of the graph with bitmask rows ``rows``
    (from ``_bit_rows``).

    A clique grows by the lowest of its candidates, which then shrink to
    that vertex's later neighbours; a branch stops once its clique plus
    all its candidates cannot beat the largest clique found (Carraghan &
    Pardalos 1990).
    """
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            b = cand & -cand
            cand ^= b
            grow(size + 1, cand & rows[b.bit_length() - 1])
        best = max(best, size)

    grow(0, (1 << len(rows)) - 1)
    return best


def _fit_classes(
    n: int, fits: Callable[[int, int], bool], k: int, rows: list | None
) -> list | None:
    """The lexicographically least way to put vertices 0..n-1, in index
    order, into k classes kept feasible by ``fits``, as vertex bitmasks;
    None if there is none.

    Given ``rows`` (from ``_bit_rows``), the classes are colour classes
    and the search checks forward: each class keeps the union of its
    members' neighbourhoods, and a branch ends once some later vertex
    has a neighbour in every class.  Classes only grow, so that vertex
    can never join one, and the branch holds no leaf; the first leaf
    and its classes are those of the search without the check.  A class
    not yet opened has no neighbours, so the check can cut only once
    all k classes are open.
    """
    classes = [0] * k
    near = [0] * k  # neighbours of each class, kept only given rows

    def dfs(v: int, used: int) -> bool:
        if v == n:
            return True
        for c in range(min(used + 1, k)):
            cls = classes[c]
            if fits(cls, v):
                classes[c] = cls | 1 << v
                if rows is None:
                    if dfs(v + 1, max(used, c + 1)):
                        return True
                else:
                    around = near[c]
                    near[c] = around | rows[v]
                    stuck = -2 << v  # later vertices with a neighbour in every class
                    for mask in near:
                        stuck &= mask
                        if not stuck:
                            break
                    if not stuck and dfs(v + 1, max(used, c + 1)):
                        return True
                    near[c] = around
                classes[c] = cls
        return False

    return classes if dfs(0, 0) else None


def _min_partition(
    n: int, fits: Callable[[int, int], bool], start: int, rows: list | None
) -> list:
    """The fewest classes, each kept feasible as vertices 0..n-1 join it
    in index order; returns the lexicographically least witness as
    vertex bitmasks.

    ``fits(cls, v)`` decides whether vertex ``v`` may join the class
    with bitmask ``cls``.  Class counts are tried upward from ``start``
    (one at least), which must be at most the optimum: the counts below
    it are infeasible, so skipping them leaves the first feasible count
    and its witness unchanged.  ``rows`` switches on ``_fit_classes``'
    forward check for colour classes.
    """
    for k in range(max(start, 1), n + 1):
        classes = _fit_classes(n, fits, k, rows)
        if classes is not None:
            return classes
    return []


def _partition(g: Graph, kind: str, budget_n, fits, fallback, colour=False) -> PartitionResult:
    """Exact ``_min_partition`` within the vertex budget of ``kind``;
    over it, the classes ``fallback()`` returns, flagged inexact.

    Within the budget the rows of ``_bit_rows(g)`` are built once:
    ``fits(rows)`` gives the kind's class test, and ``colour``, set for
    colour classes only, turns on the forward check of ``_fit_classes``.
    The exact search starts at ⌈ω / h⌉ classes, where ω is the clique
    number of ``g`` and h the most vertices of a clique that one class
    of ``kind`` holds (``_CLASS_TESTS``): every class meets a largest
    clique in at most h vertices.
    """
    budget = DEFAULT_BUDGETS[kind] if budget_n is None else budget_n
    exact = g.n <= budget
    if exact:
        rows = _bit_rows(g)
        start = -(-_clique_number(rows) // _CLASS_TESTS[kind][2])
        masks = _min_partition(g.n, fits(rows), start, rows if colour else None)
        classes = [[v for v in range(g.n) if mask >> v & 1] for mask in masks]
    else:
        classes = fallback()
    part = Partition(tuple(frozenset(c) for c in classes), kind)
    return PartitionResult(len(part.classes), part, exact)


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
        lambda: _greedy_coloring(g), colour=True,
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
    """
    return _partition(
        g, "lva", budget_n, _lva_feasible,
        lambda: (_colouring or chromatic_number(g, budget_n)).partition.classes,
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


def _stays_planar(g: Graph, rows: list, member: int, v: int, tested: dict) -> bool:
    """Whether the planar class with bitmask ``member`` plus ``v``
    induces a planar subgraph of ``g`` (``rows`` from ``_bit_rows``);
    ``tested`` keeps ``is_planar`` answers by bitmask."""
    if (rows[v] & member).bit_count() <= 1:
        return True
    verts = member | 1 << v
    verdict = tested.get(verts)
    if verdict is None:
        members = {u for u in range(g.n) if verts >> u & 1}
        verdict = tested[verts] = is_planar({u: members & g.adj[u] for u in members})
    return verdict


def vertex_thickness_exact(g: Graph, budget_n: int | None = None) -> PartitionResult:
    """Minimum partition of V into classes inducing planar subgraphs.

    The search starts at ⌈ω/4⌉ classes, ω the clique number: five
    vertices of a clique in one class would induce K5, which is not
    planar.  A vertex with at most one neighbour in a class keeps it
    planar; otherwise ``planar.is_planar`` decides the class plus the vertex,
    once per vertex set and call, without an embedding.  Its answers are
    checked against ``planarity_test`` in the tests, so value and
    classes are those of a search that tests every class with
    ``planarity_test``.

    Over budget, falls back to consecutive blocks of four vertices
    (always planar), flagged inexact.
    """
    tested: dict = {}
    return _partition(
        g, "vertex_thickness", budget_n,
        lambda rows: lambda cls, v: _stays_planar(g, rows, cls, v, tested),
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

    Both bounds pick from a heap and run at any size.  The one rule that
    reads the result, ``treewidth-third``, narrows no interval on the
    atlas or the benchmark graphs, so an exact search would buy no
    printed number.  The name stays because callers and traced spans
    know the solver by it.
    """
    lower = _minor_min_width(g)
    upper = _greedy_elimination_width(g)
    return TreewidthResult(lower, upper, lower == upper)


# ---------------------------------------------------------------------------
# bisection width
# ---------------------------------------------------------------------------


def _neighbours_by_depth(rows: list) -> list:
    """Per depth v = 0..n, with vertices 0..v-1 placed: for each later
    vertex with a neighbour, (its placed neighbours as a bitmask, how
    many, one more than its unplaced neighbours).  Those with a placed
    neighbour come first, then the others, each part by unplaced
    neighbours from most to fewest (a stable sort)."""
    by_up = itemgetter(2)
    nbrs_at = []
    for v in range(len(rows) + 1):
        placed, untouched = [], []
        for ru in rows[v:]:
            if ru:
                nb = ru & (1 << v) - 1
                (placed if nb else untouched).append((nb, nb.bit_count(), (ru >> v).bit_count() + 1))
        placed.sort(key=by_up, reverse=True)
        untouched.sort(key=by_up, reverse=True)
        nbrs_at.append(placed + untouched)
    return nbrs_at


def bisection_width_exact(g: Graph, budget_n: int | None = None) -> BisectionResult:
    """Minimum edge cut over all ⌈n/2⌉ / ⌊n/2⌋ vertex bipartitions.

    Vertices are placed in index order, side A first, with the sides as
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
    them once, and those on side B are the ones not on side A.  The
    witness is the prefix split or the first strictly better leaf in
    depth-first order, as in a search without the bound; ``nodes``
    counts the nodes visited.

    Over budget, reports the cut of the index-prefix split (valid upper
    bound, flagged).
    """
    n = g.n
    size_a = (n + 1) // 2
    budget = DEFAULT_BUDGETS["bisection"] if budget_n is None else budget_n
    prefix = set(range(size_a))
    prefix_cut = sum(1 for u, v in g.edges if (u in prefix) != (v in prefix))
    if n > budget:
        return BisectionResult(prefix_cut, False, tuple(sorted(prefix)))
    if n <= 1:
        return BisectionResult(0, True, tuple(range(n)))

    rows = _bit_rows(g)
    low = [ru & (1 << v) - 1 for v, ru in enumerate(rows)]  # neighbours of v before it
    nbrs_at = _neighbours_by_depth(rows)
    best = prefix_cut
    best_a = (1 << size_a) - 1
    nodes = 0

    def dfs(v: int, a: int, b: int, cnt_a: int, cut: int) -> None:
        nonlocal best, best_a, nodes
        nodes += 1
        room_a = size_a - cnt_a
        room_b = n - v - room_a
        if not room_a or not room_b:
            rest_to_a = room_a > 0
            for nb, placed, _ in nbrs_at[v]:
                if not nb:
                    break
                in_a = (nb & a).bit_count()
                cut += placed - in_a if rest_to_a else in_a
            if cut < best:
                best = cut
                best_a = a | ((1 << n) - (1 << v)) if rest_to_a else a
            return
        # in half edges: a vertex on side A with d unplaced neighbours
        # has d - (room_a - 1) of them on side B at least, and each end
        # of such an edge is charged one half
        bound = 2 * cut
        prefer_a = []  # extra cost of sending a vertex that prefers A to B
        prefer_b = []
        for nb, placed, up in nbrs_at[v]:
            if not nb and up <= room_a and up <= room_b:
                break  # neither side costs this vertex or any after it
            in_b = placed - (nb & a).bit_count()
            to_a = 2 * in_b + (up - room_a if up > room_a else 0)
            to_b = 2 * (placed - in_b) + (up - room_b if up > room_b else 0)
            if to_a < to_b:
                bound += to_a
                prefer_a.append(to_b - to_a)
            else:
                bound += to_b
                if to_a > to_b:
                    prefer_b.append(to_a - to_b)
        if len(prefer_a) > room_a:
            prefer_a.sort()
            bound += sum(prefer_a[: len(prefer_a) - room_a])
        elif len(prefer_b) > room_b:
            prefer_b.sort()
            bound += sum(prefer_b[: len(prefer_b) - room_b])
        if bound + 1 >> 1 >= best:
            return
        bit = 1 << v
        dfs(v + 1, a | bit, b, cnt_a + 1, cut + (low[v] & b).bit_count())
        # sides are exchangeable when equally sized, so vertex 0 stays in A
        if v or n % 2:
            dfs(v + 1, a, b | bit, cnt_a, cut + (low[v] & a).bit_count())

    dfs(0, 0, 0, 0, 0)
    return BisectionResult(best, True, tuple(v for v in range(n) if best_a >> v & 1), nodes)


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
