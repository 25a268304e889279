"""Exact small-instance solvers for cover-related graph parameters.

All searches are deterministic branch-and-bound with lexicographic
tie-breaking (lowest-index vertex assigned first, lowest-index class
preferred), so witnesses are stable across runs.  Exceeding a search
budget never silently yields a wrong exact value: every result carries
an ``exact`` flag and fallbacks are valid one-sided bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .graphs import Graph, is_linear_forest, to_graph6
from .planar import is_planar, planarity_test, triangulations

__all__ = [
    "Partition",
    "CliqueCover",
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
    "steiner_bounds",
    "DEFAULT_BUDGETS",
    "CLIQUE_COVER_MAX_N",
]

PARTITION_KINDS = ("lva", "vertex_thickness", "proper_coloring")

DEFAULT_BUDGETS = {
    "chromatic": 24,
    "lva": 20,
    "vertex_thickness": 16,
    "treewidth": 18,
    "bisection": 20,
}

CLIQUE_COVER_MAX_N = {3: 13, 4: 10}


@dataclass(frozen=True)
class Partition:
    """Ordered partition of the vertex set with a certified class predicate."""

    classes: tuple[frozenset, ...]
    certifies: str

    def __post_init__(self):
        if self.certifies not in PARTITION_KINDS:
            raise ValueError(f"unknown partition kind {self.certifies!r}")


@dataclass(frozen=True)
class CliqueCover:
    """Blocks of at most ``s`` vertices covering all edges of K_n."""

    n: int
    s: int
    blocks: tuple[tuple, ...]


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


@dataclass(frozen=True)
class CliqueCoverResult:
    lower: int
    upper: int
    cover: CliqueCover
    exact: bool
    lower_exhaustive: bool

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("cover number not solved exactly; use .lower/.upper")
        return self.lower


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
    for cls in p.classes:
        members = sorted(cls)
        if p.certifies == "proper_coloring":
            if any(g.has_edge(u, v) for u, v in itertools.combinations(members, 2)):
                raise ValueError("coloring class is not independent")
        elif p.certifies == "lva":
            if not is_linear_forest(g, members):
                raise ValueError("class does not induce a linear forest")
        elif p.certifies == "vertex_thickness":
            if planarity_test(g.induced(members)) is None:
                raise ValueError("class does not induce a planar subgraph")


# ---------------------------------------------------------------------------
# generic minimum-partition search
# ---------------------------------------------------------------------------


def _min_partition(
    g: Graph, feasible_add: Callable[[list, set, int], bool]
) -> tuple[int, list]:
    """Minimum number of classes such that greedily-checked classes stay
    feasible; returns the lexicographically least witness.

    ``feasible_add(members, member_set, v)`` decides whether vertex ``v``
    may join the class currently holding ``members``.
    """
    n = g.n
    if n == 0:
        return 0, []
    for k in range(1, n + 1):
        members: list = [[] for _ in range(k)]
        member_sets: list = [set() for _ in range(k)]

        def dfs(v: int, used: int) -> bool:
            if v == n:
                return True
            for c in range(min(used + 1, k)):
                if feasible_add(members[c], member_sets[c], v):
                    members[c].append(v)
                    member_sets[c].add(v)
                    if dfs(v + 1, max(used, c + 1)):
                        return True
                    members[c].pop()
                    member_sets[c].discard(v)
            return False

        if dfs(0, 0):
            return k, members
    return n, [[v] for v in range(n)]


# ---------------------------------------------------------------------------
# chromatic number
# ---------------------------------------------------------------------------


def _greedy_coloring(g: Graph) -> list:
    classes: list = []
    class_sets: list = []
    for v in range(g.n):
        for c, cs in enumerate(class_sets):
            if not (g.adj[v] & cs):
                classes[c].append(v)
                cs.add(v)
                break
        else:
            classes.append([v])
            class_sets.append({v})
    return classes


def chromatic_number(g: Graph, budget_n: int | None = None) -> PartitionResult:
    """Exact chromatic number with an independent-set partition witness.

    Over budget, falls back to first-fit greedy colouring (upper bound,
    flagged inexact).
    """
    budget = DEFAULT_BUDGETS["chromatic"] if budget_n is None else budget_n
    if g.n > budget:
        classes = _greedy_coloring(g)
        part = Partition(tuple(frozenset(c) for c in classes), "proper_coloring")
        return PartitionResult(len(classes), part, exact=False)

    def feasible(members, member_set, v):
        return not (g.adj[v] & member_set)

    k, classes = _min_partition(g, feasible)
    part = Partition(tuple(frozenset(c) for c in classes), "proper_coloring")
    return PartitionResult(k, part, exact=True)


# ---------------------------------------------------------------------------
# linear vertex arboricity
# ---------------------------------------------------------------------------


def _lva_feasible(g: Graph):
    def feasible(members, member_set, v):
        nbrs = g.adj[v] & member_set
        if len(nbrs) > 2:
            return False
        for u in nbrs:
            if len(g.adj[u] & member_set) >= 2:
                return False
        if len(nbrs) == 2:
            a, b = nbrs
            # joining two vertices already connected inside the class
            # would close a cycle
            stack, seen = [a], {a}
            while stack:
                u = stack.pop()
                for w in g.adj[u] & member_set:
                    if w == b:
                        return False
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return True

    return feasible


def lva_exact(g: Graph, budget_n: int | None = None) -> PartitionResult:
    """Minimum partition of V into classes inducing linear forests.

    Over budget, falls back to the colouring partition that
    ``chromatic_number`` returns under the same ``budget_n`` (independent
    sets are linear forests), flagged as a possibly non-optimal upper
    bound.  With the default budgets that colouring is still exact for
    21 <= n <= 24; with an explicit ``budget_n`` it is first-fit.
    """
    budget = DEFAULT_BUDGETS["lva"] if budget_n is None else budget_n
    if g.n > budget:
        res = chromatic_number(g, budget_n)
        part = Partition(res.partition.classes, "lva")
        return PartitionResult(res.value, part, exact=False)
    k, classes = _min_partition(g, _lva_feasible(g))
    part = Partition(tuple(frozenset(c) for c in classes), "lva")
    return PartitionResult(k, part, exact=True)


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


def _stays_planar(g: Graph, member_set: set, v: int, tested: dict) -> bool:
    """Whether the planar class ``member_set`` plus ``v`` induces a planar
    subgraph of ``g``; ``tested`` keeps ``is_planar`` answers by vertex
    set."""
    if len(g.adj[v] & member_set) <= 1:
        return True
    verts = member_set | {v}
    key = frozenset(verts)
    verdict = tested.get(key)
    if verdict is None:
        verdict = tested[key] = is_planar({u: verts & g.adj[u] for u in verts})
    return verdict


def vertex_thickness_exact(g: Graph, budget_n: int | None = None) -> PartitionResult:
    """Minimum partition of V into classes inducing planar subgraphs.

    A vertex with at most one neighbour in a class keeps it planar;
    otherwise ``planar.is_planar`` decides the class plus the vertex,
    once per vertex set and call.  It answers as ``planarity_test``
    does, so value and classes are those of a search that tests every
    class with ``planarity_test``.

    Over budget, falls back to consecutive blocks of four vertices
    (always planar), flagged inexact.
    """
    budget = DEFAULT_BUDGETS["vertex_thickness"] if budget_n is None else budget_n
    if g.n > budget:
        classes = [list(range(i, min(i + 4, g.n))) for i in range(0, g.n, 4)]
        part = Partition(tuple(frozenset(c) for c in classes), "vertex_thickness")
        return PartitionResult(len(classes), part, exact=False)

    tested: dict = {}

    def feasible(members, member_set, v):
        return _stays_planar(g, member_set, v, tested)

    k, classes = _min_partition(g, feasible)
    part = Partition(tuple(frozenset(c) for c in classes), "vertex_thickness")
    return PartitionResult(k, part, exact=True)


# ---------------------------------------------------------------------------
# treewidth
# ---------------------------------------------------------------------------


def _degeneracy(g: Graph) -> int:
    adj = [set(a) for a in g.adj]
    alive = set(range(g.n))
    out = 0
    while alive:
        v = min(alive, key=lambda u: (len(adj[u]), u))
        out = max(out, len(adj[v]))
        for w in adj[v]:
            adj[w].discard(v)
        adj[v].clear()
        alive.discard(v)
    return out


def _greedy_elimination_width(g: Graph) -> int:
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    width = 0
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        nb = adj[v]
        width = max(width, len(nb))
        for a in nb:
            adj[a] |= nb
            adj[a].discard(a)
            adj[a].discard(v)
        del adj[v]
    return width


def treewidth_exact(g: Graph, budget_n: int | None = None) -> TreewidthResult:
    """Exact treewidth via branch-and-bound over elimination orders.

    The search carries the elimination graph of the remaining vertices
    as bitmask rows: eliminating ``v`` joins its neighbours into a
    clique, and a degree is a bit count.  Vertices are tried by
    increasing degree, except that a simplicial vertex (neighbourhood a
    clique) is eliminated alone, which is safe (Bodlaender & Koster
    2006).  Remaining sets already searched with no larger width so far
    are skipped.

    Over budget, reports the sandwich (degeneracy lower bound, greedy
    elimination upper bound); this pair is still exact if it collapses.
    """
    n = g.n
    if n <= 1:
        return TreewidthResult(0, 0, True)
    lower = _degeneracy(g)
    upper = _greedy_elimination_width(g)
    if lower == upper:
        return TreewidthResult(lower, upper, True)
    budget = DEFAULT_BUDGETS["treewidth"] if budget_n is None else budget_n
    if n > budget:
        return TreewidthResult(lower, upper, False)

    rows0 = [0] * n
    for u, v in g.edges:
        rows0[u] |= 1 << v
        rows0[v] |= 1 << u
    best = upper
    seen: dict = {}

    def simplicial(nb: int, rows: list) -> bool:
        rest = nb
        while rest:
            b = rest & -rest
            rest ^= b
            if nb & ~rows[b.bit_length() - 1] != b:
                return False
        return True

    def dfs(remaining: int, rows: list, cur: int) -> None:
        nonlocal best
        if remaining == 0:
            best = cur
            return
        seen[remaining] = cur
        cand = []
        rem = remaining
        while rem:
            b = rem & -rem
            rem ^= b
            v = b.bit_length() - 1
            cand.append((rows[v].bit_count(), v))
        cand.sort()
        for dg, v in cand:
            if simplicial(rows[v], rows):
                cand = [(dg, v)]
                break
        for dg, v in cand:
            width = max(cur, dg)
            if width >= best:
                break
            bit = 1 << v
            left = remaining & ~bit
            prev = seen.get(left)
            if prev is not None and prev <= width:
                continue
            nb = rows[v]
            child = rows.copy()
            rest = nb
            while rest:
                b = rest & -rest
                rest ^= b
                u = b.bit_length() - 1
                child[u] = (child[u] | nb) & ~b & ~bit
            dfs(left, child, width)

    dfs((1 << n) - 1, rows0, 0)
    return TreewidthResult(best, best, True)


# ---------------------------------------------------------------------------
# bisection width
# ---------------------------------------------------------------------------


def bisection_width_exact(g: Graph, budget_n: int | None = None) -> BisectionResult:
    """Minimum edge cut over all ⌈n/2⌉ / ⌊n/2⌋ vertex bipartitions.

    Vertices are placed in index order, side A first, with the sides as
    bitmasks.  A node is pruned when its cut plus, for each unplaced
    vertex, the fewer of its placed neighbours on either side reaches
    the best cut; every edge is charged once, to its unplaced end, so no
    better leaf is pruned.  The witness is the prefix split or the first
    strictly better leaf in depth-first order, as in a search without
    the bound.

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

    low = [0] * n  # low[v]: neighbours of v with a smaller index
    for u, v in g.edges:
        low[v] |= 1 << u
    best = prefix_cut
    best_a = (1 << size_a) - 1

    def dfs(v: int, a: int, b: int, cnt_a: int, cut: int) -> None:
        nonlocal best, best_a
        if v == n:
            if cut < best:
                best, best_a = cut, a
            return
        bound = cut
        for lu in low[v:]:
            in_a = (lu & a).bit_count()
            in_b = (lu & b).bit_count()
            bound += in_a if in_a < in_b else in_b
        if bound >= best:
            return
        bit = 1 << v
        if cnt_a < size_a:
            dfs(v + 1, a | bit, b, cnt_a + 1, cut + (low[v] & b).bit_count())
        # sides are exchangeable when equally sized, so vertex 0 stays in A
        if v - cnt_a < n - size_a and (v or n % 2):
            dfs(v + 1, a, b | bit, cnt_a, cut + (low[v] & a).bit_count())

    dfs(0, 0, 0, 0, 0)
    return BisectionResult(best, True, tuple(v for v in range(n) if best_a >> v & 1))


# ---------------------------------------------------------------------------
# clique covers of complete graphs
# ---------------------------------------------------------------------------


class _NodeCapHit(Exception):
    pass


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


def clique_cover_exact(
    n: int,
    s: int,
    *,
    max_value: int | None = None,
    node_cap: int = 5_000_000,
) -> CliqueCoverResult:
    """Minimum number of ≤ s-vertex blocks covering every edge of K_n.

    Iterates block counts upward from the counting lower bound, running
    a complete branch-and-bound at each count.  ``max_value`` limits the
    largest count tried: if every count up to it is exhausted without a
    cover, the returned lower bound ``max_value + 1`` is proven.  The
    first block is fixed to {0,...,s-1}, justified by the transitivity
    of the symmetric group on equal-size vertex subsets.
    """
    if s not in CLIQUE_COVER_MAX_N:
        raise ValueError("block order must be 3 or 4")
    if n > CLIQUE_COVER_MAX_N[s]:
        raise ValueError(f"n={n} beyond search budget for block order {s}")
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    if m == 0:
        cover = CliqueCover(n, s, ())
        return CliqueCoverResult(0, 0, cover, True, True)
    pair_index = {p: i for i, p in enumerate(pairs)}
    full = (1 << m) - 1

    if n <= s:
        cover = CliqueCover(n, s, (tuple(range(n)),))
        return CliqueCoverResult(1, 1, cover, True, True)

    blocks = list(itertools.combinations(range(n), s))
    masks = []
    for b in blocks:
        mask = 0
        for p in itertools.combinations(b, 2):
            mask |= 1 << pair_index[p]
        masks.append(mask)
    blocks_per_pair: list = [[] for _ in range(m)]
    for bi, b in enumerate(blocks):
        bset = set(b)
        for pi, (u, v) in enumerate(pairs):
            if u in bset and v in bset:
                blocks_per_pair[pi].append(bi)

    def greedy() -> list:
        covered = 0
        out = []
        while covered != full:
            bi = max(
                range(len(blocks)),
                key=lambda i: ((masks[i] & ~covered).bit_count(), -i),
            )
            out.append(bi)
            covered |= masks[bi]
        return out

    greedy_blocks = greedy()
    per_block = s * (s - 1) // 2
    lb0, _ = steiner_bounds(n, s)
    hi = len(greedy_blocks) if max_value is None else max_value

    chosen: list = []
    found: list | None = None
    nodes = 0

    def dfs(covered: int, used: int, k: int) -> bool:
        nonlocal nodes, found
        nodes += 1
        if nodes > node_cap:
            raise _NodeCapHit
        if covered == full:
            found = chosen.copy()
            return True
        if used == k:
            return False
        uncovered = full & ~covered
        if used + -(-(uncovered.bit_count()) // per_block) > k:
            return False
        p = (uncovered & -uncovered).bit_length() - 1
        if used == 0:
            cands = [blocks.index(tuple(range(s)))]
        else:
            cands = sorted(
                blocks_per_pair[p],
                key=lambda bi: (-((masks[bi] & uncovered).bit_count()), bi),
            )
        for bi in cands:
            chosen.append(bi)
            if dfs(covered | masks[bi], used + 1, k):
                return True
            chosen.pop()
        return False

    proven_lower = lb0
    exhausted_any = False
    for k in range(lb0, hi + 1):
        chosen.clear()
        found = None
        nodes = 0
        try:
            ok = dfs(0, 0, k)
        except _NodeCapHit:
            cover = CliqueCover(n, s, tuple(blocks[i] for i in greedy_blocks))
            return CliqueCoverResult(
                proven_lower, len(greedy_blocks), cover, False, exhausted_any
            )
        if ok:
            assert found is not None
            cover = CliqueCover(n, s, tuple(blocks[i] for i in found))
            return CliqueCoverResult(k, k, cover, True, exhausted_any or k == lb0)
        proven_lower = k + 1
        exhausted_any = True

    cover = CliqueCover(n, s, tuple(blocks[i] for i in greedy_blocks))
    upper = len(greedy_blocks)
    return CliqueCoverResult(
        proven_lower, upper, cover, proven_lower == upper, exhausted_any
    )
