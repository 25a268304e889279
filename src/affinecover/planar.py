"""Planarity testing, straight-line grid drawings, the dual-circumference
bound, and the enumeration of small triangulations.

``is_planar`` decides planarity without an embedding: edge counts, a
reduction that keeps planarity, and Kuratowski's theorem on six
vertices settle most graphs, and the boolean phase of the left-right
planarity test decides the rest.  This is the only module that imports
networkx, and ``_nx_embedding`` is its only planarity call: it supplies
the embeddings behind ``planarity_test`` and the shift-method
coordinates of ``grid_drawing``.  Every embedding is checked by
``validate_embedding`` and every drawing produced here is re-certified
from scratch by the exact rational verifier before being returned, so
the external library is never trusted for correctness claims.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

# imported eagerly: perfbench/startup.py times it as part of ``import affinecover.cli``
import networkx as nx

from .drawing import Drawing, verify_crossing_free
from .graphs import Graph, bfs_layers, brute_force_isomorphic, complete_graph

__all__ = [
    "DualBoundResult",
    "is_planar",
    "planarity_test",
    "validate_embedding",
    "grid_drawing",
    "dual_circumference_bound",
    "tree_tracks",
    "triangulations",
]


class DualBoundResult(NamedTuple):
    """Lower bound derived from the circumference of the dual graph."""

    lower_bound: int
    c_dual: int
    exact: bool


# ---------------------------------------------------------------------------
# planarity
# ---------------------------------------------------------------------------


def _count_verdict(adj: dict) -> bool | None:
    """Planarity of the simple graph ``adj`` (vertex -> set of neighbours)
    when its edge count decides it, else ``None``: at most 8 edges is
    planar (K3,3 has 9, K5 has 10), more than 3k - 6 edges on k vertices
    is not (Euler; k >= 5 once there are 9 edges)."""
    m = sum(map(len, adj.values())) // 2
    if m <= 8:
        return True
    if m > 3 * len(adj) - 6:
        return False
    return None


def _reduce(adj: dict) -> dict:
    """Delete vertices of degree <= 1 and suppress vertices of degree 2
    (join their two neighbours, dropping a parallel edge) until none is
    left, in place.  Both steps preserve planarity in either direction."""
    # no step raises a degree, so a stacked vertex still has degree <= 2
    stack = [u for u, nb in adj.items() if len(nb) <= 2]
    while stack:
        u = stack.pop()
        nb = adj.pop(u, None)
        if nb is None:
            continue
        for w in nb:
            adj[w].discard(u)
        if len(nb) == 2:
            x, y = nb
            adj[x].add(y)
            adj[y].add(x)
        stack.extend(w for w in nb if len(adj[w]) <= 2)
    return adj


#: The ten vertex triples of {0..5} that hold vertex 0: one side of each
#: split of six vertices into two triples.
_TRIPLES = tuple(t for t in range(64) if t & 1 and t.bit_count() == 3)


def _six_vertex_planar(adj: dict) -> bool:
    """Planarity of a graph on six vertices with minimum degree 3 and at
    most 12 edges: it is planar iff it has no K3,3 subgraph.

    By Kuratowski's theorem a non-planar graph contains a subdivision of
    K5 or K3,3; on six vertices that is K3,3, K5, or K5 with an edge ab
    subdivided by a vertex s.  K5 plus a vertex of degree 3 has 13
    edges.  The vertex s has a third neighbour c, and {a, b, c} with the
    other three vertices spans K3,3.
    """
    index = {u: i for i, u in enumerate(adj)}
    rows = [sum(1 << index[w] for w in adj[u]) for u in adj]
    for a in _TRIPLES:
        b = 63 ^ a
        if all(rows[i] & b == b for i in range(6) if a >> i & 1):
            return False
    return True


def _lowest(pair: list, lowpt: list) -> int:
    """The least lowpoint of the return edges in a conflict pair."""
    left, right = pair[0], pair[2]
    if left is None:
        return lowpt[right]
    if right is None:
        return lowpt[left]
    return min(lowpt[left], lowpt[right])


def _left_right_planar(nbrs: list) -> bool:
    """Whether the simple graph with neighbour lists ``nbrs`` (on vertices
    0..n-1) is planar, by the left-right planarity test (de Fraysseix &
    Rosenstiehl; Brandes, "The Left-Right Planarity Test", 2009).

    Only the DFS orientation and the conflict-pair testing run: no sides
    are recorded and no embedding is built.  Both depth-first searches
    keep explicit stacks, so deep graphs cannot exhaust the recursion
    limit.  Edges are numbered as the orientation meets them; a conflict
    pair is a list ``[left low, left high, right low, right high]`` of
    return edges, ``None`` where an interval is empty, and ``ref`` links
    each return edge to the next lower one of its interval.
    """
    n = len(nbrs)
    height = [-1] * n
    up = [-1] * n  # parent vertex in the DFS tree
    parent = [-1] * n  # tree edge into the vertex, -1 at a root
    out: list = [[] for _ in range(n)]  # edges oriented away from the vertex
    dst: list = []
    lowpt: list = []
    lowpt2: list = []
    nesting: list = []
    roots = []
    nxt = [0] * n
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i < len(nbrs[v]):
                nxt[v] = i + 1
                w = nbrs[v][i]
                if height[w] < 0:  # tree edge, finished once w is
                    parent[w] = len(dst)
                    up[w] = v
                    height[w] = height[v] + 1
                    out[v].append(len(dst))
                    dst.append(w)
                    lowpt.append(height[v])
                    lowpt2.append(height[v])
                    nesting.append(0)
                    stack.append(w)
                    continue
                if height[w] >= height[v] or w == up[v]:
                    continue  # oriented already, from w or as v's tree edge
                ei = len(dst)  # back edge
                out[v].append(ei)
                dst.append(w)
                lowpt.append(height[w])
                lowpt2.append(height[v])
                nesting.append(0)
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                v = up[v]
            lo, lo2 = lowpt[ei], lowpt2[ei]
            nesting[ei] = 2 * lo + (lo2 < height[v])  # +1 when chordal
            e = parent[v]
            if e >= 0:
                if lo < lowpt[e]:
                    lowpt2[e] = min(lowpt[e], lo2)
                    lowpt[e] = lo
                elif lo > lowpt[e]:
                    lowpt2[e] = min(lowpt2[e], lo)
                else:
                    lowpt2[e] = min(lowpt2[e], lo2)

    for edges in out:
        edges.sort(key=nesting.__getitem__)
    m = len(dst)
    ref: list = [None] * m
    bottom: list = [None] * m  # top of the conflict stack when an edge starts
    pairs: list = []

    def add_constraints(ei: int, e: int) -> bool:
        # merge the return edges of ei into the right interval of a new pair
        left_lo = left_hi = right_lo = right_hi = None
        while True:
            ql, qh, rl, rh = pairs.pop()
            if ql is not None:
                ql, qh, rl, rh = rl, rh, ql, qh
            if ql is not None:
                return False
            if lowpt[rl] > lowpt[e]:
                if right_lo is None:
                    right_hi = rh
                else:
                    ref[right_lo] = rh
                right_lo = rl
            if (pairs[-1] if pairs else None) is bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into the
        # left interval
        low = lowpt[ei]
        while True:
            ql, qh, rl, rh = pairs[-1]
            if not (qh is not None and lowpt[qh] > low or rh is not None and lowpt[rh] > low):
                break
            pairs.pop()
            if rh is not None and lowpt[rh] > low:
                ql, qh, rl, rh = rl, rh, ql, qh
            if rh is not None and lowpt[rh] > low:
                return False
            ref[right_lo] = rh
            if rl is not None:
                right_lo = rl
            if left_lo is None:
                left_hi = qh
            else:
                ref[left_lo] = qh
            left_lo = ql
        if left_lo is not None or right_lo is not None:
            pairs.append([left_lo, left_hi, right_lo, right_hi])
        return True

    def remove_back_edges(u: int) -> None:
        # drop the pairs whose return edges all end at u, then trim the
        # edges ending at u from the top of the next pair
        while pairs and _lowest(pairs[-1], lowpt) == height[u]:
            pairs.pop()
        if pairs:
            pair = pairs[-1]
            for lo, hi in ((0, 1), (2, 3)):
                top = pair[hi]
                while top is not None and dst[top] == u:
                    top = ref[top]
                pair[hi] = top
                if top is None:
                    pair[lo] = None

    nxt = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i < len(out[v]):
                ei = out[v][i]
                bottom[ei] = pairs[-1] if pairs else None
                if parent[dst[ei]] == ei:
                    stack.append(dst[ei])
                    continue
                pairs.append([None, None, ei, ei])
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                v = up[v]
                remove_back_edges(v)
                i = nxt[v]
            nxt[v] = i + 1
            # the first edge of v leaves its return edges where they are
            if i and lowpt[ei] < height[v] and not add_constraints(ei, parent[v]):
                return False
    return True


def is_planar(adj: dict) -> bool:
    """Whether the simple graph ``adj`` (vertex -> set of neighbours) is
    planar; ``adj`` is consumed (reduced in place).

    Edge counts decide first, then again after ``_reduce``.  A reduced
    graph has minimum degree 3, so one the counts leave open has five
    vertices and nine edges (K5 minus an edge, planar), or six vertices
    and 9 to 12 edges (``_six_vertex_planar``), or more and goes to
    ``_left_right_planar``.
    """
    verdict = _count_verdict(adj)
    if verdict is None:
        verdict = _count_verdict(_reduce(adj))
    if verdict is not None:
        return verdict
    if len(adj) <= 6:
        return len(adj) < 6 or _six_vertex_planar(adj)
    index = {u: i for i, u in enumerate(adj)}
    return _left_right_planar([[index[w] for w in nb] for nb in adj.values()])


def _nx_embedding(g: Graph) -> nx.PlanarEmbedding | None:
    """A networkx plane embedding of ``g``, or ``None`` if ``g`` is not
    planar: the package's one call into networkx's planarity test."""
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges)
    ok, emb = nx.check_planarity(ng, counterexample=False)
    return emb if ok else None


def planarity_test(g: Graph) -> tuple | None:
    """The faces of a plane embedding of ``g``, checked by
    :func:`validate_embedding`, or ``None`` if ``g`` is not planar.

    Each face is a vertex cycle ``(v0, v1, ..., vk-1)`` standing for the
    directed boundary edges ``(v0,v1), ..., (vk-1,v0)``.
    """
    emb = _nx_embedding(g)
    if emb is None:
        return None
    marked: set[tuple[int, int]] = set()
    faces = tuple(
        tuple(emb.traverse_face(v, w, mark_half_edges=marked))
        for v in range(g.n)
        for w in sorted(g.adj[v])
        if (v, w) not in marked
    )
    validate_embedding(g, faces)
    return faces


def validate_embedding(g: Graph, faces: tuple) -> None:
    """Check structural sanity of a plane embedding's faces; raise
    ``ValueError`` if bad.

    Validates that every directed edge lies on exactly one face
    boundary, and that each connected component satisfies
    ``n - m + f = 2`` with the outer face counted.
    """
    seen: dict[tuple[int, int], int] = {}
    for idx, face in enumerate(faces):
        k = len(face)
        for i in range(k):
            e = (face[i], face[(i + 1) % k])
            if not g.has_edge(*e):
                raise ValueError(f"face {idx} uses non-edge {e}")
            if e in seen:
                raise ValueError(f"directed edge {e} appears on two faces")
            seen[e] = idx
    expected = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
    if set(seen) != expected:
        raise ValueError("some directed edge lies on no face")
    comp_of = {}
    comps = g.components()
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    face_count = [0] * len(comps)
    for face in faces:
        face_count[comp_of[face[0]]] += 1
    for ci, comp in enumerate(comps):
        n_c = len(comp)
        m_c = sum(1 for u, v in g.edges if comp_of[u] == ci)
        f_c = face_count[ci] if m_c > 0 else 1
        if n_c - m_c + f_c != 2:
            raise ValueError(f"Euler relation fails on component {ci}")


# ---------------------------------------------------------------------------
# grid drawing (shift method)
# ---------------------------------------------------------------------------


def grid_drawing(g: Graph) -> Drawing:
    """Crossing-free straight-line drawing on the integer grid.

    Coordinates lie in ``[0, 2n-4] x [0, n-2]`` for ``n >= 4``.  The
    graph must be planar; the embedding is triangulated internally and
    the extra edges are discarded afterwards.  The returned drawing has
    been certified crossing-free by the exact verifier.
    """
    emb = _nx_embedding(g)
    if emb is None:
        raise ValueError("graph is not planar")
    pos = nx.combinatorial_embedding_to_pos(emb, fully_triangulate=True)
    points = [
        (Fraction(int(pos[v][0])), Fraction(int(pos[v][1]))) for v in range(g.n)
    ]
    d = Drawing(graph=g, points=tuple(points), meta={"construction": "grid_drawing"})
    return verify_crossing_free(d)


# ---------------------------------------------------------------------------
# enumerating triangulations
# ---------------------------------------------------------------------------


def _iso_key(g: Graph) -> tuple:
    """Isomorphism invariant: order, size, degree sequence, triangle count."""
    degs = tuple(sorted(g.degree(v) for v in range(g.n)))
    return (g.n, g.m, degs, sum(len(g.adj[u] & g.adj[v]) for u, v in g.edges) // 3)


def _stacked_triangulation(n: int) -> Graph:
    """Start from K4 and repeatedly subdivide the smallest triangular face."""
    g = complete_graph(4)
    for v in range(4, n):
        face = min(f for f in planarity_test(g) if len(f) == 3)
        g = Graph(v + 1, set(g.edges) | {(a, v) for a in face})
    return g


def _flip_neighbours(g: Graph):
    """All single diagonal flips of an edge-maximal planar graph."""
    opposite: dict = {}
    for face in planarity_test(g):
        if len(face) != 3:
            continue
        a, b, c = face
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            key = (u, v) if u < v else (v, u)
            opposite.setdefault(key, []).append(w)
    for (u, v), opps in opposite.items():
        if len(opps) != 2:
            continue
        a, b = opps
        if a == b or a in g.adj[b]:
            continue
        edges = set(g.edges)
        edges.discard((u, v))
        edges.add((a, b) if a < b else (b, a))
        yield Graph(g.n, edges)


def triangulations(n: int) -> list:
    """Every edge-maximal planar graph on n >= 4 vertices, one per
    isomorphism class, found by flip search from a stacked start."""
    start = _stacked_triangulation(n)
    buckets = {_iso_key(start): [start]}
    reps = [start]
    queue = [start]
    while queue:
        g = queue.pop()
        for h in _flip_neighbours(g):
            bucket = buckets.setdefault(_iso_key(h), [])
            if any(brute_force_isomorphic(h, r) for r in bucket):
                continue
            bucket.append(h)
            reps.append(h)
            queue.append(h)
    return reps


# ---------------------------------------------------------------------------
# dual circumference bound
# ---------------------------------------------------------------------------


def dual_circumference_bound(g: Graph) -> DualBoundResult:
    """Bound from the dual of a triangulation: ``ceil((2n-4)/c(dual))``,
    decided by theorem, without building the dual or searching it.

    Requires a planar triangulation (``n >= 4``, ``m = 3n-6`` and
    ``is_planar``).  Its dual is a 3-connected cubic planar graph on
    ``2n-4`` vertices, and every such graph with fewer than 38 vertices
    is Hamiltonian (Holton & McKay, JCTB 45, 1988).  So for ``n <= 20``
    the circumference is ``2n-4`` and the bound is exactly 1.  Past that,
    ``c(dual) <= 2n-4`` gives the same bound 1, flagged inexact.
    """
    if g.n < 4 or g.m != 3 * g.n - 6 or not is_planar({u: set(g.adj[u]) for u in range(g.n)}):
        raise ValueError("graph is not a planar triangulation")
    return DualBoundResult(lower_bound=1, c_dual=2 * g.n - 4, exact=g.n <= 20)


# ---------------------------------------------------------------------------
# tree tracks
# ---------------------------------------------------------------------------


def tree_tracks(g: Graph, root: int) -> tuple[int, ...]:
    """The track of each vertex of a tree: its distance from ``root``.

    Every edge then spans two adjacent tracks.  Raises ``ValueError``
    for graphs that are not trees (cyclic or disconnected).
    """
    if not 0 <= root < g.n:
        raise ValueError("root out of range")
    dist = bfs_layers(g, root)
    if g.m != g.n - 1 or -1 in dist:
        raise ValueError("input graph is not a tree")
    return tuple(dist)
