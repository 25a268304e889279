"""Planarity testing, straight-line grid drawings, dual-graph bounds, and
the enumeration of small triangulations.

``is_planar`` decides planarity without an embedding: edge counts, a
reduction that keeps planarity, and Kuratowski's theorem on six
vertices settle most graphs, and only the rest go to networkx.
Embeddings and the shift-method coordinates are obtained from networkx;
every drawing produced here is re-certified from scratch by the exact
rational verifier before being returned, so the external library is
never trusted for correctness claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import networkx as nx

from .drawing import Drawing, verify_crossing_free
from .graphs import Graph, bfs_layers, brute_force_isomorphic, complete_graph, to_networkx

__all__ = [
    "PlaneEmbedding",
    "TrackAssignment",
    "DualBoundResult",
    "is_planar",
    "planarity_test",
    "validate_embedding",
    "grid_drawing",
    "dual_circumference_bound",
    "tree_tracks",
    "triangulations",
    "DUAL_BUDGET_N",
]

DUAL_BUDGET_N = 14


@dataclass(frozen=True)
class PlaneEmbedding:
    """Combinatorial plane embedding, given by its faces.

    Each face is a vertex cycle ``(v0, v1, ..., vk-1)`` standing for the
    directed boundary edges ``(v0,v1), ..., (vk-1,v0)``.
    """

    faces: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TrackAssignment:
    """Assignment of vertices to integer tracks (levels)."""

    track_of: tuple[int, ...]


class DualBoundResult(NamedTuple):
    """Lower bound derived from the circumference of the dual graph."""

    lower_bound: int
    c_dual: int
    exact: bool
    cycle: tuple[int, ...]
    dual_adj: tuple[tuple[int, ...], ...]


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


def is_planar(adj: dict) -> bool:
    """Whether the simple graph ``adj`` (vertex -> set of neighbours) is
    planar; ``adj`` is consumed (reduced in place).

    Edge counts decide first, then again after ``_reduce``.  A reduced
    graph has minimum degree 3, so one the counts leave open has five
    vertices and nine edges (K5 minus an edge, planar), or six vertices
    and 9 to 12 edges (``_six_vertex_planar``), or more and goes to
    ``nx.check_planarity``, which is asked for no embedding.
    """
    verdict = _count_verdict(adj)
    if verdict is None:
        verdict = _count_verdict(_reduce(adj))
    if verdict is not None:
        return verdict
    if len(adj) <= 6:
        return len(adj) < 6 or _six_vertex_planar(adj)
    h = nx.Graph()
    h.add_edges_from((u, w) for u, nb in adj.items() for w in nb if u < w)
    return nx.check_planarity(h)[0]


def _faces_from_nx(g: Graph, emb: nx.PlanarEmbedding) -> list[tuple[int, ...]]:
    marked: set[tuple[int, int]] = set()
    faces: list[tuple[int, ...]] = []
    for v in range(g.n):
        for w in sorted(g.adj[v]):
            if (v, w) not in marked:
                face = emb.traverse_face(v, w, mark_half_edges=marked)
                faces.append(tuple(face))
    return faces


def planarity_test(g: Graph) -> PlaneEmbedding | None:
    """Return a plane embedding of ``g``, or ``None`` if none exists."""
    ok, emb = nx.check_planarity(to_networkx(g), counterexample=False)
    if not ok:
        return None
    embedding = PlaneEmbedding(faces=tuple(_faces_from_nx(g, emb)))
    validate_embedding(g, embedding)
    return embedding


def validate_embedding(g: Graph, emb: PlaneEmbedding) -> None:
    """Check structural sanity of an embedding; raise ``ValueError`` if bad.

    Validates that every directed edge lies on exactly one face
    boundary, and that each connected component satisfies
    ``n - m + f = 2`` with the outer face counted.
    """
    seen: dict[tuple[int, int], int] = {}
    for idx, face in enumerate(emb.faces):
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
    for face in emb.faces:
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
    ok, emb = nx.check_planarity(to_networkx(g), counterexample=False)
    if not ok:
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
        emb = planarity_test(g)
        face = min(f for f in emb.faces if len(f) == 3)
        g = Graph(v + 1, set(g.edges) | {(a, v) for a in face})
    return g


def _flip_neighbours(g: Graph):
    """All single diagonal flips of an edge-maximal planar graph."""
    emb = planarity_test(g)
    opposite: dict = {}
    for face in emb.faces:
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


def _circumference(adj: list[list[int]]) -> tuple[int, list[int]]:
    """Exact longest-cycle length in a small graph, with a witness cycle.

    Anchored DFS: cycles are enumerated at their minimum vertex, with a
    reachability prune and early exit on a Hamiltonian cycle.
    """
    n = len(adj)
    best = 0
    best_cycle: list[int] = []
    onpath = [False] * n

    def reach_and_closable(w: int, s: int) -> tuple[int, bool]:
        # BFS from w over vertices not on the path; count them and check
        # whether the anchor s stays adjacent to the reachable region.
        seen = {w}
        queue = [w]
        closable = s in adj[w]
        while queue:
            u = queue.pop()
            for x in adj[u]:
                if x == s:
                    closable = True
                elif x > s and not onpath[x] and x not in seen:
                    seen.add(x)
                    queue.append(x)
        return len(seen), closable

    path: list[int] = []

    def dfs(u: int, s: int) -> None:
        nonlocal best, best_cycle
        if best == n:
            return
        for w in adj[u]:
            if w == s:
                if len(path) >= 3 and len(path) > best:
                    best = len(path)
                    best_cycle = path.copy()
            elif w > s and not onpath[w]:
                free, closable = reach_and_closable(w, s)
                if closable and len(path) + free > best:
                    onpath[w] = True
                    path.append(w)
                    dfs(w, s)
                    path.pop()
                    onpath[w] = False

    for s in range(n):
        if best == n:
            break
        onpath[s] = True
        path.append(s)
        dfs(s, s)
        path.pop()
        onpath[s] = False
    return best, best_cycle


def dual_circumference_bound(g: Graph) -> DualBoundResult:
    """Bound from the dual of a triangulation: ``ceil((2n-4)/c(dual))``.

    Requires a planar triangulation (``n >= 4`` and ``m = 3n-6``).  For
    ``n`` beyond the search budget the circumference is replaced by its
    trivial upper bound ``2n-4`` and the result is flagged inexact.
    """
    if g.n < 4 or g.m != 3 * g.n - 6:
        raise ValueError("graph is not a planar triangulation")
    emb = planarity_test(g)
    if emb is None:
        raise ValueError("graph is not a planar triangulation")
    num_faces = 2 * g.n - 4
    if g.n > DUAL_BUDGET_N:
        return DualBoundResult(
            lower_bound=1, c_dual=num_faces, exact=False, cycle=(), dual_adj=()
        )
    faces = emb.faces
    if len(faces) != num_faces or any(len(f) != 3 for f in faces):
        raise ValueError("embedding faces are not all triangles")
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for idx, face in enumerate(faces):
        for i in range(3):
            u, v = face[i], face[(i + 1) % 3]
            edge_faces.setdefault((min(u, v), max(u, v)), []).append(idx)
    dual_adj: list[list[int]] = [[] for _ in faces]
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise ValueError(f"edge {e} does not lie on exactly two faces")
        a, b = fs
        dual_adj[a].append(b)
        dual_adj[b].append(a)
    for row in dual_adj:
        if len(row) != 3 or len(set(row)) != 3:
            raise ValueError("dual graph is not simple cubic")
        row.sort()
    c, cycle = _circumference(dual_adj)
    lower = -(-num_faces // c)
    return DualBoundResult(
        lower_bound=lower,
        c_dual=c,
        exact=True,
        cycle=tuple(cycle),
        dual_adj=tuple(tuple(r) for r in dual_adj),
    )


# ---------------------------------------------------------------------------
# tree tracks
# ---------------------------------------------------------------------------


def tree_tracks(g: Graph, root: int) -> TrackAssignment:
    """Assign each vertex of a tree its distance from ``root``.

    Every edge then spans two adjacent tracks.  Raises ``ValueError``
    for graphs that are not trees (cyclic or disconnected).
    """
    if not 0 <= root < g.n:
        raise ValueError("root out of range")
    dist = bfs_layers(g, root)
    if g.m != g.n - 1 or -1 in dist:
        raise ValueError("input graph is not a tree")
    track_of = tuple(dist)
    for u, v in g.edges:
        if abs(track_of[u] - track_of[v]) != 1:
            raise AssertionError("tree edge must span adjacent tracks")
    return TrackAssignment(track_of=track_of)
