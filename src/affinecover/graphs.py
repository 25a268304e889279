"""Graph representation, named graph families, and structural predicates.

Vertices are dense 0-based indices; edges are stored as sorted pairs.
Family constructors document their vertex numbering so that drawings
built on top of them are reproducible byte-for-byte.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        norm = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) endpoint out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple:
        nbrs = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def components(self) -> list:
        seen = set()
        comps = []
        for s in range(self.n):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            seen.add(s)
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def induced(self, part: Iterable[int]) -> "Graph":
        """Induced subgraph re-indexed densely in sorted vertex order."""
        verts = sorted(set(part))
        idx = {v: i for i, v in enumerate(verts)}
        edges = [
            (idx[u], idx[v]) for u, v in self.edges if u in idx and v in idx
        ]
        return Graph(len(verts), edges)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance: kind plus integer parameters."""

    kind: str
    params: tuple

    def __init__(self, kind: str, params: Sequence[int]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", tuple(int(p) for p in params))


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, itertools.combinations(range(n), 2))


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} with the size-p class on vertices 0..p-1, requires p <= q."""
    if p < 1 or q < 1:
        raise ValueError("complete bipartite needs p, q >= 1")
    if p > q:
        raise ValueError("complete bipartite requires p <= q")
    return Graph(p + q, ((i, p + j) for i in range(p) for j in range(q)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) maps to index u*h.n + v."""
    edges = []
    for u in range(g.n):
        for a, b in h.edges:
            edges.append((u * h.n + a, u * h.n + b))
    for v in range(h.n):
        for a, b in g.edges:
            edges.append((a * h.n + v, b * h.n + v))
    return Graph(g.n * h.n, edges)


def nested_triangles(k: int) -> Graph:
    """k nested triangles (product of a k-path with a triangle).

    Ring-major numbering: ring i occupies vertices 3i..3i+2.
    """
    if k < 1:
        raise ValueError("nested_triangles needs k >= 1")
    return cartesian_product(path_graph(k), cycle_graph(3))


def nested_squares(k: int) -> Graph:
    """k nested 4-cycles joined by centrally-symmetric diagonal connectors.

    Ring-major numbering: ring i occupies vertices 4i..4i+3, corners
    counterclockwise starting from the (+,+) corner.  Consecutive rings
    are joined at corners {0,2} when the inner ring index is even and
    at corners {1,3} when it is odd, so every vertex has degree <= 3.
    """
    if k < 1:
        raise ValueError("nested_squares needs k >= 1")
    edges = []
    for i in range(k):
        for c in range(4):
            edges.append((4 * i + c, 4 * i + (c + 1) % 4))
    for i in range(k - 1):
        corners = (0, 2) if i % 2 == 0 else (1, 3)
        for c in corners:
            edges.append((4 * i + c, 4 * (i + 1) + c))
    return Graph(4 * k, edges)


def c4_prism_stack(k: int) -> Graph:
    """Product of a k-path with a 4-cycle; ring-major numbering."""
    if k < 1:
        raise ValueError("c4_prism_stack needs k >= 1")
    return cartesian_product(path_graph(k), cycle_graph(4))


def complete_binary_tree(h: int) -> Graph:
    """Complete binary tree of height h in heap order (children 2v+1, 2v+2)."""
    if h < 0:
        raise ValueError("complete_binary_tree needs height h >= 0")
    n = 2 ** (h + 1) - 1
    return Graph(n, [(v, c) for v in range(n) for c in (2 * v + 1, 2 * v + 2) if c < n])


def caterpillar(spine: int, leaf_counts: Sequence[int]) -> Graph:
    """Spine path 0..spine-1; leaves appended in spine order."""
    if spine < 1 or len(leaf_counts) != spine or any(c < 0 for c in leaf_counts):
        raise ValueError("caterpillar needs spine >= 1 and one leaf count per spine vertex")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i, cnt in enumerate(leaf_counts):
        for _ in range(cnt):
            edges.append((i, nxt))
            nxt += 1
    return Graph(nxt, edges)


def multipartite_classes(r: int, n: int) -> list:
    """The vertex classes of ``balanced_multipartite(r, n)``."""
    base, extra = divmod(n, r)
    starts = [i * base + min(i, extra) for i in range(r + 1)]
    return [list(range(starts[i], starts[i + 1])) for i in range(r)]


def balanced_multipartite(r: int, n: int) -> Graph:
    """Complete r-partite graph on n vertices, class sizes as equal as
    possible; class-major numbering with the larger classes first."""
    if r < 1 or n < r:
        raise ValueError("balanced_multipartite needs 1 <= r <= n")
    pairs = itertools.combinations(multipartite_classes(r, n), 2)
    return Graph(n, ((u, v) for a, b in pairs for u in a for v in b))


def triangulated_square_wheel() -> Graph:
    """9-vertex planar triangulation: hub 0 joined to an 8-cycle rim.

    Rim vertices 1..8 in cyclic order (odd indices are the corners of a
    square, even indices its edge midpoints); the four corner chords and
    one corner diagonal triangulate the outside of the wheel.  A planar
    triangulation that needs three linear-forest classes.
    """
    rim = [(i, i % 8 + 1) for i in range(1, 9)]
    hub = [(0, i) for i in range(1, 9)]
    chords = [(1, 3), (3, 5), (5, 7), (1, 7), (3, 7)]
    return Graph(9, rim + hub + chords)


def _multipartite_size(r: int, n: int) -> tuple:
    base, extra = divmod(n, max(r, 1))
    same_class = extra * (base + 1) * base // 2 + (r - extra) * base * (base - 1) // 2
    return n, n * (n - 1) // 2 - same_class


#: Family kind -> (constructor called with the ``FamilySpec`` parameters,
#: the (vertices, edges) of the graph it builds from them).
_FAMILIES = {
    "complete": (complete_graph, lambda n: (n, n * (n - 1) // 2)),
    "complete_bipartite": (complete_bipartite, lambda p, q: (p + q, p * q)),
    "cycle": (cycle_graph, lambda n: (n, n)),
    "path": (path_graph, lambda n: (n, n - 1)),
    "nested_triangles": (nested_triangles, lambda k: (3 * k, 6 * k - 3)),
    "nested_squares": (nested_squares, lambda k: (4 * k, 6 * k - 2)),
    "c4_prism_stack": (c4_prism_stack, lambda k: (4 * k, 8 * k - 4)),
    # heights over 63 are clamped: far over the limit, and 2 ** h is costly
    "complete_binary_tree": (complete_binary_tree, lambda h: (n := 2 ** min(h + 1, 64) - 1, n - 1)),
    "caterpillar": (
        lambda spine, *leaf_counts: caterpillar(spine, leaf_counts),
        lambda spine, *leaf_counts: (spine + sum(leaf_counts), spine + sum(leaf_counts) - 1),
    ),
    "balanced_multipartite": (balanced_multipartite, _multipartite_size),
}

FAMILY_KINDS = tuple(_FAMILIES)

#: The largest graph any input path builds, in vertices and in edges:
#: ``build_family`` and both ``parse_graph`` formats check it before
#: building anything.  It lies far above every size the tests, the README
#: and the benchmark use (complete_binary_tree:10 has 2,047 vertices),
#: and far below one that would take a sizeable share of memory (each
#: edge costs some 80 bytes, so complete:800 takes 49 MiB).
GRAPH_MAX_N = 10_000
GRAPH_MAX_M = 100_000


def _check_size(what: str, n: int, m: int) -> None:
    """Refuse a graph over ``GRAPH_MAX_N`` vertices or ``GRAPH_MAX_M``
    edges, before it is built."""
    if n > GRAPH_MAX_N or m > GRAPH_MAX_M:
        raise ValueError(
            f"{what} is too large: "
            f"the limit is {GRAPH_MAX_N} vertices and {GRAPH_MAX_M} edges"
        )


def build_family(spec: FamilySpec) -> Graph:
    """The graph of ``spec``; a ``ValueError`` for an unknown kind, a
    wrong parameter count, or an instance over ``GRAPH_MAX_N`` vertices
    or ``GRAPH_MAX_M`` edges, which is refused before anything is
    built."""
    kind, params = spec.kind, spec.params
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}")
    build, size = _FAMILIES[kind]
    try:
        # a negative parameter is left for the constructor to refuse
        n, m = size(*(max(p, 0) for p in params))
    except TypeError as exc:
        raise ValueError(f"bad parameter count for family {kind!r}: {params}") from exc
    _check_size(f"family {kind}:{','.join(map(str, params))}", n, m)
    return build(*params)


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------


def essential_vertices(g: Graph) -> frozenset:
    """Vertices of degree >= 3 or belonging to a triangle."""
    ess = {v for v in range(g.n) if g.degree(v) >= 3}
    for u, v in g.edges:
        if u in ess and v in ess:
            continue
        if g.adj[u] & g.adj[v]:
            ess.add(u)
            ess.add(v)
    return frozenset(ess)


def es_count(g: Graph) -> int:
    return len(essential_vertices(g))


def linear_forest_order(g: Graph, part: Iterable[int]) -> list | None:
    """The vertices of ``part`` path by path if they induce a linear
    forest, else None.

    Each path runs from its smaller end, and paths come in order of that
    end; an isolated vertex is a path of one vertex.  None means a vertex
    has more than two neighbours in ``part``, or the walks from the path
    ends miss a vertex, which then lies on a cycle.
    """
    part = set(part)
    if not part <= set(range(g.n)):
        raise ValueError("part contains vertices outside the graph")
    nbrs = {v: g.adj[v] & part for v in part}
    if any(len(s) > 2 for s in nbrs.values()):
        return None
    order: list = []
    seen: set = set()
    for end in sorted(v for v, s in nbrs.items() if len(s) <= 1):
        prev, cur = None, end
        while cur is not None and cur not in seen:
            seen.add(cur)
            order.append(cur)
            prev, cur = cur, next(iter(nbrs[cur] - {prev}), None)
    return order if len(order) == len(part) else None


def is_linear_forest(g: Graph, part: Iterable[int]) -> bool:
    """True iff the subgraph induced by ``part`` is a union of paths."""
    return linear_forest_order(g, part) is not None


def is_complete(g: Graph) -> bool:
    """True iff every pair of distinct vertices is joined by an edge."""
    return g.m == g.n * (g.n - 1) // 2


def complete_bipartite_shape(g: Graph) -> tuple[int, int] | None:
    """(p, q) with p <= q when g is exactly K_{p,q} with p >= 1, else None.

    A proper 2-colouring with sides of a and b vertices leaves at most
    a*b cross pairs, so g is complete bipartite iff it has a*b edges.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    a = color.count(0)
    b = g.n - a
    if a == 0 or b == 0 or g.m != a * b:
        return None
    return (a, b) if a <= b else (b, a)


def bfs_layers(g: Graph, root: int) -> list:
    """Distance from root for each vertex in root's component (-1 outside)."""
    dist = [-1] * g.n
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test, intended for graphs with <= 8 vertices."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    n = g.n
    mapping = [-1] * n
    used = [False] * n

    def extend(u: int) -> bool:
        if u == n:
            return True
        for w in range(n):
            if used[w] or h.degree(w) != g.degree(u):
                continue
            ok = True
            for x in g.adj[u]:
                if x < u and not h.has_edge(mapping[x], w):
                    ok = False
                    break
            if ok:
                for x in range(u):
                    if not g.has_edge(x, u) and h.has_edge(mapping[x], w):
                        ok = False
                        break
            if ok:
                mapping[u] = w
                used[w] = True
                if extend(u + 1):
                    return True
                used[w] = False
                mapping[u] = -1
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# parsing and encoding
# ---------------------------------------------------------------------------


# graph6 (McKay): a size prefix N(n), then the upper triangle of the
# adjacency matrix column by column -- bit k stands for the pair (i, j)
# with i < j and k = j(j-1)/2 + i -- six bits per byte, most significant
# first, padded with zeros; every 6-bit value v is written as v + 63.
# N(n) is one byte for n <= 62, byte 126 plus three for n <= 258047, and
# two bytes 126 plus six up to 2**36 - 1.
_G6_MAX_N = 2**36 - 1


def to_graph6(g: Graph) -> bytes:
    """graph6 bytes of ``g``, without header or trailing newline."""
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    elif n <= _G6_MAX_N:
        head = [63, 63, *(n >> shift & 63 for shift in range(30, -1, -6))]
    else:
        raise ValueError(f"graph6 holds at most {_G6_MAX_N} vertices, got {n}")
    body = bytearray(-(-n * (n - 1) // 12))
    for i, j in g.edges:
        k = j * (j - 1) // 2 + i
        body[k // 6] |= 32 >> k % 6
    return bytes(head).translate(_GRAPH6_CHARS) + body.translate(_GRAPH6_CHARS)


_GRAPH6_BYTES = bytes(range(63, 127))
_GRAPH6_VALUES = bytes(max(c - 63, 0) for c in range(256))  # translate table: byte -> its 6-bit value
_GRAPH6_CHARS = bytes((x + 63) % 256 for x in range(256))  # translate table: 6-bit value -> its byte


def _from_graph6(data: bytes) -> Graph:
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data:
        raise ValueError("empty graph6 string")
    if data.translate(None, _GRAPH6_BYTES):  # C-level passes: no per-byte Python
        raise ValueError("graph6 bytes must lie in range(63, 127)")
    vals = data.translate(_GRAPH6_VALUES)
    if vals[0] < 63:
        digits, body = vals[:1], vals[1:]
    elif len(vals) >= 4 and vals[1] < 63:
        digits, body = vals[1:4], vals[4:]
    elif len(vals) >= 8 and vals[1] == 63:
        digits, body = vals[2:8], vals[8:]
    else:
        raise ValueError("graph6 size prefix is truncated")
    n = 0
    for x in digits:
        n = n << 6 | x
    # the size checks come first: a hostile n or m builds no edge list
    _check_size(f"graph6 for n={n}", n, 0)
    pairs = n * (n - 1) // 2
    if len(body) != -(-pairs // 6):
        raise ValueError(f"graph6 for n={n} needs {-(-pairs // 6)} data bytes, got {len(body)}")
    # each byte holds six bits; the last 6 * len(body) - pairs are padding
    m = (int.from_bytes(body, "big") >> (6 * len(body) - pairs)).bit_count()
    _check_size(f"graph6 for n={n}, m={m}", n, m)
    edges = []
    j, start = 1, 0  # column j holds the pairs k in [start, start + j)
    for hit in re.finditer(rb"[^\0]", body):  # only the nonzero bytes hold edges
        pos = hit.start()
        x = body[pos]
        for r in range(6):
            k = 6 * pos + r
            if not x & 32 >> r or k >= pairs:
                continue  # a zero bit, or padding
            while k >= start + j:
                start += j
                j += 1
            edges.append((k - start, j))
    return Graph(n, edges)


def _parse_edge_list(text: bytes) -> Graph:
    edges = []
    seen = set()
    max_v = -1
    for lineno, raw in enumerate(text.decode("utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex index")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
        max_v = max(max_v, u, v)
    _check_size(f"edge list of n = {max_v + 1}, m = {len(edges)}", max_v + 1, len(edges))
    return Graph(max_v + 1, edges)


def parse_graph(text: bytes, format: str) -> Graph:
    """Parse graph6 or edge-list bytes into a Graph."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    if format == "graph6":
        try:
            return _from_graph6(text.strip())
        except ValueError as exc:
            raise ValueError(f"malformed graph6 input: {exc}") from None
    if format == "edge_list":
        return _parse_edge_list(text)
    raise ValueError(f"unknown graph format {format!r}")
