"""Independent oracles shared by the test modules.

They use a different method from the program's kernel, so a test that
compares the two does not check the kernel against itself.
"""

from __future__ import annotations

from fractions import Fraction


def classify_oracle(a, b, c, d):
    """How segments [a, b] and [c, d] meet, by solving
    a + t(b - a) = c + s(d - c) exactly.

    Returns ``"shared_endpoint_only"`` when the segments share exactly
    one point and it is an endpoint of both, ``"disjoint"`` when they
    share none, and ``"crossing"`` for every other contact (interior
    crossing, collinear overlap, an endpoint inside the other segment,
    identical segments).

    Non-parallel segments meet in at most one point, found from the
    parameters t and s; parallel ones meet only on a common line, where
    c and d become parameters along [a, b] and the overlap of [0, 1]
    with [t_c, t_d] decides.
    """
    a, b, c, d = ([Fraction(x) for x in p] + [Fraction(0)] * (3 - len(p)) for p in (a, b, c, d))
    sub = lambda p, q: [x - y for x, y in zip(p, q)]  # noqa: E731
    dot = lambda p, q: sum(x * y for x, y in zip(p, q))  # noqa: E731
    cross = lambda p, q: [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]  # noqa: E731
    u, v, w = sub(b, a), sub(d, c), sub(c, a)
    n = cross(u, v)
    if any(n):
        t = dot(cross(w, v), n) / dot(n, n)
        s = dot(cross(w, u), n) / dot(n, n)
        p = [x + t * y for x, y in zip(a, u)]
        if p != [x + s * y for x, y in zip(c, v)] or not (0 <= t <= 1 and 0 <= s <= 1):
            return "disjoint"  # skew lines, or the crossing point is off a segment
        return "shared_endpoint_only" if t in (0, 1) and s in (0, 1) else "crossing"
    if any(cross(u, w)):
        return "disjoint"  # parallel, on different lines
    tc, td = sorted((dot(w, u) / dot(u, u), dot(sub(d, a), u) / dot(u, u)))
    lo, hi = max(0, tc), min(1, td)
    return "disjoint" if lo > hi else "crossing" if lo < hi else "shared_endpoint_only"


def segment_count_oracle(edge_groups):
    """Maximal connected edge paths over groups of collinear edges: the
    union-find that ``drawing.segment_slope_count`` ran before it read
    the count off the shared endpoints.

    ``edge_groups`` holds one sequence of edges per line; two edges of a
    group that share a vertex join one segment.
    """
    segments = 0
    for es in edge_groups:
        parent = {e: e for e in es}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        by_vertex: dict = {}
        for e in es:
            for v in e:
                ra, rb = find(by_vertex.setdefault(v, e)), find(e)
                if ra != rb:
                    parent[ra] = rb
        segments += len({find(e) for e in es})
    return segments


def degeneracy_oracle(g):
    """Treewidth lower bound: the largest degree met while deleting the
    vertex of least (degree, index), found by a scan of every live
    vertex at each step, as ``solvers._degeneracy`` did before its heap."""
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


def greedy_elimination_oracle(g):
    """Treewidth upper bound: the width of the min-degree elimination
    order, each pick a scan of every remaining vertex, as
    ``solvers._greedy_elimination_width`` did before its heap."""
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
