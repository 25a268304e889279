"""Independent oracles shared by the test modules, and the glue to
networkx, the reference library several tests compare against.

They use a different method from the program's kernel, so a test that
compares the two does not check the kernel against itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx

from affinecover.drawing import CoverWitness, exact_set_cover, greedy_set_cover
from affinecover.graphs import Graph
from affinecover.planar import _stacked_triangulation, planarity_test, triangulations


def to_networkx(g):
    """``g`` as a networkx graph on the vertices 0..n-1."""
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges)
    return ng


def from_networkx(ng):
    """A networkx graph on the vertices 0..n-1 as a ``Graph``."""
    return Graph(ng.number_of_nodes(), ng.edges())


def nx_embedding(g):
    """networkx's plane embedding of ``g``, or ``None`` if ``g`` is not
    planar: the oracle that ``planar._embedding`` reproduces."""
    ok, emb = nx.check_planarity(to_networkx(g), counterexample=False)
    return emb if ok else None


def nx_faces(g, emb):
    """The faces of the networkx embedding ``emb`` of ``g``, traced in the
    order ``planarity_test`` traces them."""
    marked = set()
    return tuple(
        tuple(emb.traverse_face(v, w, mark_half_edges=marked))
        for v in range(g.n)
        for w in sorted(g.adj[v])
        if (v, w) not in marked
    )


def nx_grid_points(g, emb):
    """networkx's shift-method points of the embedding ``emb`` of ``g``,
    as ``grid_drawing`` returns points."""
    pos = nx.combinatorial_embedding_to_pos(emb, fully_triangulate=True)
    return tuple((Fraction(int(pos[v][0])), Fraction(int(pos[v][1]))) for v in range(g.n))


def pinned_triangulations():
    """The 91 planar triangulations whose bound reports a test pins:
    every one with 4..9 vertices (``planar.triangulations``), the
    stacked ones with 10..26 vertices and the icosahedron."""
    graphs = [g for n in range(4, 10) for g in triangulations(n)]
    graphs += [_stacked_triangulation(n) for n in range(10, 27)]
    graphs.append(from_networkx(nx.icosahedral_graph()))
    return graphs


def dual_circumference_oracle(g):
    """The circumference of the dual of the triangulation ``g``, with a
    longest cycle and the dual's neighbour lists: ``(c, cycle, dual)``.

    The dual has a vertex per face of ``planarity_test(g)`` and an edge
    per pair of faces sharing an edge of ``g``.  Cycles are enumerated at
    their least vertex by a depth-first search that stops at the first
    Hamiltonian cycle, so it ends fast on a Hamiltonian dual.
    """
    faces = planarity_test(g)
    edge_faces = {}
    for idx, face in enumerate(faces):
        for i in range(len(face)):
            u, v = face[i], face[(i + 1) % len(face)]
            edge_faces.setdefault((min(u, v), max(u, v)), []).append(idx)
    dual = [[] for _ in faces]
    for a, b in edge_faces.values():
        dual[a].append(b)
        dual[b].append(a)
    for row in dual:
        row.sort()
    n = len(dual)
    best = []
    onpath = [False] * n
    path = []

    def dfs(u, s):
        nonlocal best
        for w in dual[u]:
            if len(best) == n:
                return
            if w == s:
                if len(path) >= 3 and len(path) > len(best):
                    best = path.copy()
            elif w > s and not onpath[w]:
                onpath[w] = True
                path.append(w)
                dfs(w, s)
                path.pop()
                onpath[w] = False

    for s in range(n):
        if len(best) == n:
            break
        onpath[s] = True
        path.append(s)
        dfs(s, s)
        path.pop()
        onpath[s] = False
    return len(best), tuple(best), dual


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
    vertex at each step.  ``solvers._minor_min_width`` is never below
    it."""
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


def minor_min_width_oracle(g):
    """Treewidth lower bound: the largest least degree met while
    contracting the vertex of least (degree, index) into the neighbour
    sharing the fewest of its neighbours (lowest index on ties), each
    pick a scan of every live vertex over bitmask rows, as
    ``solvers._minor_min_width`` did before its heap."""
    rows = [0] * g.n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    def bits(mask):
        return [i for i in range(len(rows)) if mask >> i & 1]

    alive = (1 << len(rows)) - 1
    out = 0
    while alive.bit_count() > out + 1:
        deg, v = min((rows[u].bit_count(), u) for u in bits(alive))
        out = max(out, deg)
        nb = rows[v]
        alive &= ~(1 << v)
        if not nb:
            continue
        _, u = min(((rows[w] & nb).bit_count(), w) for w in bits(nb))
        into = 1 << u
        for w in bits(nb & ~into):
            rows[w] = rows[w] & ~(1 << v) | into
        rows[u] = (rows[u] | nb) & ~into & ~(1 << v)
    return out


def set_cover_oracle(masks, full, node_cap=2_000_000):
    """Minimum set cover by top-down branch and bound, as
    ``drawing.exact_set_cover`` searched before iterative deepening.

    Drops every set that is a subset of another (or equal to an earlier
    one) by a scan of all pairs, starts from the greedy cover and keeps
    the smallest cover found; the bound at a node is the sets chosen
    plus ⌈uncovered / largest gain on it⌉.  Returns (chosen, exact);
    past ``node_cap`` nodes the incumbent is returned with False.
    """
    keep = []
    for i, mk in enumerate(masks):
        dominated = False
        for j, other in enumerate(masks):
            if i == j:
                continue
            if mk & ~other == 0 and (mk != other or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    best = [keep[k] for k in greedy_set_cover([masks[i] for i in keep], full)]
    nodes, capped = 0, False

    def dfs(uncovered, chosen):
        nonlocal best, nodes, capped
        if capped:
            return
        nodes += 1
        if nodes > node_cap:
            capped = True
            return
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + 1 >= len(best):
            return
        max_gain = max((masks[i] & uncovered).bit_count() for i in keep)
        if len(chosen) + -(-uncovered.bit_count() // max_gain) >= len(best):
            return
        pivot = uncovered & -uncovered
        branches = sorted(
            (i for i in keep if masks[i] & pivot),
            key=lambda i: (-(masks[i] & uncovered).bit_count(), i),
        )
        for i in branches:
            chosen.append(i)
            dfs(uncovered & ~masks[i], chosen)
            chosen.pop()

    dfs(full, [])
    return best, not capped


def record_min_cover(kind, candidates, items, search):
    """Minimum cover of ``items`` by ``candidates`` (canonical line or
    plane record -> set of items), as ``drawing`` solved it before it
    sorted integer keys: the records themselves are sorted, exact when
    ``search`` is true, else greedy and flagged.

    Returns (count, witness): the chosen records in sorted order, each
    item assigned to the first one holding it.
    """
    objects = sorted(candidates)
    sets = [candidates[obj] for obj in objects]
    bit = {item: 1 << i for i, item in enumerate(items)}
    masks = [sum(bit[item] for item in s) for s in sets]
    full = (1 << len(bit)) - 1
    if search:
        chosen, exact, _ = exact_set_cover(masks, full)
    else:
        chosen, exact = greedy_set_cover(masks, full), False
    picked = sorted(chosen)
    assignment = {}
    for new_idx, i in enumerate(picked):
        for item in sorted(sets[i]):
            assignment.setdefault(item, new_idx)
    w = CoverWitness(kind, tuple(objects[i] for i in picked), assignment, exact)
    return w.count, w


def clique_cover_oracle(n, s, node_cap=5_000_000):
    """Fewest ≤ s-vertex blocks covering the edges of K_n, by the
    private search ``solvers.clique_cover_exact`` ran before it called
    ``exact_set_cover``: block counts k upward from the counting bound
    up to the greedy count, each a depth-first search with block
    {0, ..., s-1} fixed and ``node_cap`` nodes per count.

    Returns (lower, upper, exact, blocks) with the meaning of
    ``CliqueCoverResult``.
    """
    pairs = list(itertools.combinations(range(n), 2))
    if n < 2:
        return 0, 0, True, ()
    if n <= s:
        return 1, 1, True, (tuple(range(n)),)
    pair_index = {p: i for i, p in enumerate(pairs)}
    full = (1 << len(pairs)) - 1
    blocks = list(itertools.combinations(range(n), s))
    masks = [sum(1 << pair_index[p] for p in itertools.combinations(b, 2)) for b in blocks]
    holders = [[bi for bi, b in enumerate(blocks) if u in b and v in b] for u, v in pairs]
    greedy = greedy_set_cover(masks, full)
    per_block = s * (s - 1) // 2
    lb0 = -(-len(pairs) // per_block)
    chosen, nodes = [], 0

    class CapHit(Exception):
        pass

    def dfs(covered, k):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise CapHit
        if covered == full:
            return True
        if len(chosen) == k:
            return False
        uncovered = full & ~covered
        if len(chosen) + -(-uncovered.bit_count() // per_block) > k:
            return False
        p = (uncovered & -uncovered).bit_length() - 1
        cands = [0] if not chosen else sorted(
            holders[p], key=lambda bi: (-(masks[bi] & uncovered).bit_count(), bi)
        )
        for bi in cands:
            chosen.append(bi)
            if dfs(covered | masks[bi], k):
                return True
            chosen.pop()
        return False

    lower = lb0
    for k in range(lb0, len(greedy) + 1):
        chosen.clear()
        nodes = 0
        try:
            if dfs(0, k):
                return k, k, True, tuple(blocks[i] for i in chosen)
        except CapHit:
            return lower, len(greedy), False, tuple(blocks[i] for i in greedy)
        lower = k + 1
    return lower, len(greedy), lower == len(greedy), tuple(blocks[i] for i in greedy)
