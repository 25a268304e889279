"""Planarity testing, straight-line grid drawings, the dual-circumference
bound, and the enumeration of small triangulations.

``induces_planar`` decides whether a vertex set, given as a bitmask over
the graph's bit rows, induces a planar subgraph, without an embedding:
edge counts, a reduction that keeps planarity, and Kuratowski's theorem
on six vertices settle most graphs, and the left-right planarity test
decides the rest; ``is_planar`` runs it on a whole graph.  The same
left-right code embeds the graphs of ``planarity_test`` and
``grid_drawing``, which places vertices by the shift method; both give
exactly the faces and points networkx gives.
No code here calls networkx.  Every embedding is checked by
``validate_embedding`` and every drawing is re-certified from scratch
by the exact integer verifier before being returned.
"""

from __future__ import annotations

from typing import NamedTuple

# unused: kept because perfbench/startup.py times it within ``import affinecover.cli``
import networkx  # noqa: F401

from .drawing import Drawing, verify_crossing_free
from .graphs import Graph, bfs_layers, brute_force_isomorphic, complete_graph

__all__ = [
    "DualBoundResult",
    "is_planar",
    "induces_planar",
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


def _count_verdict(k: int, m: int) -> bool | None:
    """Planarity of a simple graph on k vertices with m edges when the
    counts decide it, else ``None``: at most 8 edges is planar (K3,3 has
    9, K5 has 10), more than 3k - 6 edges is not (Euler; k >= 5 once
    there are 9 edges)."""
    if m <= 8:
        return True
    if m > 3 * k - 6:
        return False
    return None


def _reduce(nb: dict, m: int) -> int:
    """Delete vertices of degree <= 1 and suppress vertices of degree 2
    (join their two neighbours, dropping a parallel edge) until none is
    left, in place on ``nb`` (vertex -> neighbours as a bitmask) with m
    edges; returns the edges left.  Both steps preserve planarity in
    either direction."""
    # no step raises a degree, so a stacked vertex still has degree <= 2
    stack = [u for u, r in nb.items() if r.bit_count() <= 2]
    while stack:
        u = stack.pop()
        r = nb.pop(u, None)
        if r is None:
            continue
        keep = ~(1 << u)
        ends = []
        rest = r
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            nb[w] &= keep
            ends.append(w)
        m -= len(ends)
        if len(ends) == 2:
            x, y = ends
            if not nb[x] >> y & 1:
                nb[x] |= 1 << y
                nb[y] |= 1 << x
                m += 1
        stack.extend(w for w in ends if nb[w].bit_count() <= 2)
    return m


#: The ten vertex triples of {0..5} that hold vertex 0: one side of each
#: split of six vertices into two triples.
_TRIPLES = tuple((0, i, j) for i in range(1, 6) for j in range(i + 1, 6))


def _six_vertex_planar(nb: dict) -> bool:
    """Planarity of a graph on six vertices (vertex -> neighbours as a
    bitmask) with minimum degree 3 and at most 12 edges: it is planar
    iff it has no K3,3 subgraph.

    By Kuratowski's theorem a non-planar graph contains a subdivision of
    K5 or K3,3; on six vertices that is K3,3, K5, or K5 with an edge ab
    subdivided by a vertex s.  K5 plus a vertex of degree 3 has 13
    edges.  The vertex s has a third neighbour c, and {a, b, c} with the
    other three vertices spans K3,3.
    """
    verts = list(nb)
    every = sum(1 << u for u in verts)
    for triple in _TRIPLES:
        side = [verts[i] for i in triple]
        other = every ^ sum(1 << u for u in side)
        if all(nb[u] & other == other for u in side):
            return False
    return True


def induces_planar(rows, verts: int) -> bool:
    """Whether the vertices in the bitmask ``verts`` induce a planar
    subgraph of the simple graph with bit rows ``rows`` (``rows[u]`` the
    neighbours of u as a bitmask).

    Edge counts decide first, then again after ``_reduce``.  A reduced
    graph has minimum degree 3, so one the counts leave open has five
    vertices and nine edges (K5 minus an edge, planar), or six vertices
    and 9 to 12 edges (``_six_vertex_planar``), or more and goes to
    ``_left_right_planar``.
    """
    members = []
    ends = 0
    rest = verts
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        members.append(u)
        ends += (rows[u] & verts).bit_count()
    verdict = _count_verdict(len(members), ends >> 1)
    if verdict is not None:
        return verdict
    nb = {u: rows[u] & verts for u in members}
    m = _reduce(nb, ends >> 1)
    verdict = _count_verdict(len(nb), m)
    if verdict is not None:
        return verdict
    if len(nb) <= 6:
        return len(nb) < 6 or _six_vertex_planar(nb)
    index = {u: i for i, u in enumerate(nb)}
    nbrs = []
    for r in nb.values():
        out = []
        while r:
            low = r & -r
            r ^= low
            out.append(index[low.bit_length() - 1])
        nbrs.append(out)
    return _left_right_planar(nbrs) is not None


def _left_right_planar(nbrs: list) -> tuple | None:
    """The left-right planarity test (de Fraysseix & Rosenstiehl; Brandes,
    "The Left-Right Planarity Test", 2009) on the simple graph with
    neighbour lists ``nbrs`` (vertices 0..n-1): ``None`` if it is not
    planar, else ``(dst, out, parent, side, ref, nesting, roots)``.

    Edges are numbered as the DFS orientation meets them: edge ``e`` ends
    at ``dst[e]``, ``out[v]`` lists v's edges in nesting order and
    ``parent[v]`` is the tree edge into ``v`` (-1 at a root).  Testing
    leaves each edge a side relative to edge ``ref[e]``, as networkx's
    ``LRPlanarity`` does; a conflict pair is a list ``[left low, left
    high, right low, right high]`` of return edges, ``None`` where an
    interval is empty.  Both searches keep explicit stacks.
    """
    n = len(nbrs)
    m = sum(map(len, nbrs)) // 2
    height = [-1] * n
    up = [-1] * n  # parent vertex in the DFS tree
    parent = [-1] * n
    out: list = [[] for _ in range(n)]
    dst = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    roots = []
    nxt = [0] * n
    k = 0  # edges oriented so far
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            hv = height[v]
            if i < len(nbrs[v]):
                nxt[v] = i + 1
                w = nbrs[v][i]
                if height[w] < 0:  # tree edge, finished once w is
                    parent[w] = k
                    up[w] = v
                    height[w] = hv + 1
                    out[v].append(k)
                    dst[k] = w
                    lowpt[k] = lowpt2[k] = hv
                    k += 1
                    stack.append(w)
                    continue
                if height[w] >= hv or w == up[v]:
                    continue  # oriented already, from w or as v's tree edge
                ei = k  # back edge
                out[v].append(ei)
                dst[ei] = w
                lowpt[ei] = height[w]
                lowpt2[ei] = hv
                k += 1
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                v = up[v]
                hv = height[v]
            lo, lo2 = lowpt[ei], lowpt2[ei]
            nesting[ei] = 2 * lo + (lo2 < hv)  # +1 when chordal
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
    ref: list = [None] * m
    lowpt_edge = list(range(m))  # the return edge that sets an edge's lowpoint
    side = [1] * m
    bottom: list = [None] * m  # top of the conflict stack when an edge starts
    pairs: list = []

    def add_constraints(ei: int, e: int) -> bool:
        # merge the return edges of ei into the right interval of a new
        # pair, aligning those that return as low as e does
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
            else:
                ref[rl] = lowpt_edge[e]
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

    nxt = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            edges = out[v]
            if i < len(edges):
                ei = edges[i]
                bottom[ei] = pairs[-1] if pairs else None
                w = dst[ei]
                if parent[w] == ei:
                    stack.append(w)
                    continue
                pairs.append([None, None, ei, ei])
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                v = up[v]
                # drop the pairs whose return edges all end at v, then trim
                # the edges ending at v off the next pair; an interval that
                # empties is put on the other side of its partner
                h = height[v]
                while pairs:
                    ql, _, rl, _ = pairs[-1]
                    if ql is None:
                        if lowpt[rl] != h:
                            break
                    elif (lowpt[ql] if rl is None else min(lowpt[ql], lowpt[rl])) != h:
                        break
                    else:
                        side[ql] = -1
                    pairs.pop()
                if pairs:
                    pair = pairs[-1]
                    for lo, hi, other in ((0, 1, 2), (2, 3, 0)):
                        top = pair[hi]
                        while top is not None and dst[top] == v:
                            top = ref[top]
                        pair[hi] = top
                        if top is None and pair[lo] is not None:
                            ref[pair[lo]] = pair[other]
                            side[pair[lo]] = -1
                            pair[lo] = None
                if lowpt[ei] < h:  # ei takes the side of its highest return edge
                    hl, hr = pairs[-1][1], pairs[-1][3]
                    ref[ei] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr
                i = nxt[v]
            nxt[v] = i + 1
            if lowpt[ei] < height[v]:
                # the first edge of v leaves its return edges where they are
                if not i:
                    lowpt_edge[parent[v]] = lowpt_edge[ei]
                elif not add_constraints(ei, parent[v]):
                    return None
    return dst, out, parent, side, ref, nesting, roots


def is_planar(adj) -> bool:
    """Whether the simple graph ``adj`` (vertex -> neighbours) is planar:
    ``induces_planar`` on its bit rows, over all its vertices."""
    index = {u: i for i, u in enumerate(adj)}
    rows = [sum(1 << index[w] for w in nb) for nb in adj.values()]
    return induces_planar(rows, (1 << len(rows)) - 1)


def _embedding(g: Graph) -> tuple | None:
    """A plane embedding of ``g`` as rotation maps ``(cw, ccw)``, or
    ``None`` if ``g`` is not planar: ``cw[v][w]`` and ``ccw[v][w]`` are
    the neighbours after ``w`` around ``v`` clockwise and counterclockwise.

    It is the embedding networkx's ``check_planarity`` returns, down to
    the key order of ``cw[v]``, whose last key is v's leftmost neighbour:
    the search meets neighbours in the order ``LRPlanarity`` does when
    handed ``g.edges``, and sides and edges are placed as its ``sign`` and
    ``dfs_embedding`` place them.
    """
    n = g.n
    if n > 2 and g.m > 3 * n - 6:
        return None

    def lists(edges) -> list:  # neighbours in edge order, as a networkx Graph keeps them
        nbrs: list = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return nbrs

    # LRPlanarity copies the graph of g.edges edge by edge, in its edge order
    first = lists(g.edges)
    state = _left_right_planar(lists([(u, w) for u in range(n) for w in first[u] if w > u]))
    if state is None:
        return None
    dst, out, parent, side, ref, nesting, roots = state
    for e in range(len(dst)):
        chain = []
        while ref[e] is not None:
            chain.append(e)
            ref[e], e = None, ref[e]
        s = side[e]
        for f in reversed(chain):
            s = side[f] = side[f] * s
    cw: list = []
    ccw: list = []
    for edges in out:
        # stable, so equal keys keep the order the orientation met them in
        edges.sort(key=lambda e: side[e] * nesting[e])
        # networkx puts each neighbour just after the one before it, which
        # leaves the first, the leftmost, as the last key
        ws = [dst[e] for e in edges]
        cw.append(dict(zip(ws[1:] + ws[:1], ws[2:] + ws[:2])))
        ccw.append(dict(zip(ws, ws[-1:] + ws[:-1])))
    left, right, nxt = [0] * n, [0] * n, [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            for e in out[v][nxt[v]:]:
                nxt[v] += 1
                w = dst[e]
                if parent[w] == e:
                    _add_half_edge(cw, ccw, w, v, _leftmost(cw[w]), True)
                    left[v] = right[v] = w
                    stack += (v, w)
                    break
                if side[e] > 0:
                    _add_half_edge(cw, ccw, w, v, right[w], False)
                else:
                    _add_half_edge(cw, ccw, w, v, left[w], True)
                    left[w] = v
    return cw, ccw


def _leftmost(cv: dict):
    """The leftmost neighbour of a rotation map: its last key."""
    return next(reversed(cv), None)


def _clockwise(cv: dict):
    """The neighbours of a rotation map clockwise from the leftmost one,
    each successor read only after the caller's step, as networkx's
    ``neighbors_cw_order`` does."""
    start = w = _leftmost(cv)
    while w is not None:
        yield w
        w = cv[w]
        if w == start:
            return


def _add_half_edge(cw: list, ccw: list, v: int, w: int, ref, before: bool) -> None:
    """Put ``w`` into the rotation at ``v`` just counterclockwise of
    ``ref`` if ``before``, else just clockwise of it (networkx's
    ``add_half_edge`` with ``cw=ref`` or ``ccw=ref``).  Only a neighbour
    put just before the leftmost one becomes the leftmost (last key)."""
    cv, av = cw[v], ccw[v]
    if not cv:
        cv[w] = av[w] = w
        return
    leftmost = _leftmost(cv)
    if before:
        a = av[ref]
        cv[w], av[w] = ref, a
        cv[a] = av[ref] = w
        if ref == leftmost:
            return
    else:
        c = cv[ref]
        cv[w], av[w] = c, ref
        av[c] = cv[ref] = w
    cv[leftmost] = cv.pop(leftmost)


def _face(cw: list, ccw: list, v: int, w: int, marked: set) -> tuple:
    """The face right of the half-edge ``(v, w)``, marking its half-edges
    (networkx's ``traverse_face``)."""
    face = [v]
    marked.add((v, w))
    prev, cur, incoming = v, w, cw[v][w]
    while cur != v or prev != incoming:
        face.append(cur)
        prev, cur = cur, ccw[cur][prev]
        if (prev, cur) in marked:
            raise ValueError("bad plane embedding: a face repeats a half-edge")
        marked.add((prev, cur))
    return tuple(face)


def planarity_test(g: Graph) -> tuple | None:
    """The faces of a plane embedding of ``g``, checked by
    :func:`validate_embedding`, or ``None`` if ``g`` is not planar.

    Each face is a vertex cycle ``(v0, v1, ..., vk-1)`` standing for the
    directed boundary edges ``(v0,v1), ..., (vk-1,v0)``.
    """
    emb = _embedding(g)
    if emb is None:
        return None
    marked: set[tuple[int, int]] = set()
    faces = tuple(
        _face(*emb, v, w, marked)
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


def _triangulate(cw: list, ccw: list) -> list:
    """Triangulate the embedding in place as networkx's
    ``triangulate_embedding(fully_triangulate=True)`` does and return its
    outer triangle: join the components, make every face a simple cycle
    (``make_bi_connected``), then fan each face (``triangulate_face``)."""
    n = len(cw)
    firsts = []
    seen: set = set()
    for s in range(n):
        if s in seen:
            continue
        comp = {s}  # filled in networkx's BFS order, so it iterates as its set does
        queue = [s]
        for u in queue:
            for w in cw[u]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        firsts.append(next(iter(comp)))
    for a, b in zip(firsts, firsts[1:]):
        _add_half_edge(cw, ccw, a, b, _leftmost(cw[a]), True)
        _add_half_edge(cw, ccw, b, a, _leftmost(cw[b]), True)
    outer: list = []
    faces = []
    counted: set = set()
    for s in range(n):
        for t in _clockwise(cw[s]):
            if (s, t) in counted:
                continue
            counted.add((s, t))
            face, on_face = [s], {s}
            v1, v2, v3 = s, t, ccw[t][s]
            while v2 != s or v3 != t:
                if v2 in on_face:  # a cut vertex: bridge it with a chord
                    _add_half_edge(cw, ccw, v1, v3, v2, False)
                    _add_half_edge(cw, ccw, v3, v1, v2, True)
                    counted |= {(v2, v3), (v3, v1)}
                    v2 = v1
                else:
                    face.append(v2)
                    on_face.add(v2)
                v1 = v2
                v2, v3 = v3, ccw[v3][v2]
                counted.add((v1, v2))
            faces.append(face)
            if len(face) > len(outer):
                outer = face
    for v1, v2, *_ in faces:
        v3 = ccw[v2][v1]
        v4 = ccw[v3][v2]
        if v1 == v3:
            continue  # a single edge
        while v1 != v4:
            if v3 in cw[v1]:
                v1, v2, v3 = v2, v3, v4
            else:
                _add_half_edge(cw, ccw, v1, v3, v2, False)
                _add_half_edge(cw, ccw, v3, v1, v2, True)
                v2, v3 = v3, v4
            v4 = ccw[v3][v2]
    return [outer[0], outer[1], ccw[outer[1]][outer[0]]]


def _canonical_order(cw: list, ccw: list, outer: list) -> list:
    """The canonical order of a triangulation with outer triangle
    ``outer``, as pairs (vertex, contour neighbours from wp to wq), by
    networkx's ``get_canonical_ordering``: peel vertices without chords
    off the outer face, last first."""
    v1, v2, v3 = outer
    n = len(cw)
    chords = [0] * n
    removed = [False] * n
    ready = set(outer)  # picked from with set.pop, so kept as networkx keeps it
    ccw_nbr = {v2: v3, v3: v1}
    cw_nbr = {v1: v3, v3: v2}

    def is_chord(x: int, y: int) -> bool:
        # y on the outer face but not next to x there
        if removed[y] or not (y in ccw_nbr or y == v1):
            return False
        if x not in ccw_nbr:
            return cw_nbr[x] != y
        if x not in cw_nbr:
            return ccw_nbr[x] != y
        return ccw_nbr[x] != y and cw_nbr[x] != y

    for v in outer:
        for w in _clockwise(cw[v]):
            if is_chord(v, w):
                chords[v] += 1
                ready.discard(v)
    order: list = [(v1, []), (v2, [])] + [None] * (n - 2)
    ready.discard(v1)
    ready.discard(v2)
    for k in range(n - 1, 1, -1):
        v = ready.pop()
        removed[v] = True
        wp = wq = None
        for w in _clockwise(cw[v]):
            if removed[w] or not (w in ccw_nbr or w == v1):
                continue
            if w == v1:
                wp = v1
            elif w == v2:
                wq = v2
            elif cw_nbr[w] == v:
                wp = w
            else:
                wq = w
            if wp is not None and wq is not None:
                break
        contour = [wp]
        while (w := contour[-1]) != wq:
            x = ccw[v][w]
            contour.append(x)
            cw_nbr[w], ccw_nbr[x] = x, w
        if len(contour) == 2:  # the chord wp-wq is now an outer edge
            for w in contour:
                chords[w] -= 1
                if not chords[w]:
                    ready.add(w)
        else:
            inner = set(contour[1:-1])
            for w in inner:
                ready.add(w)
                for x in _clockwise(cw[w]):
                    if is_chord(w, x):
                        chords[w] += 1
                        ready.discard(w)
                        if x not in inner:
                            chords[x] += 1
                            ready.discard(x)
        order[k] = (v, contour)
    return order


def _shift_positions(cw: list, ccw: list) -> list:
    """Integer grid points of the vertices by the shift method (Chrobak &
    Payne, IPL 1995), as networkx's ``combinatorial_embedding_to_pos``
    with ``fully_triangulate=True`` places them; the embedding is
    triangulated in place.  Fewer than four vertices take its default
    triangle."""
    n = len(cw)
    if n < 4:
        return [(0, 0), (2, 0), (1, 1)][:n]
    order = _canonical_order(cw, ccw, _triangulate(cw, ccw))
    (v1, _), (v2, _), (v3, _) = order[:3]
    x, y, dx = [0] * n, [0] * n, [0] * n
    left: list = [None] * n
    right = left.copy()
    dx[v2] = dx[v3] = y[v3] = 1
    right[v1], right[v3] = v3, v2
    for vk, contour in order[3:]:
        wp, wp1, wq1, wq = contour[0], contour[1], contour[-2], contour[-1]
        dx[wp1] += 1
        dx[wq] += 1
        span = sum(dx[x] for x in contour[1:])
        dx[vk] = (span - y[wp] + y[wq]) // 2
        y[vk] = (span + y[wp] + y[wq]) // 2
        dx[wq] = span - dx[vk]
        right[wp], right[vk] = vk, wq
        if len(contour) > 2:
            dx[wp1] -= dx[vk]
            left[vk] = wp1
            right[wq1] = None
    stack = [v1]
    while stack:
        p = stack.pop()
        for c in (left[p], right[p]):
            if c is not None:
                x[c] = x[p] + dx[c]
                stack.append(c)
    return list(zip(x, y))


def grid_drawing(g: Graph) -> Drawing:
    """Crossing-free straight-line drawing on the integer grid.

    Coordinates lie in ``[0, 2n-4] x [0, n-2]`` for ``n >= 4``.  The
    graph must be planar; the embedding is triangulated internally and
    the extra edges are discarded afterwards.  The returned drawing has
    been certified crossing-free by the exact verifier.
    """
    emb = _embedding(g)
    if emb is None:
        raise ValueError("graph is not planar")
    d = Drawing(g, _shift_positions(*emb), 1, {"construction": "grid_drawing"})
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
    if g.n < 4 or g.m != 3 * g.n - 6 or not is_planar(dict(enumerate(g.adj))):
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
    # the edge count rejects most non-trees before any search
    if g.m != g.n - 1 or -1 in (dist := bfs_layers(g, root)):
        raise ValueError("input graph is not a tree")
    return tuple(dist)
