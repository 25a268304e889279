"""Drawings, the exact crossing-free verifier, and drawing measurements.

A :class:`Drawing` pairs a graph with exact rational vertex points in
2D or 3D, stored only as an integer grid and a scale: the points times
their least common denominator, and that denominator.
``verify_crossing_free`` certifies that the straight-line drawing has no
forbidden contact between edges or between a vertex and a non-incident
edge; every measurement (line/plane covers, segments, slopes) requires a
verified drawing.

Measuring the lines of a drawing needs no search (each edge forces its
supporting line); vertex line covers and edge plane covers are genuine
set-cover problems, solved exactly within budget and greedily above it,
with the result flagged accordingly.  :func:`exact_set_cover` is the
one exact set-cover search; the clique covers of ``solvers`` call it
too, and every call shares the cap ``SET_COVER_NODE_CAP``.

The verifier, the measurements and the witness checks all run on that
grid: lines and planes are grouped by their exact integer keys
(:func:`~affinecover.geometry.line_key`,
:func:`~affinecover.geometry.plane_key`), sorted on those keys in the
order of their records, containment is an integer comparison with a
key, and a ``Fraction`` canonical record is built only for a line or
plane that a witness keeps.

The verifier decides a 2D drawing's edge pairs with a Shamos-Hoey
sweep in O(m log m) (:func:`_sweep_clear`); once that sweep has found a
contact, a box sweep tests the pairs whose bounding boxes overlap and
names the least offending pair.  In 3D (:func:`_least_contact_3d`) the
pairs that share an endpoint are decided at that endpoint, and a box
sweep sends only the coplanar pairs of the rest to the exact kernel.
The verifier has no side effects: it returns a verified copy or raises.

``WITNESS_KINDS`` is the one table of cover witness kinds; ``EDGE_KINDS``
cover edges (the rest cover vertices) and ``LINE_KINDS`` use lines (the
rest use planes).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Sequence

from .geometry import (
    CanonLine,
    CanonPlane,
    collinear,
    coplanar_segments_meet,
    forbidden_contact,
    is_canonical,
    key_contains,
    line_from_key,
    line_key,
    line_order,
    orient,
    plane_from_key,
    plane_key,
    scaled_key,
)
from .graphs import Graph, is_complete

WITNESS_KINDS = (
    "lines_for_edges",
    "lines_for_vertices",
    "planes_for_edges",
    "planes_for_vertices",
    "parallel_lines",
)

EDGE_KINDS = ("lines_for_edges", "planes_for_edges")
LINE_KINDS = ("lines_for_edges", "lines_for_vertices", "parallel_lines")


class DrawingViolation(Exception):
    """Crossing-freeness failure; ``violation`` is the first offending
    pair: ("edge_edge", e, f) or ("vertex_edge", v, e)."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(f"drawing violation: {violation}")


class WitnessViolation(ValueError):
    """A cover witness does not certify what it claims."""


@dataclass(frozen=True)
class Drawing:
    """A straight-line drawing: graph plus one exact point per vertex.

    Vertex v sits at ``grid[v] / scale``, ints divided by their common
    gcd when the drawing is built, so ``scale`` is the least common
    denominator.  ``points`` is the exact ``Fraction`` view, built on
    first read.  Only :func:`verify_crossing_free` sets ``verified``.
    """

    graph: Graph
    grid: tuple
    scale: int
    meta: dict = field(default_factory=dict)
    verified: bool = field(default=False, init=False)

    def __post_init__(self):
        g, grid, scale = self.graph, tuple(map(tuple, self.grid)), self.scale
        if g.n < 1:
            raise ValueError("drawings need at least one vertex")
        if len(grid) != g.n:
            raise ValueError(f"{g.n} vertices but {len(grid)} points")
        dim = len(grid[0])
        if any(len(p) != dim for p in grid):
            raise ValueError("all points must share one dimension")
        if dim not in (2, 3):
            raise ValueError(f"points must have 2 or 3 coordinates, got {dim}")
        if type(scale) is not int or scale < 1 or any(type(c) is not int for p in grid for c in p):
            raise ValueError("grid coordinates must be ints and the scale an int >= 1")
        k = math.gcd(scale, *(c for p in grid for c in p))
        if k > 1:
            grid, scale = tuple(tuple(c // k for c in p) for p in grid), scale // k
        if len(set(grid)) != len(grid):
            seen = {}
            for v, p in enumerate(grid):
                if p in seen:
                    raise ValueError(f"vertices {seen[p]} and {v} share point {tuple(Fraction(c, scale) for c in p)}")
                seen[p] = v
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "scale", scale)

    @cached_property
    def points(self) -> tuple:
        """The exact points ``grid[v] / scale``, as ``Fraction`` tuples."""
        return tuple(tuple(Fraction(c, self.scale) for c in p) for p in self.grid)

    @property
    def dim(self) -> int:
        return len(self.grid[0])


@dataclass(frozen=True)
class CoverWitness:
    """A geometric cover: objects plus an item-to-object assignment.

    ``kind`` decides the items: edge tuples for *_for_edges kinds,
    vertex indices for *_for_vertices and parallel_lines.  ``exact`` is
    False when the count came from a greedy fallback rather than an
    exact search.
    """

    kind: str
    objects: tuple
    assignment: dict
    exact: bool = True

    @property
    def count(self) -> int:
        return len(self.objects)


def _distinct_edge_lines(d: Drawing) -> dict:
    """Map line key -> sorted list of edges lying on it, keys in the
    order of their first edges."""
    grid = d.grid
    lines = {}
    for e in sorted(d.graph.edges):
        lines.setdefault(line_key(grid[e[0]], grid[e[1]]), []).append(e)
    return lines


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------


def _sweep_clear(grid: Sequence, edges: Sequence) -> bool:
    """True iff no two edges of a 2D drawing meet outside one shared
    endpoint: a Shamos-Hoey any-intersection sweep (Shamos & Hoey, FOCS
    1976) in integer arithmetic, O(m log m) comparisons.

    The grid is first sheared by (x, y) -> (K x + y, y) with K one more
    than the y-range: an orientation-preserving affine bijection after
    which all vertex x are distinct and no edge is vertical, so events
    come in plain x order.  The events are the vertices with edges; the
    status holds the edges that span the sweep line, bottom to top.  At
    vertex p the status edges whose line holds p (found by bisection
    on the sign of the orientation determinant) must all end at p,
    else p lies inside one of them; they are deleted, the edges that
    start at p are inserted in slope order, and every pair that has
    just become adjacent goes to
    :func:`~affinecover.geometry.forbidden_contact`.  The leftmost
    forbidden contact is met by an adjacent pair, or by a status edge
    through its vertex, before the sweep passes it.
    """
    k = max(p[1] for p in grid) - min(p[1] for p in grid) + 1
    sx = [k * x + y for x, y in grid]
    starts: dict = {}  # left end -> right ends
    for u, v in edges:
        a, b = (u, v) if sx[u] < sx[v] else (v, u)
        starts.setdefault(a, []).append(b)

    def by_slope(e, f) -> int:  # < 0 when e leaves their common start below f
        return e[3] * f[2] - f[3] * e[2]

    # status entry of edge [a, b] with sx[a] < sx[b]: (sheared a, its
    # direction dx, dy, b, low and high y, grid a, grid b)
    status: list = []
    for p in sorted({v for e in edges for v in e}, key=sx.__getitem__):
        px, py = sx[p], grid[p][1]
        # bisect for the first status edge e with -orient(a, b, p) =
        # dy (px - ax) - dx (py - ay) >= 0: the first not below p
        lo, hi = 0, len(status)
        while lo < hi:
            mid = (lo + hi) // 2
            e = status[mid]
            if e[3] * (px - e[0]) - e[2] * (py - e[1]) < 0:
                lo = mid + 1
            else:
                hi = mid
        n = len(status)
        while hi < n:
            e = status[hi]
            if e[3] * (px - e[0]) - e[2] * (py - e[1]):
                break
            if e[4] != p:
                return False  # p inside a status edge
            hi += 1
        new = []
        for q in starts.get(p, ()):
            qy = grid[q][1]
            lo_y, hi_y = (py, qy) if py < qy else (qy, py)
            new.append((px, py, sx[q] - px, qy - py, q, lo_y, hi_y, grid[p], grid[q]))
        if len(new) > 1:
            new.sort(key=cmp_to_key(by_slope))
        status[lo:hi] = new
        # test the pairs that have just become adjacent
        for i in range(lo or 1, min(lo + len(new) + 1, len(status))):
            e, f = status[i - 1], status[i]
            if e[5] <= f[6] and f[5] <= e[6] and forbidden_contact(e[7], e[8], f[7], f[8]):
                return False
    return True


def _least_contact_3d(grid: Sequence, edges: Sequence) -> tuple | None:
    """Least index pair (i, j), i < j, of edges of a 3D drawing that meet
    outside one shared endpoint; None when no two edges do.

    Edges [s, p] and [s, q] meet somewhere other than s exactly when
    p - s and q - s are multiples of one primitive integer vector, so a
    dict keyed by (vertex, primitive direction away from it) over the
    2m edge ends decides every pair that shares an endpoint.  The pairs
    that share none are swept over one record per edge, sorted by the
    low x of its bounding box: each edge meets the later edges whose low
    x is at most its high x, and a pair whose boxes overlap in y and z
    and whose lines are coplanar goes to the integer kernel
    :func:`~affinecover.geometry.coplanar_segments_meet`.  With u = b - a
    and m = a x b for each edge [a, b] (Plucker coordinates), the lines
    are coplanar iff u1 . m2 + u2 . m1 = 0.

    The sweep keeps each edge's x-interval [lx, hx] in two parallel
    lists, ``starts`` and ``highs``, in sweep order, beside a 14-field
    record per edge: (ly, hy, lz, hz, u0, u1, u2, m0, m1, m2, s, t, i,
    a), the y and z box, direction u, moment m, the ends s and t, the
    edge's index i and its start point a = grid[s].
    """
    first = None
    rays: dict = {}  # (vertex, primitive direction away from it) -> first edge
    boxes = []
    for i, (s, t) in enumerate(edges):
        a = grid[s]
        ax, ay, az = a
        bx, by, bz = grid[t]
        u0, u1, u2 = bx - ax, by - ay, bz - az
        g = math.gcd(u0, u1, u2)
        p0, p1, p2 = u0 // g, u1 // g, u2 // g
        for key in ((s, p0, p1, p2), (t, -p0, -p1, -p2)):
            j = rays.setdefault(key, i)
            if j != i and (first is None or (j, i) < first):
                first = (j, i)
        boxes.append((ax if ax < bx else bx, bx if ax < bx else ax,
                      (ay if ay < by else by, by if ay < by else ay, az if az < bz else bz, bz if az < bz else az,
                       u0, u1, u2, ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx, s, t, i, a)))
    boxes.sort()
    starts = [b[0] for b in boxes]
    highs = [b[1] for b in boxes]
    recs = [b[2] for b in boxes]
    for k, (ly, hy, lz, hz, u0, u1, u2, m0, m1, m2, s, t, i, a) in enumerate(recs):
        for ly2, hy2, lz2, hz2, v0, v1, v2, n0, n1, n2, s2, t2, j, c in recs[k + 1 : bisect_right(starts, highs[k], k + 1)]:
            if hy2 < ly or hy < ly2 or hz2 < lz or hz < lz2 or s2 == s or s2 == t or t2 == s or t2 == t:
                continue  # disjoint boxes, or decided at the shared endpoint
            if u0 * n0 + u1 * n1 + u2 * n2 + v0 * m0 + v1 * m1 + v2 * m2:
                continue  # skew lines
            if coplanar_segments_meet(a, (u0, u1, u2), c, (v0, v1, v2)):
                pair = (i, j) if i < j else (j, i)
                if first is None or pair < first:
                    first = pair
    return first


def verify_crossing_free(d: Drawing) -> Drawing:
    """Certify crossing-freeness; returns a copy with the verified flag.

    Two checks run on the drawing's integer grid.  No two distinct edges
    may meet, except adjacent edges in their one shared endpoint; and
    no vertex point may lie inside an edge it is not an end of.

    In 2D, :func:`_sweep_clear` decides the edge pairs in O(m log m).
    Only when it finds a contact does the box sweep run: the edges are
    sorted by the low x of their bounding boxes, each edge is paired
    with the later edges whose low x is at most its high x, and those
    that also overlap it in y go to the exact integer test
    :func:`~affinecover.geometry.forbidden_contact`.  In 3D,
    :func:`_least_contact_3d` decides the pairs that share an endpoint
    at that endpoint, in O(m), and sweeps the others the same way,
    sending only the coplanar ones to the exact test.  Once no two edges
    meet, a vertex with an edge cannot lie inside another edge, so only
    the isolated vertices are then tested, each against the edges whose
    x-interval holds its x (bisection over those vertices sorted by x).

    Raises :class:`DrawingViolation` carrying the first offending pair
    in the order of the pairwise loop this replaces: every
    ("edge_edge", e, f) pair before any ("vertex_edge", v, e) pair,
    edge pairs ordered by ``sorted(edges)`` with e < f, vertex pairs
    vertex-major.  Both sweeps find all offending pairs and report the
    least.
    """
    g = d.graph
    grid = d.grid
    edges = sorted(g.edges)
    ends = [(grid[u], grid[v]) for u, v in edges]

    first = None
    if d.dim == 3:
        first = _least_contact_3d(grid, edges)
    elif not _sweep_clear(grid, edges):
        # box of edge i: [lx, hx] x [ly, hy]
        lx, hx = [min(p[0], q[0]) for p, q in ends], [max(p[0], q[0]) for p, q in ends]
        ly, hy = [min(p[1], q[1]) for p, q in ends], [max(p[1], q[1]) for p, q in ends]
        order = sorted(range(len(edges)), key=lx.__getitem__)
        starts = [lx[i] for i in order]
        for k, i in enumerate(order):
            li_y, hi_y = ly[i], hy[i]
            for j in order[k + 1 : bisect_right(starts, hx[i], k + 1)]:
                if hy[j] < li_y or hi_y < ly[j]:
                    continue
                if forbidden_contact(*ends[i], *ends[j]):
                    pair = (i, j) if i < j else (j, i)
                    if first is None or pair < first:
                        first = pair
    if first is not None:
        raise DrawingViolation(("edge_edge", edges[first[0]], edges[first[1]]))

    # A vertex with an edge f inside edge e would have made f meet e
    # outside a shared endpoint, so past the edge pairs only isolated
    # vertices can lie inside an edge.
    ended = {v for e in edges for v in e}
    by_x = sorted((v for v in range(g.n) if v not in ended), key=lambda v: grid[v][0])
    xs = [grid[v][0] for v in by_x]
    for i, (a, b) in enumerate(ends if by_x else ()):
        lo, hi = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
        for v in by_x[bisect_left(xs, lo) : bisect_right(xs, hi)]:
            p = grid[v]
            # inside the box and on the line: on the closed segment, and
            # not at an end since distinct vertices have distinct points
            if all(min(s, t) <= c <= max(s, t) for s, t, c in zip(a, b, p)) and collinear(a, b, p):
                if first is None or (v, i) < first:
                    first = (v, i)
    if first is not None:
        raise DrawingViolation(("vertex_edge", first[0], edges[first[1]]))
    # a shallow copy keeps the grid without checking it again
    out = copy(d)
    object.__setattr__(out, "verified", True)
    return out


def _require_verified(d: Drawing) -> None:
    if not d.verified:
        raise ValueError("measurement requires a verified drawing")


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def edge_line_count(d: Drawing) -> tuple:
    """Number of distinct supporting lines over all edges, plus witness.

    This is the exact minimum line cover of the edges of this drawing:
    each edge forces its supporting line, so no search is involved.
    """
    _require_verified(d)
    lines = _distinct_edge_lines(d)
    objects = tuple(line_from_key(key, d.scale) for key in lines)
    assignment = {e: i for i, es in enumerate(lines.values()) for e in es}
    return len(objects), CoverWitness("lines_for_edges", objects, assignment)


def greedy_set_cover(masks: Sequence[int], full: int) -> list:
    """Greedy cover of the bitmask universe; deterministic tie-breaks."""
    chosen = []
    uncovered = full
    while uncovered:
        best, best_gain = -1, 0
        for i, mk in enumerate(masks):
            gain = (mk & uncovered).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            raise ValueError("universe not coverable by the candidate sets")
        chosen.append(best)
        uncovered &= ~masks[best]
    return chosen


#: Search nodes one :func:`exact_set_cover` call may visit; past it the
#: call returns the greedy cover and the lower bound it has proven.
SET_COVER_NODE_CAP = 2_000_000


def exact_set_cover(masks: Sequence[int], full: int, min_size: int = 0) -> tuple:
    """Minimum cover of the bitmask universe ``full`` by ``masks``.

    A set is dropped first when its mask is a subset of another mask or
    equal to an earlier one.  Then iterative deepening (Korf 1985) tries
    each size k from ``⌈|full| / largest set⌉`` or ``min_size``,
    whichever is larger, up: a depth-first search that branches on the
    sets holding the lowest uncovered element, most newly covered first
    (ties by index), and prunes a node when the sets chosen plus
    ``⌈uncovered / largest set⌉`` exceed k (a set's size counts every
    bit of its mask).  The first cover found is the least in that search
    order among the minimum ones.

    ``min_size`` must be a proven lower bound on every cover's size: the
    sizes below it have no cover, so skipping them leaves the cover
    found unchanged.

    Sizes stop below the greedy cover's size and at
    ``SET_COVER_NODE_CAP`` nodes.  Returns ``(chosen, exact, lower)``:
    ``lower`` is a proven lower bound on every cover's size, ``exact``
    is ``lower == len(chosen)``, and ``chosen`` is the greedy cover
    unless a smaller one was found.
    """
    holders: list = [[] for _ in range(max((mk.bit_length() for mk in masks), default=0))]
    for i, mk in enumerate(masks):
        for e in range(mk.bit_length()):
            if mk >> e & 1:
                holders[e].append(i)
    # every superset of a set holds its lowest element
    keep = [
        i
        for i, mk in enumerate(masks)
        if mk
        and not any(
            j != i and mk & ~masks[j] == 0 and (mk != masks[j] or j < i)
            for j in holders[(mk & -mk).bit_length() - 1]
        )
    ]
    best = [keep[k] for k in greedy_set_cover([masks[i] for i in keep], full)]
    kept = set(keep)
    holders = [[i for i in h if i in kept] for h in holders]
    largest = max((masks[i].bit_count() for i in keep), default=1)
    chosen: list = []
    nodes = 0

    def dfs(uncovered: int, k: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > SET_COVER_NODE_CAP:
            return False
        if not uncovered:
            return True
        if len(chosen) + -(-uncovered.bit_count() // largest) > k:
            return False
        branches = sorted(
            holders[(uncovered & -uncovered).bit_length() - 1],
            key=lambda i: (-(masks[i] & uncovered).bit_count(), i),
        )
        for i in branches:
            chosen.append(i)
            if dfs(uncovered & ~masks[i], k):
                return True
            chosen.pop()
        return False

    lower = max(-(-full.bit_count() // largest), min_size)
    for k in range(lower, len(best)):
        if dfs(full, k):
            return chosen, True, k
        if nodes > SET_COVER_NODE_CAP:
            return best, False, k
        lower = k + 1
    return best, lower == len(best), lower


def _min_cover(kind: str, candidates: dict, items: Sequence, search: bool, scale: int) -> tuple:
    """Minimum cover of ``items`` by the ``candidates`` (line or plane key
    at ``scale`` -> set of items): exact when ``search`` is true, else
    greedy and flagged.

    The keys are sorted in the order of their canonical records
    (:func:`~affinecover.geometry.line_order`), and a record is built
    only for a chosen key.  Returns (count, witness); the witness keeps
    the chosen objects in sorted order and assigns each item to the
    first one holding it.
    """
    line = kind in LINE_KINDS
    keys = sorted(candidates, key=line_order if line else None)
    sets = [candidates[key] for key in keys]
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
    record = line_from_key if line else plane_from_key
    w = CoverWitness(kind, tuple(record(keys[i], scale) for i in picked), assignment, exact)
    return w.count, w


def min_vertex_line_cover(d: Drawing, budget_n: int = 40) -> tuple:
    """Exact minimum number of lines through all vertex points.

    Candidates are the lines through all vertex pairs (complete for
    n >= 2); a single vertex gets a line in the first basis direction.
    Above the vertex budget the greedy bound is returned, flagged.
    """
    _require_verified(d)
    g = d.graph
    if g.n == 1:
        p = d.grid[0]
        line = line_from_key(line_key(p, (p[0] + 1, *p[1:])), d.scale)
        return 1, CoverWitness("lines_for_vertices", (line,), {0: 0})
    grid = d.grid
    members: dict = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            members.setdefault(line_key(grid[u], grid[v]), set()).update((u, v))
    return _min_cover("lines_for_vertices", members, range(g.n), g.n <= budget_n, d.scale)


def min_edge_plane_cover(d: Drawing, budget_m: int = 60) -> tuple:
    """Exact minimum number of planes containing all edge segments.

    Candidate planes are spanned by an edge plus a third vertex (a
    plane covering two or more edges always contains such a triple);
    an edge all other vertices are collinear with gets one canonical
    plane of its own.  Above the edge budget: greedy, flagged.

    An edge lies on a spanned candidate exactly when it spans that
    candidate with some third vertex (of the three non-collinear points
    that span it, one is off the edge's line), so each candidate's edges
    are the edges that produced its key.  If one edge has all other
    vertices on its line, every vertex is on that line and the one
    fallback plane holds every edge.
    """
    _require_verified(d)
    if d.dim != 3:
        raise ValueError("edge plane covers exist only for 3D drawings")
    g = d.graph
    edges = sorted(g.edges)
    if not edges:
        return 0, CoverWitness("planes_for_edges", (), {})
    grid = d.grid
    keyed: dict = {}
    for e in edges:
        a, b = grid[e[0]], grid[e[1]]
        for c in grid:
            key = plane_key(a, b, c)
            if key is not None:
                keyed.setdefault(key, set()).add(e)
    if not keyed:
        # the plane through edge [a, b] and a + e_i, e_i the first axis not along it
        a, b = grid[edges[0][0]], grid[edges[0][1]]
        axes = (tuple(c + (i == j) for j, c in enumerate(a)) for i in range(3))
        keyed[next(k for e in axes if (k := plane_key(a, b, e)) is not None)] = set(edges)
    return _min_cover("planes_for_edges", keyed, edges, g.m <= budget_m, d.scale)


def segment_slope_count(d: Drawing) -> tuple:
    """(segments, slopes): maximal collinear connected edge paths and
    distinct edge directions of a verified 2D drawing.

    Edges on one line of a verified drawing meet only at shared
    endpoints, so they form disjoint paths; each vertex where two of
    them meet joins two edges into one segment.
    """
    _require_verified(d)
    if d.dim != 2:
        raise ValueError("segments/slopes are 2D measurements")
    lines = _distinct_edge_lines(d)
    segments = 0
    for es in lines.values():
        ends = [v for e in es for v in e]
        segments += len(es) - (len(ends) - len(set(ends)))
    return segments, len({direction for direction, _ in lines})


def _strictly_inside_triangle(x, a, b, c, normal) -> bool:
    drop = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != drop]
    pa, pb, pc, px = (tuple(p[k] for k in keep) for p in (a, b, c, x))
    s1 = orient(pa, pb, px)
    s2 = orient(pb, pc, px)
    s3 = orient(pc, pa, px)
    return s1 != 0 and s1 == s2 == s3


def kn_structural_checks(d: Drawing, w: CoverWitness) -> tuple:
    """Structural sanity of a plane cover of a complete graph drawing.

    Every plane with exactly four assigned vertices must hold one point
    strictly inside the triangle of the other three; no two four-vertex
    planes may share three or more vertices; no plane may geometrically
    contain five or more vertex points.  A violation on a verified
    drawing indicates a kernel bug.  Returns the violations, each
    ``(plane index, vertices, reason)``; empty when the cover is sound.
    """
    _require_verified(d)
    g = d.graph
    if not is_complete(g):
        raise ValueError("structural checks apply to complete graphs only")
    if w.kind != "planes_for_edges":
        raise ValueError("expected a planes_for_edges witness")
    assigned: dict = {i: set() for i in range(len(w.objects))}
    for e, i in w.assignment.items():
        assigned[i].update(e)
    violations = []
    four_planes = {}
    for i, verts in assigned.items():
        if len(verts) == 4:
            four_planes[i] = verts
            pts = [d.grid[v] for v in sorted(verts)]
            normal = w.objects[i].normal
            inside = [
                v
                for k, v in enumerate(sorted(verts))
                if _strictly_inside_triangle(
                    pts[k], *(pts[j] for j in range(4) if j != k), normal
                )
            ]
            if len(inside) != 1:
                violations.append((i, tuple(sorted(verts)), "no unique interior point"))
    for i in four_planes:
        for j in four_planes:
            if i < j and len(four_planes[i] & four_planes[j]) >= 3:
                violations.append(
                    (i, tuple(sorted(four_planes[i] & four_planes[j])), f"shares 3+ vertices with plane {j}")
                )
    for i, plane in enumerate(w.objects):
        key = scaled_key(plane, d.scale)
        on_plane = [v for v in range(g.n) if key is not None and key_contains(key, d.grid[v])]
        if len(on_plane) >= 5:
            violations.append((i, tuple(on_plane), "plane contains 5+ vertex points"))
    return tuple(violations)


# ---------------------------------------------------------------------------
# witness validation
# ---------------------------------------------------------------------------


def verify_cover_witness(d: Drawing, w: CoverWitness) -> None:
    """Check a cover witness against a verified drawing; raise on failure."""
    _require_verified(d)
    if w.kind not in WITNESS_KINDS:
        raise WitnessViolation(f"unknown witness kind {w.kind!r}")
    g = d.graph
    want_line = w.kind in LINE_KINDS
    for obj in w.objects:
        if want_line and not isinstance(obj, CanonLine):
            raise WitnessViolation("line witness holds a non-line object")
        if not want_line and not isinstance(obj, CanonPlane):
            raise WitnessViolation("plane witness holds a non-plane object")
        if want_line and obj.dim != d.dim:
            raise WitnessViolation("line dimension does not match drawing")
        if not is_canonical(obj):
            raise WitnessViolation(f"witness object {obj} is not in canonical form")
    if not want_line and d.dim != 3:
        raise WitnessViolation("plane witness on a 2D drawing")
    items = set(g.edges) if w.kind in EDGE_KINDS else set(range(g.n))
    if set(w.assignment.keys()) != items:
        raise WitnessViolation("assignment does not cover every item exactly")
    keys = [scaled_key(obj, d.scale) for obj in w.objects]
    for item, idx in w.assignment.items():
        if not 0 <= idx < len(w.objects):
            raise WitnessViolation(f"object index {idx} out of range")
        key = keys[idx]
        ends = item if w.kind in EDGE_KINDS else (item,)
        if key is None or not all(key_contains(key, d.grid[v]) for v in ends):
            raise WitnessViolation(f"item {item} not contained in object {idx}")
    if w.kind == "parallel_lines":
        dirs = {obj.direction for obj in w.objects}
        if len(dirs) > 1:
            raise WitnessViolation("parallel witness uses non-parallel lines")
