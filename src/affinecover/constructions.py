"""Certified drawing constructions.

Every public function returns a :class:`ConstructionResult` whose drawing
has been re-checked by the exact crossing verifier and whose witness has
been validated against that drawing.  Nothing here is trusted on faith:
line and plane counts are measured, never asserted from formulas, and a
construction that cannot survive its own verification raises
:class:`ConstructionError` instead of returning.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .drawing import (
    CoverWitness,
    Drawing,
    DrawingViolation,
    edge_line_count,
    verify_cover_witness,
    verify_crossing_free,
)
from .geometry import (
    canon_line,
    canon_plane,
    canonical_plane_through_segment,
    integerize,
    key_contains,
    qpoint,
    scaled_key,
)
from .graphs import (
    FamilySpec,
    Graph,
    balanced_multipartite,
    c4_prism_stack,
    complete_binary_tree,
    complete_bipartite,
    complete_bipartite_shape,
    complete_graph,
    is_complete,
    linear_forest_order,
    multipartite_classes,
    nested_squares,
    nested_triangles,
)
from .planar import grid_drawing, tree_tracks
from .solvers import lva_exact, vertex_thickness_exact

__all__ = [
    "DRAW_TARGETS",
    "KN_ORDERS",
    "PRISM_LINE_CONSTANT",
    "ConstructionError",
    "ConstructionResult",
    "DrawTarget",
    "binary_tree_grid",
    "draw_target",
    "k2q_optimal",
    "kn_small_plane_cover",
    "kpq_plane_book",
    "moment_curve_kn",
    "nested_squares_two_lines",
    "pach_multipartite",
    "parallel_kpq_lines",
    "pi13_drawing",
    "pi23_drawing",
    "prism_stack_3d",
    "spiral_two_lines",
    "tree_grid_size",
]

#: Constant C in the claimed line budget ceil(C * n^(2/3)) for the
#: 3-dimensional prism stacks.  Chosen with slack above the measured
#: counts of the stacked-column layout (56 lines at n=32, 144 at n=108).
PRISM_LINE_CONSTANT = 7.0


class ConstructionError(Exception):
    """A construction failed its own verification or budget.

    ``violation`` carries the last verifier complaint when one exists.
    """

    def __init__(self, message: str, violation: object = None) -> None:
        super().__init__(message)
        self.violation = violation


@dataclass(frozen=True)
class ConstructionResult:
    """A verified drawing bundled with its cover witness.

    ``claimed_bound`` is the budget the construction promises; the
    witness never uses more objects than that.  ``box`` is the integer
    bounding-box extent of the layout, one entry per axis.
    """

    drawing: Drawing
    witness: CoverWitness
    claimed_bound: int
    box: tuple


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _verified(graph: Graph, points: list, meta: dict) -> Drawing:
    grid, scale = integerize(points)
    return verify_crossing_free(Drawing(graph, grid, scale, dict(meta)))


def _int_box(d: Drawing) -> tuple:
    """Per axis, the extent of the drawing's points rounded up to an integer."""
    return tuple(-((min(c) - max(c)) // d.scale) for c in zip(*d.grid))


def _package(d: Drawing, witness: CoverWitness, claimed_bound: int) -> ConstructionResult:
    verify_cover_witness(d, witness)
    if witness.count > claimed_bound:
        raise ConstructionError(
            f"witness uses {witness.count} objects but only {claimed_bound} were claimed"
        )
    return ConstructionResult(d, witness, int(claimed_bound), _int_box(d))


def _next_prime(lo: int) -> int:
    x = max(int(lo), 2)
    while True:
        for f in range(2, int(math.isqrt(x)) + 1):
            if x % f == 0:
                break
        else:
            return x
        x += 1


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# vertices on few lines in 3-space
# ---------------------------------------------------------------------------


def _skew_line_layout(n: int, orders: list, p: int, exact: bool = True) -> tuple:
    """Points for ``n`` vertices on skew lines, and their line witness.

    ``orders[i]`` lists class i's vertices in the order they take along
    the line through (i, 0, 0) with direction (0, 1, i).  They sit at
    parameters congruent to i*i modulo the prime ``p``; for distinct
    lines i and j the parameter classes differ, which keeps any
    connecting segment from passing through a third line's points.
    """
    points = [None] * n
    lines = []
    assignment = {}
    for i, order in enumerate(orders):
        lines.append(canon_line(qpoint(i, 0, 0), qpoint(i, 1, i)))
        base = (i * i) % p
        for j, v in enumerate(order):
            points[v] = (i, base + j * p, i * (base + j * p))
            assignment[v] = i
    return points, CoverWitness("lines_for_vertices", tuple(lines), assignment, exact=exact)


def pach_multipartite(r: int, n: int) -> ConstructionResult:
    """Balanced complete r-partite graph with each class on its own line.

    Class i occupies the line through (i, 0, 0) with direction (0, 1, i);
    the member parameters are spread over distinct residue classes modulo
    a prime p >= 2r - 1 so that no segment between two classes meets a
    third class's line at one of its points.
    """
    if r < 2:
        raise ValueError("need at least 2 classes")
    if n < r or n % r != 0:
        raise ValueError("number of vertices must be a positive multiple of r")
    p = _next_prime(2 * r - 1)
    points, witness = _skew_line_layout(n, [sorted(c) for c in multipartite_classes(r, n)], p)
    d = _verified(
        balanced_multipartite(r, n),
        points,
        {"construction": "pach_multipartite", "r": r, "n": n, "prime": p},
    )
    return _package(d, witness, r)


def pi13_drawing(g: Graph) -> ConstructionResult:
    """Place every vertex of ``g`` on few lines in 3-space.

    Partitions the vertices into linear forests, orders each forest along
    its paths, and lays class i on the skew line through (i, 0, 0) with
    direction (0, 1, i).  Consecutive path vertices are adjacent on their
    line, so within-class edges are collinear sub-segments and never
    cross anything off their line.
    """
    part = lva_exact(g)
    r = part.value
    meta = {"construction": "pi13_drawing", "classes": r, "exact": part.exact}
    if r > 1:
        meta["prime"] = _next_prime(2 * r - 1)
    orders = [linear_forest_order(g, cls) for cls in part.partition.classes]
    # One line needs no prime: p = 1 puts the j-th vertex at (0, j, 0).
    points, witness = _skew_line_layout(g.n, orders, meta.get("prime", 1), exact=part.exact)
    d = _verified(g, points, meta)
    return _package(d, witness, r)


# ---------------------------------------------------------------------------
# vertices on few parallel planes in 3-space
# ---------------------------------------------------------------------------


def _coprime_pair(rng: random.Random, t: int) -> tuple:
    """A uniformly sampled pair 1 <= b < a <= t with gcd(a, b) = 1."""
    if t < 2:
        return 2, 1
    while True:
        a = rng.randrange(2, t + 1)
        b = rng.randrange(1, a)
        if math.gcd(a, b) == 1:
            return a, b


def pi23_drawing(g: Graph, seed: int = 0) -> ConstructionResult:
    """Place every vertex of ``g`` on stacked parallel planes z = i.

    Partitions the vertices into planar classes, draws each class on the
    integer grid, then perturbs each layer with a random rotation-like
    shear (a, -b; b, a) with gcd(a, b) = 1 plus a random translation so
    that inter-layer segments avoid each other.  The shear constants
    start small and double after every verification failure; after 64
    attempts the construction gives up with :class:`ConstructionError`.
    """
    part = vertex_thickness_exact(g)
    classes = [sorted(cls) for cls in part.partition.classes]
    k = part.value
    layers = [grid_drawing(g.induced(cls)).grid for cls in classes]
    planes = tuple(
        canon_plane(qpoint(0, 0, i), qpoint(1, 0, i), qpoint(0, 1, i)) for i in range(k)
    )
    assignment = {v: i for i, cls in enumerate(classes) for v in cls}
    witness = CoverWitness("planes_for_vertices", planes, assignment, exact=part.exact)
    meta = {"construction": "pi23_drawing", "classes": k, "exact": part.exact, "seed": seed}

    if k == 1:
        points = [(x, y, 0) for x, y in layers[0]]
        d = _verified(g, points, dict(meta, attempts=0))
        return _package(d, witness, k)

    m = max(g.m, 1)
    rng = random.Random(seed)
    failures = 0
    last_violation = None
    for attempt in range(1, 65):
        scale = 1 << failures
        s = scale * m * m
        t = max(2, scale * m)
        points = [None] * g.n
        for i, cls in enumerate(classes):
            a, b = _coprime_pair(rng, t)
            dx = rng.randrange(s)
            dy = rng.randrange(s)
            for v, (x, y) in zip(cls, layers[i]):
                points[v] = (a * x - b * y + dx, b * x + a * y + dy, i)
        try:
            d = _verified(g, points, dict(meta, attempts=attempt))
        except DrawingViolation as exc:
            last_violation = exc
            failures += 1
            continue
        return _package(d, witness, k)
    raise ConstructionError(
        "no crossing-free layer perturbation found within 64 attempts",
        last_violation,
    )


# ---------------------------------------------------------------------------
# complete graphs
# ---------------------------------------------------------------------------


def moment_curve_kn(n: int) -> ConstructionResult:
    """K_n with vertices paired off along the curve (t, t^2, t^3).

    No four points of the curve are coplanar and no three are collinear,
    so the straight-line drawing is crossing-free and consecutive pairs
    (2i, 2i+1) supply ceil(n/2) covering lines.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    g = complete_graph(n)
    points = [(t, t * t, t * t * t) for t in range(n)]
    lines = []
    assignment = {}
    for i in range(0, n - 1, 2):
        assignment[i] = assignment[i + 1] = len(lines)
        lines.append(canon_line(points[i], points[i + 1]))
    if n % 2 == 1:
        v = n - 1
        assignment[v] = len(lines)
        t = n - 1
        lines.append(canon_line(points[v], qpoint(t + 1, t * t, t * t * t)))
    witness = CoverWitness("lines_for_vertices", tuple(lines), assignment)
    d = _verified(g, points, {"construction": "moment_curve_kn", "n": n})
    return _package(d, witness, _ceil_div(n, 2))


# Shared coordinates for the small complete-graph plane certificates.
# The first four points are coplanar (z = 0) with the third strictly
# inside the triangle of the others; each later point was placed on the
# designed planes below and is re-verified on every load.
_KN_BASE = ((0, 0, 0), (2, 3, 0), (1, 1, 0), (4, 0, 0))
_KN_POINTS = {
    4: _KN_BASE,
    5: _KN_BASE + ((2, 1, 1),),
    6: _KN_BASE + ((3, -1, 1), (2, -3, 3)),
    7: _KN_BASE
    + ((3, -1, 1), (2, -3, 3), (Fraction(7, 3), Fraction(-1, 3), Fraction(4, 3))),
    8: _KN_BASE
    + (
        (3, -1, 1),
        (2, -3, 3),
        (Fraction(7, 3), Fraction(-1, 3), Fraction(4, 3)),
        (Fraction(23, 12), Fraction(-1, 6), Fraction(2, 3)),
    ),
}
# Planes as vertex tuples: a triple spans the plane through those points,
# a pair means the canonical plane through that segment.  Listed in
# assignment priority order (every edge goes to the first plane that
# contains both of its endpoints).
_KN_PLANES = {
    4: ((0, 1, 2),),
    5: ((0, 1, 2), (4, 0, 1), (4, 2, 3)),
    6: ((0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 4, 5)),
    7: ((0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 4, 5), (6, 0, 2), (3, 6)),
    8: ((0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 4, 5), (0, 3, 6), (2, 6), (1, 7)),
}
#: The orders n of the shipped K_n certificates, ascending and consecutive.
KN_ORDERS = tuple(_KN_POINTS)


def kn_small_plane_cover(n: int) -> ConstructionResult:
    """Shipped plane-cover certificates for K_n, n in :data:`KN_ORDERS`.

    Coordinates and plane lists are fixed data; the cover assignment is
    recomputed from exact incidence on every call and the whole bundle is
    re-verified before it is returned.
    """
    if n not in KN_ORDERS:
        raise ValueError(
            f"certificates are shipped for {KN_ORDERS[0]} <= n <= {KN_ORDERS[-1]} only"
        )
    pts = [qpoint(*c) for c in _KN_POINTS[n]]
    g = complete_graph(n)
    planes = []
    for spec in _KN_PLANES[n]:
        if len(spec) == 2:
            planes.append(canonical_plane_through_segment(pts[spec[0]], pts[spec[1]]))
        else:
            planes.append(canon_plane(pts[spec[0]], pts[spec[1]], pts[spec[2]]))
    d = _verified(g, pts, {"construction": "kn_small_plane_cover", "n": n})
    keys = [scaled_key(pl, d.scale) for pl in planes]
    assignment = {}
    for e in sorted(g.edges):
        for idx, key in enumerate(keys):
            if key_contains(key, d.grid[e[0]]) and key_contains(key, d.grid[e[1]]):
                assignment[e] = idx
                break
        else:
            raise ConstructionError(f"edge {e} is covered by no shipped plane")
    witness = CoverWitness("planes_for_edges", tuple(planes), assignment)
    return _package(d, witness, len(planes))


# ---------------------------------------------------------------------------
# complete bipartite graphs
# ---------------------------------------------------------------------------


def kpq_plane_book(p: int, q: int) -> ConstructionResult:
    """K_{p,q} drawn in a book of ceil(p/2) half-plane pairs.

    The q-side sits on the z-axis (the book spine); the j-th page plane
    y = (j+1) x carries up to two p-side vertices, one on each side of
    the spine, so every edge lies inside one page.
    """
    if p < 1 or q < p:
        raise ValueError("need 1 <= p <= q")
    g = complete_bipartite(p, q)
    points = [None] * (p + q)
    for j in range(p):
        s = j // 2 + 1
        points[j] = (1, s, 0) if j % 2 == 0 else (-1, -s, 0)
    for i in range(q):
        points[p + i] = (0, 0, i + 1)
    nplanes = _ceil_div(p, 2)
    planes = tuple(
        canon_plane(qpoint(0, 0, 0), qpoint(0, 0, 1), qpoint(1, j + 1, 0))
        for j in range(nplanes)
    )
    assignment = {}
    for u in range(p):
        for i in range(q):
            assignment[(u, p + i)] = u // 2
    witness = CoverWitness("planes_for_edges", planes, assignment)
    d = _verified(g, points, {"construction": "kpq_plane_book", "p": p, "q": q})
    return _package(d, witness, nplanes)


def parallel_kpq_lines(p: int, q: int) -> ConstructionResult:
    """K_{p,q} with all vertices on p + 1 parallel lines.

    The q-side shares one vertical line; each p-side vertex gets its own
    parallel line.  Projected to the xy-plane the edge segments from
    different p-side vertices lie on distinct lines through the origin,
    so they can only meet at shared endpoints.
    """
    if p < 1 or q < p:
        raise ValueError("need 1 <= p <= q")
    g = complete_bipartite(p, q)
    points = [None] * (p + q)
    for j in range(p):
        points[j] = (1, j + 1, 0)
    for i in range(q):
        points[p + i] = (0, 0, i)
    lines = [canon_line(qpoint(0, 0, 0), qpoint(0, 0, 1))]
    lines += [canon_line(points[j], qpoint(1, j + 1, 1)) for j in range(p)]
    assignment = {p + i: 0 for i in range(q)}
    assignment.update({j: j + 1 for j in range(p)})
    witness = CoverWitness("parallel_lines", tuple(lines), assignment)
    d = _verified(g, points, {"construction": "parallel_kpq_lines", "p": p, "q": q})
    return _package(d, witness, p + 1)


def k2q_optimal(q: int) -> ConstructionResult:
    """Planar drawing of K_{2,q} hitting the exact segment-line minimum.

    The q-side sits on the parabola y = x^2; the 2-side sits on the
    y-axis, one vertex above the parabola's reach (so its edges stay
    above the chords) and one far below (so its edges stay below).  Each
    parabola chord/tangential direction is then shared by at most one
    other segment, and collinear merges happen only along the y-axis.
    """
    if q < 1:
        raise ValueError("need q >= 1")
    n = q + 2
    g = complete_bipartite(2, q) if q >= 2 else Graph(3, [(0, 2), (1, 2)])
    cap = q + 1
    depth = cap * cap + 1
    xs = [Fraction(0)]
    j = 1
    while len(xs) < q:
        xs.append(Fraction(j))
        if len(xs) < q:
            xs.append(Fraction(-cap, j))
        j += 1
    points = [qpoint(0, cap), qpoint(0, -depth)]
    points += [qpoint(x, x * x) for x in xs]
    d = _verified(g, points, {"construction": "k2q_optimal", "q": q})
    count, witness = edge_line_count(d)
    return _package(d, witness, _ceil_div(3 * n - 7, 2))


# ---------------------------------------------------------------------------
# trees and outer-planar layouts on two lines
# ---------------------------------------------------------------------------

_SPIRAL_RAYS = ((1, 1), (-1, 1), (-1, -1), (1, -1))

#: The two diagonal lines y = x and y = -x through the origin.
_DIAGONALS = (
    canon_line(qpoint(0, 0), qpoint(1, 1)),
    canon_line(qpoint(0, 0), qpoint(1, -1)),
)


def spiral_two_lines(g: Graph, tracks: tuple[int, ...]) -> ConstructionResult:
    """Draw ``g`` on the two diagonal lines y = x and y = -x.

    ``tracks[v]`` is the track of vertex v.  Track j occupies the j-th
    quarter-turn of a spiral: its vertices sit on one diagonal ray at
    radii in [2^j, 2^(j+1)), ordered to follow their parents' order on
    track j - 1.  Edges must stay within a track or join consecutive
    tracks.  Works for trees laid out by
    :func:`affinecover.planar.tree_tracks`; anything that still crosses
    raises :class:`ConstructionError`.
    """
    t = tracks
    if len(t) != g.n:
        raise ValueError("track assignment length must match the vertex count")
    if any(x < 0 for x in t):
        raise ValueError("tracks must be nonnegative")
    for u, v in sorted(g.edges):
        if abs(t[u] - t[v]) > 1:
            raise ValueError(f"edge {(u, v)} spans non-adjacent tracks")
    ntracks = max(t) + 1
    buckets = [[] for _ in range(ntracks)]
    for v in range(g.n):
        buckets[t[v]].append(v)
    pos = {}
    for j, bucket in enumerate(buckets):
        if j == 0:
            bucket.sort()
        else:
            bucket.sort(
                key=lambda v: (
                    min((pos[u] for u in g.adj[v] if t[u] == j - 1), default=g.n),
                    v,
                )
            )
        for i, v in enumerate(bucket):
            pos[v] = i
    points = [None] * g.n
    raw_assignment = {}
    for j, bucket in enumerate(buckets):
        dx, dy = _SPIRAL_RAYS[j % 4]
        size = len(bucket)
        for i, v in enumerate(bucket):
            radius = Fraction(2**j * (size + i), size)
            points[v] = qpoint(radius * dx, radius * dy)
            raw_assignment[v] = j % 2
    used = sorted(set(raw_assignment.values()))
    remap = {line: i for i, line in enumerate(used)}
    objects = tuple(_DIAGONALS[i] for i in used)
    assignment = {v: remap[raw_assignment[v]] for v in raw_assignment}
    try:
        d = _verified(
            g, points, {"construction": "spiral_two_lines", "tracks": ntracks}
        )
    except DrawingViolation as exc:
        raise ConstructionError(
            "track assignment does not admit the spiral layout", exc
        ) from exc
    witness = CoverWitness("lines_for_vertices", objects, assignment)
    return _package(d, witness, 2)


def tree_grid_size(h: int) -> int:
    """Grid side m(h) used by :func:`binary_tree_grid` for height h >= 2.

    m(2) = 2, m(3) = 4, and m(h) = 2 m(h-2) + 4: each layout nests four
    height-(h-2) blocks two abreast with three grid lines of clearance.
    Solved, m(2k) = 3 * 2^k - 4 and m(2k+1) = 2^(k+2) - 4.
    """
    if h < 2:
        raise ValueError("grid size is defined for h >= 2")
    k, odd = divmod(h, 2)
    return (4 << k if odd else 3 << k) - 4


def _place_tree(v: int, h: int, ox: int, oy: int, pos: dict) -> None:
    pos[v] = (ox, oy)
    if h == 0:
        return
    a, b = 2 * v + 1, 2 * v + 2
    if h == 1:
        pos[a] = (ox + 1, oy)
        pos[b] = (ox, oy + 1)
        return
    if h == 2:
        pos[a] = (ox + 1, oy)
        pos[b] = (ox, oy + 2)
        pos[2 * a + 1] = (ox + 2, oy)
        pos[2 * a + 2] = (ox + 1, oy + 1)
        pos[2 * b + 1] = (ox + 1, oy + 2)
        pos[2 * b + 2] = (ox, oy + 3)
        return
    if h == 3:
        pos[a] = (ox + 1, oy)
        pos[b] = (ox, oy + 3)
        g11, g12 = 2 * a + 1, 2 * a + 2
        g21, g22 = 2 * b + 1, 2 * b + 2
        pos[g11] = (ox + 3, oy)
        pos[2 * g11 + 1] = (ox + 4, oy)
        pos[2 * g11 + 2] = (ox + 3, oy + 1)
        pos[g12] = (ox + 1, oy + 1)
        pos[2 * g12 + 1] = (ox + 2, oy + 1)
        pos[2 * g12 + 2] = (ox + 1, oy + 2)
        pos[g21] = (ox + 2, oy + 3)
        pos[2 * g21 + 1] = (ox + 3, oy + 3)
        pos[2 * g21 + 2] = (ox + 2, oy + 4)
        pos[g22] = (ox, oy + 4)
        pos[2 * g22 + 1] = (ox, oy + 5)
        pos[2 * g22 + 2] = (ox + 1, oy + 4)
        return
    m = tree_grid_size(h - 2)
    pos[a] = (ox + 1, oy)
    pos[b] = (ox, oy + m + 3)
    _place_tree(2 * a + 1, h - 2, ox + m + 2, oy, pos)
    _place_tree(2 * a + 2, h - 2, ox + 1, oy + 1, pos)
    _place_tree(2 * b + 1, h - 2, ox + m + 1, oy + m + 3, pos)
    _place_tree(2 * b + 2, h - 2, ox, oy + m + 4, pos)


def binary_tree_grid(h: int) -> ConstructionResult:
    """Complete binary tree of height h on an m(h) x (m(h)+1) grid.

    All edges are axis-parallel unit-direction segments, so the number of
    distinct segment lines is at most 2 m(h) + 1.  The witness is the
    measured line partition, not the budget.
    """
    if h < 0:
        raise ValueError("need h >= 0")
    g = complete_binary_tree(h)
    pos = {}
    _place_tree(0, h, 0, 0, pos)
    points = [pos[v] for v in range(g.n)]
    meta = {"construction": "binary_tree_grid", "height": h}
    if h >= 2:
        meta["grid_side"] = tree_grid_size(h)
    d = _verified(g, points, meta)
    count, witness = edge_line_count(d)
    claimed = 2 * tree_grid_size(h) + 1 if h >= 2 else count
    return _package(d, witness, claimed)


# ---------------------------------------------------------------------------
# prisms, nested cycles
# ---------------------------------------------------------------------------

_PRISM_CORNERS = {
    "C4": ((0, 0), (1, 0), (1, 1), (0, 1)),
    "C3": ((0, 0), (1, 0), (0, 1)),
}


def prism_stack_3d(k: int, base: str = "C4") -> ConstructionResult:
    """Stack of k nested prisms over a square or triangle, in 3-space.

    Rings are grouped into vertical columns of height about k^(1/3); the
    column footprints sit on the skewed lattice (3i + j, 3j + i), visited
    in boustrophedon order, and consecutive columns are traversed in
    opposite z-directions so each inter-column connector only moves one
    level.  The skew makes every connector cross the walls of other
    columns at non-integer transverse coordinates, clearing all vertices
    and edges.  The claimed line budget is ceil(C * n^(2/3)) with
    C = :data:`PRISM_LINE_CONSTANT`; the witness is the measured count.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if base not in _PRISM_CORNERS:
        raise ValueError("base must be 'C4' or 'C3'")
    corners = _PRISM_CORNERS[base]
    g = c4_prism_stack(k) if base == "C4" else nested_triangles(k)
    side = 1
    while (side + 1) ** 3 <= k:
        side += 1
    if side == 1:
        h = k
        bases = [(0, 0)]
    else:
        h = _ceil_div(k, side * side)
        cells = []
        for i in range(side):
            js = range(side) if i % 2 == 0 else range(side - 1, -1, -1)
            cells.extend((i, j) for j in js)
        bases = [(3 * i + j, 3 * j + i) for i, j in cells]
    points = []
    for ring in range(k):
        col, lvl = divmod(ring, h)
        bx, by = bases[col]
        z = lvl if col % 2 == 0 else h - lvl
        for cx, cy in corners:
            points.append((bx + cx, by + cy, z))
    n = len(corners) * k
    meta = {
        "construction": "prism_stack_3d",
        "base": base,
        "k": k,
        "grid_side": side,
        "column_height": h,
        "line_constant": PRISM_LINE_CONSTANT,
    }
    d = _verified(g, points, meta)
    _, witness = edge_line_count(d)
    claimed = math.ceil(PRISM_LINE_CONSTANT * n ** (2.0 / 3.0))
    return _package(d, witness, claimed)


def nested_squares_two_lines(k: int) -> ConstructionResult:
    """k nested squares with all vertices on the two diagonals y = +-x.

    Ring i is the axis-aligned square of half-diagonal i + 1; its corners
    alternate between the two diagonal lines, and consecutive rings are
    joined along the diagonals by the construction of the graph itself.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    g = nested_squares(k)
    points = []
    assignment = {}
    for i in range(k):
        r = i + 1
        ring = ((r, r), (-r, r), (-r, -r), (r, -r))
        for c, (x, y) in enumerate(ring):
            points.append((x, y))
            assignment[4 * i + c] = c % 2
    witness = CoverWitness("lines_for_vertices", _DIAGONALS, assignment)
    d = _verified(g, points, {"construction": "nested_squares_two_lines", "rings": k})
    return _package(d, witness, 2)


# ---------------------------------------------------------------------------
# draw targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrawTarget:
    """One ``affinecover draw`` target.

    ``builder`` names the construction in this module.  It is looked up
    when called, so a wrapper installed on the module attribute (as the
    benchmark tracer does) sees the call.  ``args`` maps (graph, family
    spec or None, seed) to the builder's arguments, or to None when the
    target does not apply, and ``needs`` then says what it needs.
    """

    builder: str
    args: Callable
    needs: str = ""


def _tree_args(g: Graph, spec, seed):
    try:
        return g, tree_tracks(g, 0)
    except ValueError:  # not a tree
        return None


def _kpq_args(g: Graph, spec, seed):
    return complete_bipartite_shape(g)


def _k2q_args(g: Graph, spec, seed):
    shape = complete_bipartite_shape(g)
    return shape[1:] if shape is not None and shape[0] == 2 else None


def _family_args(kinds: dict):
    """Args for rebuilding a family's own layout: the family's size, then
    the extra arguments ``kinds`` gives for the spec's kind."""

    def args(g: Graph, spec, seed):
        if spec is None or spec.kind not in kinds:
            return None
        return (spec.params[0], *kinds[spec.kind])

    return args


#: Every draw target, in the order ``affinecover draw --help`` lists them.
DRAW_TARGETS = {
    "pi13": DrawTarget("pi13_drawing", lambda g, spec, seed: (g,)),
    "pi23": DrawTarget("pi23_drawing", lambda g, spec, seed: (g, seed)),
    "rho23_kn": DrawTarget(
        "kn_small_plane_cover",
        lambda g, spec, seed: (g.n,) if is_complete(g) and g.n in KN_ORDERS else None,
        f"a complete graph on {KN_ORDERS[0]}..{KN_ORDERS[-1]} vertices",
    ),
    "rho23_kpq": DrawTarget("kpq_plane_book", _kpq_args, "a complete bipartite graph"),
    "two_lines": DrawTarget("spiral_two_lines", _tree_args, "a tree"),
    "parallel_kpq": DrawTarget("parallel_kpq_lines", _kpq_args, "a complete bipartite graph"),
    "binary_tree": DrawTarget(
        "binary_tree_grid",
        _family_args({"complete_binary_tree": ()}),
        "--family complete_binary_tree:h",
    ),
    "k2q": DrawTarget("k2q_optimal", _k2q_args, "a complete bipartite graph with p = 2"),
    "prism3d": DrawTarget(
        "prism_stack_3d",
        _family_args({"c4_prism_stack": ("C4",), "nested_triangles": ("C3",)}),
        "--family c4_prism_stack:k or nested_triangles:k",
    ),
    "nested_squares": DrawTarget(
        "nested_squares_two_lines",
        _family_args({"nested_squares": ()}),
        "--family nested_squares:k",
    ),
}


def draw_target(
    target: str, g: Graph, spec: FamilySpec | None = None, seed: int = 0
) -> ConstructionResult:
    """Build draw target ``target`` for ``g`` (given as family ``spec``
    when it came from one); ValueError when the target does not apply."""
    entry = DRAW_TARGETS[target]
    args = entry.args(g, spec, seed)
    if args is None:
        raise ValueError(f"target {target} needs {entry.needs}")
    res = globals()[entry.builder](*args)
    if res.drawing.graph != g:
        raise ValueError(
            f"target {target!r} rebuilds a canonical layout whose vertex "
            "labels do not match this input; pass the graph via --family instead"
        )
    return res
