"""Exact rational geometry kernel.

Points are tuples of ``fractions.Fraction`` (or int) in dimension 2 or
3; every predicate is exact, with no epsilons, since crossing-freeness
and "edge lies on this line/plane" are equality statements.  The
program decides with :func:`forbidden_contact` (do two segments meet
anywhere but in one common endpoint?), :func:`collinear` and
:func:`orient`; with integer keys of lines and planes on
:func:`integerize`d points (the key builders :func:`line_key` and
:func:`plane_key`, and :func:`key_contains`); and with the canonical
records :class:`CanonLine` and :class:`CanonPlane`, which map any two
pairs (triples) spanning the same line (plane) to one record.  The
Fraction helpers :func:`point_strictly_inside_segment`,
:func:`line_contains_point` and :func:`plane_contains_point` are called
by no program path; they stay only for the benchmark tracer, which
counts their calls.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

QPoint = tuple  # tuple of Fraction, length 2 or 3


def qpoint(*coords) -> QPoint:
    """Build an exact rational point from ints/Fractions/strings."""
    if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
        coords = tuple(coords[0])
    if len(coords) not in (2, 3):
        raise ValueError(f"points must have dimension 2 or 3, got {len(coords)}")
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _check_common_dimension(points: Sequence[QPoint]) -> int:
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise ValueError("dimension mismatch between points")
    return dim


def orient(*points: QPoint) -> int:
    """Sign of the orientation determinant of 3 points (2D) or 4 points (3D).

    Returns 0 iff the points are collinear (2D) / coplanar (3D).
    """
    dim = _check_common_dimension(points)
    if dim == 2:
        if len(points) != 3:
            raise ValueError("orient in 2D takes exactly 3 points")
        a, b, c = points
        return _sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    if len(points) != 4:
        raise ValueError("orient in 3D takes exactly 4 points")
    a, b, c, d = points
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    det = (
        ux * (vy * wz - vz * wy)
        - uy * (vx * wz - vz * wx)
        + uz * (vx * wy - vy * wx)
    )
    return _sign(det)


def _sub(a: QPoint, b: QPoint):
    return tuple(x - y for x, y in zip(a, b))


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _is_zero(v) -> bool:
    return all(x == 0 for x in v)


# The predicates below assume points of one common dimension and do not
# check it, so the verifier can call them per pair; ``orient``
# validates its arguments.


def collinear(a: QPoint, b: QPoint, c: QPoint) -> bool:
    """True iff the three points (2D or 3D) lie on one line."""
    ux, uy = b[0] - a[0], b[1] - a[1]
    vx, vy = c[0] - a[0], c[1] - a[1]
    if ux * vy != uy * vx:
        return False
    if len(a) == 2:
        return True
    uz, vz = b[2] - a[2], c[2] - a[2]
    return uy * vz == uz * vy and uz * vx == ux * vz


def _span(a: QPoint, b: QPoint) -> tuple:
    """(axis, lo, hi): the dominant axis of [a, b] and its range there."""
    d = [abs(x - y) for x, y in zip(a, b)]
    axis = d.index(max(d))
    lo, hi = a[axis], b[axis]
    return (axis, lo, hi) if lo <= hi else (axis, hi, lo)


def point_strictly_inside_segment(p: QPoint, a: QPoint, b: QPoint) -> bool:
    """Exact: p lies on segment [a, b] but is neither endpoint."""
    if not collinear(a, b, p):
        return False
    axis, lo, hi = _span(a, b)
    return lo < p[axis] < hi


# The three helpers below decide whether segments [a, b] and [c, d] with
# no common endpoint meet at all; any such contact is forbidden.


def _collinear_segments_meet(a, b, c, d) -> bool:
    """All four points on one line: do the 1D intervals overlap?"""
    axis, a1, a2 = _span(a, b)
    b1, b2 = sorted((c[axis], d[axis]))
    return max(a1, b1) <= min(a2, b2)


def _segments_meet_2d(a, b, c, d) -> bool:
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    cx, cy = c[0], c[1]
    # d1, d2: sides of a and b relative to line cd, as orient(c, d, .)
    ex, ey = d[0] - cx, d[1] - cy
    d1 = ex * (ay - cy) - ey * (ax - cx)
    d2 = ex * (by - cy) - ey * (bx - cx)
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return False  # [a, b] strictly on one side of line cd
    # d3, d4: sides of c and d relative to line ab, as orient(a, b, .)
    fx, fy = bx - ax, by - ay
    d3 = fx * (cy - ay) - fy * (cx - ax)
    d4 = fx * (d[1] - ay) - fy * (d[0] - ax)
    if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return False
    # now neither segment lies strictly on one side of the other's line:
    # they meet, unless all four points are collinear and the segments
    # are apart on that line
    if d1 == 0 and d2 == 0:
        return _collinear_segments_meet(a, b, c, d)
    return True


def _segments_meet_3d(a, b, c, d) -> bool:
    ax, ay, az = a
    cx, cy, cz = c
    ux, uy, uz = b[0] - ax, b[1] - ay, b[2] - az
    vx, vy, vz = d[0] - cx, d[1] - cy, d[2] - cz
    wx, wy, wz = cx - ax, cy - ay, cz - az
    n = (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
    if n[0] * wx + n[1] * wy + n[2] * wz:
        return False  # bounding lines are skew: no common point at all
    # coplanar: reduce to 2D by dropping the dominant axis of a plane normal
    if _is_zero(n):
        n = (uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx)
    if _is_zero(n):
        return _collinear_segments_meet(a, b, c, d)
    mags = [abs(x) for x in n]
    drop = mags.index(max(mags))
    i, j = (1, 2) if drop == 0 else (0, 2) if drop == 1 else (0, 1)
    return _segments_meet_2d((a[i], a[j]), (b[i], b[j]), (c[i], c[j]), (d[i], d[j]))


def forbidden_contact(a: QPoint, b: QPoint, c: QPoint, d: QPoint) -> bool:
    """Integer kernel of the crossing verifier.

    True iff the segments meet anywhere but in one common endpoint:
    an interior crossing, a collinear overlap, an endpoint inside the
    other segment, or identical segments.  The arguments are not
    validated; they must be proper segments in one dimension,
    and a common endpoint must be the identical point.  Segments
    [s, p] and [s, q] with a common endpoint s meet elsewhere exactly
    when p - s and q - s point the same way: their cross product is
    zero and their dot product positive.
    """
    if a == c or a == d or b == c or b == d:
        s, p = (a, b) if a == c or a == d else (b, a)
        q = d if c == s else c
        dot = (p[0] - s[0]) * (q[0] - s[0]) + (p[1] - s[1]) * (q[1] - s[1])
        if len(s) == 3:
            dot += (p[2] - s[2]) * (q[2] - s[2])
        return dot > 0 and collinear(s, p, q)
    if len(a) == 2:
        return _segments_meet_2d(a, b, c, d)
    return _segments_meet_3d(a, b, c, d)


# ---------------------------------------------------------------------------
# canonical lines and planes
# ---------------------------------------------------------------------------


class CanonLine(NamedTuple):
    """Canonical record of an affine line in 2D or 3D.

    ``direction`` is the primitive integer direction vector with the
    first nonzero component positive; ``base`` is the unique point of
    the line whose coordinate at the direction's pivot axis is zero.
    """

    dim: int
    direction: tuple
    base: tuple


class CanonPlane(NamedTuple):
    """Canonical record of an affine plane in 3D.

    ``normal`` is the primitive integer normal with the first nonzero
    component positive; the plane is {p : normal · p = offset}.
    """

    normal: tuple
    offset: Fraction


def _is_primitive(v) -> bool:
    """Integer vector with gcd 1 and its first nonzero component positive."""
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in v):
        return False
    return math.gcd(*v) == 1 and next(x for x in v if x) > 0


def is_canonical(obj) -> bool:
    """True iff a line or plane record equals its own canonical form.

    A line's direction is primitive (so nonzero) with its first nonzero
    component positive, and its base is 0 on that pivot axis; a plane's
    normal is primitive with its first nonzero component positive.  Any
    other record is not the output of :func:`canon_line` or
    :func:`canon_plane`; a zero direction or normal would contain every
    point.
    """
    if isinstance(obj, CanonLine):
        if obj.dim not in (2, 3) or len(obj.direction) != obj.dim or len(obj.base) != obj.dim:
            return False
        if not _is_primitive(obj.direction):
            return False
        pivot = next(i for i, x in enumerate(obj.direction) if x)
        return obj.base[pivot] == 0
    if isinstance(obj, CanonPlane):
        return len(obj.normal) == 3 and _is_primitive(obj.normal)
    return False


def canon_line(p: QPoint, q: QPoint) -> CanonLine:
    """Canonical form of the line through two distinct points."""
    _check_common_dimension((p, q))
    if p == q:
        raise ValueError("degenerate line: identical points")
    (ip, iq), scale = integerize((p, q))
    return line_from_key(line_key(ip, iq), scale)


def canon_plane(p: QPoint, q: QPoint, r: QPoint) -> CanonPlane:
    """Canonical form of the plane through three non-collinear 3D points."""
    dim = _check_common_dimension((p, q, r))
    if dim != 3:
        raise ValueError("planes exist only in dimension 3")
    ipts, scale = integerize((p, q, r))
    key = plane_key(*ipts)
    if key is None:
        raise ValueError("degenerate plane: collinear points")
    return plane_from_key(key, scale)


def line_contains_point(line: CanonLine, p: QPoint) -> bool:
    if len(p) != line.dim:
        raise ValueError("dimension mismatch")
    rel = _sub(p, line.base)
    d = line.direction
    if line.dim == 2:
        return rel[0] * d[1] - rel[1] * d[0] == 0
    return _is_zero(_cross3(rel, d))


def plane_contains_point(plane: CanonPlane, p: QPoint) -> bool:
    if len(p) != 3:
        raise ValueError("dimension mismatch")
    return sum(n * x for n, x in zip(plane.normal, p)) == plane.offset


def canonical_plane_through_segment(a: QPoint, b: QPoint) -> CanonPlane:
    """A deterministic plane containing segment [a, b] in 3D.

    Used when a covering plane must be spanned by a single edge: the
    third spanning point is a + e_i for the first coordinate axis e_i
    not parallel to the segment.
    """
    d = _sub(b, a)
    for i in range(3):
        e = tuple(Fraction(1) if j == i else Fraction(0) for j in range(3))
        if not _is_zero(_cross3(d, e)):
            third = tuple(x + y for x, y in zip(a, e))
            return canon_plane(a, b, third)
    raise ValueError("degenerate segment")


#: Coordinate types with exact ``numerator`` and ``denominator``.
_EXACT = (Fraction, int)


def integerize(points: Iterable[QPoint]) -> tuple[list[tuple], int]:
    """Scale a point set by the common denominator so all coordinates are int.

    Returns ``(int_points, scale)`` with every coordinate multiplied by
    the positive integer ``scale``.  Uniform positive scaling preserves
    every incidence and ordering predicate, so verification can run in
    pure integer arithmetic.
    """
    pts = [tuple(c if type(c) in _EXACT else Fraction(c) for c in p) for p in points]
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    return [tuple(c.numerator * (scale // c.denominator) for c in p) for p in pts], scale


# ---------------------------------------------------------------------------
# integer keys of lines and planes
# ---------------------------------------------------------------------------
#
# On the integer points of one ``integerize`` call, a line is keyed by
# (primitive direction d, moment p x d) and a plane by (primitive normal
# n, n . p), with p any of its points; in 2D the moment is the integer
# p_x d_y - p_y d_x.  Two pairs (triples) span the same line (plane)
# exactly when their keys are equal, so grouping and containment need
# no Fraction; ``line_from_key``/``plane_from_key`` build the canonical
# record of a key, once per distinct object.


def _primitive(v: tuple) -> tuple:
    """A nonzero integer vector divided by its gcd, first nonzero component positive."""
    g = math.gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def line_key(p: tuple, q: tuple) -> tuple:
    """Key (direction, moment) of the line through distinct integer points."""
    d = _primitive(tuple(b - a for a, b in zip(p, q)))
    if len(d) == 2:
        return d, p[0] * d[1] - p[1] * d[0]
    return d, _cross3(p, d)


def plane_key(p: tuple, q: tuple, r: tuple) -> tuple | None:
    """Key (normal, offset) of the plane through three integer 3D points;
    None when they are collinear."""
    n = _cross3(_sub(q, p), _sub(r, p))
    if _is_zero(n):
        return None
    n = _primitive(n)
    return n, n[0] * p[0] + n[1] * p[1] + n[2] * p[2]


def key_contains(key: tuple, p: tuple) -> bool:
    """Exact: the integer point p lies on the keyed line or plane."""
    v, c = key
    if len(v) == 2:
        return p[0] * v[1] - p[1] * v[0] == c
    if isinstance(c, tuple):
        return _cross3(p, v) == c
    return v[0] * p[0] + v[1] * p[1] + v[2] * p[2] == c


def line_from_key(key: tuple, scale: int) -> CanonLine:
    """The :class:`CanonLine` of a line key taken at ``scale``.

    The base is the point of the line that is 0 on the direction's pivot
    axis, solved from the moment and divided by ``scale``.
    """
    d, m = key
    if len(d) == 2:
        num = (0, -m) if d[0] else (m, 0)
    elif d[0]:
        num = (0, -m[2], m[1])
    elif d[1]:
        num = (m[2], 0, -m[0])
    else:
        num = (-m[1], m[0], 0)
    den = next(x for x in d if x) * scale
    return CanonLine(len(d), d, tuple(Fraction(x, den) for x in num))


def plane_from_key(key: tuple, scale: int) -> CanonPlane:
    """The :class:`CanonPlane` of a plane key taken at ``scale``."""
    n, offset = key
    return CanonPlane(n, Fraction(offset, scale))


def scaled_key(obj, scale: int) -> tuple | None:
    """Key of a canonical line or plane record on points scaled by ``scale``.

    None when the scaled moment or offset is not an integer: then no
    integer point lies on the object.
    """
    if isinstance(obj, CanonPlane):
        n, c = obj.normal, obj.offset * scale
    else:
        n, b = obj.direction, [x * scale for x in obj.base]
        c = b[0] * n[1] - b[1] * n[0] if obj.dim == 2 else _cross3(b, n)
    if isinstance(c, tuple):
        if any(x.denominator != 1 for x in c):
            return None
        return n, tuple(int(x) for x in c)
    return (n, int(c)) if c.denominator == 1 else None
