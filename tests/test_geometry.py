"""Tests for the exact rational geometry kernel.

Oracle notes: orientation results are cross-checked against an
independent cofactor expansion (different row order) inside the tests;
the segment examples are small enough to verify by hand, and both they
and random small-grid segments check ``forbidden_contact`` against a
parametric solution of the intersection (``reference.classify_oracle``).
Integer line and plane keys are checked against the Fraction canonical
forms they replaced (``reference_canon_line``, ``reference_canon_plane``).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecover.geometry import (
    CanonLine,
    CanonPlane,
    canon_line,
    canon_plane,
    canonical_plane_through_segment,
    collinear,
    forbidden_contact,
    integerize,
    is_canonical,
    key_contains,
    line_contains_point,
    line_from_key,
    line_key,
    orient,
    plane_contains_point,
    plane_from_key,
    plane_key,
    point_strictly_inside_segment,
    qpoint,
    scaled_key,
)
from reference import classify_oracle


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def det2_oracle(a, b, c):
    """2x2 determinant by explicit cofactor expansion along the second row."""
    m = [[b[0] - a[0], b[1] - a[1]], [c[0] - a[0], c[1] - a[1]]]
    val = -m[1][0] * m[0][1] + m[1][1] * m[0][0]
    return (val > 0) - (val < 0)


def det3_oracle(a, b, c, d):
    """3x3 determinant by cofactor expansion along the third column."""
    rows = [
        [b[0] - a[0], b[1] - a[1], b[2] - a[2]],
        [c[0] - a[0], c[1] - a[1], c[2] - a[2]],
        [d[0] - a[0], d[1] - a[1], d[2] - a[2]],
    ]

    def minor(i):
        rs = [rows[j] for j in range(3) if j != i]
        return rs[0][0] * rs[1][1] - rs[0][1] * rs[1][0]

    val = rows[0][2] * minor(0) - rows[1][2] * minor(1) + rows[2][2] * minor(2)
    return (val > 0) - (val < 0)


# ---------------------------------------------------------------------------
# orient
# ---------------------------------------------------------------------------


def test_orient_2d_examples():
    assert orient(qpoint(0, 0), qpoint(1, 0), qpoint(0, 1)) == 1
    assert orient(qpoint(0, 0), qpoint(1, 1), qpoint(2, 2)) == 0
    assert orient(qpoint(0, 0), qpoint(0, 1), qpoint(1, 0)) == -1


def test_orient_3d_examples():
    assert orient(qpoint(0, 0, 0), qpoint(1, 0, 0), qpoint(0, 1, 0), qpoint(0, 0, 1)) == 1
    assert orient(qpoint(0, 0, 0), qpoint(1, 0, 0), qpoint(2, 0, 0), qpoint(3, 0, 0)) == 0
    assert orient(qpoint(0, 0, 0), qpoint(1, 0, 0), qpoint(0, 1, 0), qpoint(1, 1, 0)) == 0


def test_orient_dimension_mismatch():
    with pytest.raises(ValueError):
        orient(qpoint(0, 0), qpoint(1, 0, 0), qpoint(0, 1))
    with pytest.raises(ValueError):
        orient(qpoint(0, 0), qpoint(1, 0))  # wrong arity for dimension


def test_orient_agrees_with_independent_expansion_bulk():
    rng = random.Random(12345)

    def rnd():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 9))

    for _ in range(30000):
        a, b, c = (qpoint(rnd(), rnd()) for _ in range(3))
        assert orient(a, b, c) == det2_oracle(a, b, c)
    for _ in range(20000):
        a, b, c, d = (qpoint(rnd(), rnd(), rnd()) for _ in range(4))
        assert orient(a, b, c, d) == det3_oracle(a, b, c, d)


@given(st.lists(st.integers(-8, 8), min_size=6, max_size=6))
def test_orient_antisymmetry_2d(v):
    a, b, c = qpoint(v[0], v[1]), qpoint(v[2], v[3]), qpoint(v[4], v[5])
    assert orient(a, b, c) == -orient(b, a, c) == -orient(a, c, b)


# ---------------------------------------------------------------------------
# forbidden_contact
# ---------------------------------------------------------------------------

#: Hand-checked segment pairs [a, b], [c, d] and how they meet.
SEGMENT_EXAMPLES = {
    "proper_crossing_2d": (((0, 0), (2, 2), (0, 2), (2, 0)), "crossing"),
    "shared_endpoint_2d": (((0, 0), (1, 0), (1, 0), (2, 1)), "shared_endpoint_only"),
    "disjoint_parallel_3d": (((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)), "disjoint"),
    "collinear_overlap_is_crossing": (((0, 0), (2, 0), (1, 0), (3, 0)), "crossing"),
    "collinear_touching_endpoints": (((0, 0), (1, 0), (1, 0), (2, 0)), "shared_endpoint_only"),
    "endpoint_in_interior_is_crossing": (((0, 0), (2, 0), (1, 0), (1, 5)), "crossing"),
    "interior_touch_t_shape_3d": (((0, 0, 0), (2, 0, 0), (1, 0, 0), (1, 1, 1)), "crossing"),
    "identical_is_crossing": (((0, 0), (1, 1), (0, 0), (1, 1)), "crossing"),
    # a shared endpoint, but the segments overlap with positive length
    "shared_endpoint_collinear_same_direction_overlap": (((0, 0), (2, 0), (0, 0), (1, 0)), "crossing"),
    "skew_3d_disjoint": (((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 2)), "disjoint"),
    "coplanar_3d_crossing": (((0, 0, 0), (2, 2, 2), (0, 2, 1), (2, 0, 1)), "crossing"),
}


def check_segment_example(a, b, c, d, expected):
    assert classify_oracle(a, b, c, d) == expected
    assert forbidden_contact(a, b, c, d) == (expected == "crossing")


def _segment_example_test(pts, expected):
    def test():
        check_segment_example(*(qpoint(*p) for p in pts), expected)

    return test


# one test per row, named after the row, so each example keeps its own
# test id
for _name, (_pts, _expected) in SEGMENT_EXAMPLES.items():
    globals()[f"test_segments_{_name}"] = _segment_example_test(_pts, _expected)


def test_segments_rational_near_miss_exact():
    # endpoint at (1/3, 1/3) exactly on the diagonal => crossing;
    # moving it by 1/10^12 off the line => shared nothing, disjoint.
    a, b = qpoint(0, 0), qpoint(1, 1)
    c = qpoint(Fraction(1, 3), Fraction(1, 3))
    d = qpoint(1, 0)
    check_segment_example(a, b, c, d, "crossing")
    eps = Fraction(1, 10**12)
    c2 = qpoint(Fraction(1, 3) + eps, Fraction(1, 3))
    check_segment_example(a, b, c2, d, "disjoint")


@given(st.lists(st.integers(-6, 6), min_size=8, max_size=8))
@settings(max_examples=400)
def test_segments_symmetry_2d(v):
    a, b = qpoint(v[0], v[1]), qpoint(v[2], v[3])
    c, d = qpoint(v[4], v[5]), qpoint(v[6], v[7])
    if a == b or c == d:
        return
    r = forbidden_contact(a, b, c, d)
    assert r == forbidden_contact(c, d, a, b)
    assert r == forbidden_contact(b, a, c, d)
    assert r == forbidden_contact(a, b, d, c)


@given(st.lists(st.integers(-4, 4), min_size=12, max_size=12))
@settings(max_examples=400)
def test_segments_symmetry_3d(v):
    a, b = qpoint(*v[0:3]), qpoint(*v[3:6])
    c, d = qpoint(*v[6:9]), qpoint(*v[9:12])
    if a == b or c == d:
        return
    r = forbidden_contact(a, b, c, d)
    assert r == forbidden_contact(c, d, a, b)
    assert r == forbidden_contact(b, a, d, c)


# ---------------------------------------------------------------------------
# canonical lines and planes
# ---------------------------------------------------------------------------


def test_canon_line_same_line_examples():
    assert canon_line(qpoint(0, 0), qpoint(2, 0)) == canon_line(qpoint(5, 0), qpoint(-1, 0))
    l1 = canon_line(qpoint(0, 0, 0), qpoint(1, 2, 3))
    l2 = canon_line(qpoint(2, 4, 6), qpoint(3, 6, 9))
    assert l1 == l2


def test_canon_line_collinear_triple_subpairs_equal():
    a, b, c = qpoint(0, 1), qpoint(2, 2), qpoint(4, 3)
    assert canon_line(a, b) == canon_line(b, c) == canon_line(a, c) == canon_line(c, a)


def test_canon_line_distinct_lines_differ():
    assert canon_line(qpoint(0, 0), qpoint(1, 0)) != canon_line(qpoint(0, 1), qpoint(1, 1))
    assert canon_line(qpoint(0, 0), qpoint(1, 0)) != canon_line(qpoint(0, 0), qpoint(0, 1))


def test_canon_line_direction_is_primitive_and_lex_positive():
    line = canon_line(qpoint(0, 0), qpoint(-4, -6))
    assert line.direction == (2, 3)
    line2 = canon_line(qpoint(Fraction(1, 2), 0), qpoint(0, Fraction(1, 3)))
    # direction (−1/2, 1/3) → primitive integer (3, −2) after sign fix
    assert line2.direction == (3, -2)


def test_canon_plane_examples():
    p1 = canon_plane(qpoint(0, 0, 0), qpoint(1, 0, 0), qpoint(0, 1, 0))
    p2 = canon_plane(qpoint(3, 4, 0), qpoint(7, -2, 0), qpoint(1, 1, 0))
    assert p1 == p2
    assert p1.normal == (0, 0, 1)
    assert p1.offset == 0


def test_canon_plane_permutation_invariant():
    pts = [qpoint(1, 0, 0), qpoint(0, 2, 0), qpoint(0, 0, 3)]
    base = canon_plane(*pts)
    import itertools

    for perm in itertools.permutations(pts):
        assert canon_plane(*perm) == base


def test_canon_plane_degenerate_rejected():
    with pytest.raises(ValueError):
        canon_plane(qpoint(0, 0, 0), qpoint(1, 1, 1), qpoint(2, 2, 2))


def test_canon_scaling_invariance():
    # The canonical record must not depend on which points of the object
    # define it, nor on the scale of the defining direction vector.
    rng = random.Random(7)
    for _ in range(200):
        p = qpoint(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        q = qpoint(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if p == q:
            continue
        s = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        # q2 = p + s*(q-p) lies on line(p,q) with a rescaled direction
        q2 = qpoint(*(pc + s * (qc - pc) for pc, qc in zip(p, q)))
        assert canon_line(p, q) == canon_line(p, q2) == canon_line(q2, p)


def test_line_and_plane_membership():
    line = canon_line(qpoint(0, 0), qpoint(2, 1))
    assert line_contains_point(line, qpoint(4, 2))
    assert line_contains_point(line, qpoint(Fraction(1), Fraction(1, 2)))
    assert not line_contains_point(line, qpoint(1, 1))

    plane = canon_plane(qpoint(0, 0, 0), qpoint(1, 0, 0), qpoint(0, 1, 0))
    assert plane_contains_point(plane, qpoint(5, -7, 0))
    assert not plane_contains_point(plane, qpoint(0, 0, Fraction(1, 10**9)))


def test_canonical_plane_through_segment():
    a, b = qpoint(0, 0, 0), qpoint(1, 0, 0)
    plane = canonical_plane_through_segment(a, b)
    assert plane_contains_point(plane, a)
    assert plane_contains_point(plane, b)
    # determinism
    assert plane == canonical_plane_through_segment(a, b)


# ---------------------------------------------------------------------------
# betweenness and integerization
# ---------------------------------------------------------------------------


def test_point_strictly_inside_segment():
    a, b = qpoint(0, 0), qpoint(4, 2)
    assert point_strictly_inside_segment(qpoint(2, 1), a, b)
    assert not point_strictly_inside_segment(a, a, b)
    assert not point_strictly_inside_segment(qpoint(1, 1), a, b)


def test_integerize_preserves_predicates():
    pts = [
        qpoint(Fraction(1, 3), Fraction(1, 2)),
        qpoint(Fraction(2, 3), Fraction(3, 2)),
        qpoint(Fraction(1, 6), 1),
    ]
    ints, scale = integerize(pts)
    assert scale > 0
    assert all(isinstance(x, int) for p in ints for x in p)
    assert orient(*pts) == orient(*[qpoint(*p) for p in ints])
    for p, ip in zip(pts, ints):
        assert [x * scale for x in p] == list(ip)


# ---------------------------------------------------------------------------
# the verifier's kernel and canonical records
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(-2, 2), min_size=8, max_size=8), st.sampled_from([1, 2**61 + 1]))
@settings(max_examples=300)
def test_forbidden_contact_is_crossing_2d(v, scale):
    # a coarse grid makes shared endpoints and collinear overlaps common
    a, b, c, d = (tuple(x * scale for x in v[k : k + 2]) for k in range(0, 8, 2))
    if a == b or c == d:
        return
    assert forbidden_contact(a, b, c, d) == (classify_oracle(a, b, c, d) == "crossing")


@given(st.lists(st.integers(-1, 1), min_size=12, max_size=12), st.sampled_from([1, 2**61 + 1]))
@settings(max_examples=300)
def test_forbidden_contact_is_crossing_3d(v, scale):
    a, b, c, d = (tuple(x * scale for x in v[k : k + 3]) for k in range(0, 12, 3))
    if a == b or c == d:
        return
    assert forbidden_contact(a, b, c, d) == (classify_oracle(a, b, c, d) == "crossing")


@given(st.lists(st.integers(-2, 2), min_size=8, max_size=8))
@settings(max_examples=400)
def test_segments_match_parametric_oracle_2d(v):
    a, b, c, d = (qpoint(*v[k : k + 2]) for k in range(0, 8, 2))
    if a == b or c == d:
        return
    assert forbidden_contact(a, b, c, d) == (classify_oracle(a, b, c, d) == "crossing")


@given(st.lists(st.integers(-1, 1), min_size=12, max_size=12))
@settings(max_examples=400)
def test_segments_match_parametric_oracle_3d(v):
    a, b, c, d = (qpoint(*v[k : k + 3]) for k in range(0, 12, 3))
    if a == b or c == d:
        return
    assert forbidden_contact(a, b, c, d) == (classify_oracle(a, b, c, d) == "crossing")


def test_forbidden_contact_shared_endpoint_rays():
    s, p = (0, 0), (2, 0)
    assert not forbidden_contact(s, p, s, (-1, 0))  # opposite rays: only s
    assert forbidden_contact(s, p, (1, 0), s)  # same ray: overlap
    assert not forbidden_contact(s, p, s, (0, 5))  # an angle
    s3 = (0, 0, 0)
    assert forbidden_contact((2, 2, 2), s3, s3, (1, 1, 1))
    assert not forbidden_contact(s3, (2, 2, 2), (-1, -1, -1), s3)


@given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_collinear_agrees_with_orient(v):
    a, b, c = (qpoint(*v[k : k + 3]) for k in range(0, 9, 3))
    assert collinear(a, b, c) == all(
        orient(*(tuple(p[i] for i in keep) for p in (a, b, c))) == 0
        for keep in ((0, 1), (0, 2), (1, 2))
    )


def test_is_canonical():
    line = canon_line(qpoint(1, 2, 3), qpoint(-3, 0, 7))
    plane = canon_plane(qpoint(1, 0, 0), qpoint(0, 2, 0), qpoint(0, 0, 3))
    assert is_canonical(line) and is_canonical(plane)
    assert is_canonical(canon_line(qpoint(0, 5), qpoint(0, 9)))
    assert not is_canonical(line._replace(direction=(0, 0, 0)))
    assert not is_canonical(line._replace(direction=tuple(2 * x for x in line.direction)))
    assert not is_canonical(line._replace(direction=tuple(-x for x in line.direction)))
    assert not is_canonical(line._replace(base=(Fraction(1),) + line.base[1:]))
    assert not is_canonical(line._replace(dim=2))
    assert not is_canonical(plane._replace(normal=(0, 0, 0)))
    assert not is_canonical(plane._replace(normal=tuple(-x for x in plane.normal)))
    assert not is_canonical(plane._replace(normal=tuple(3 * x for x in plane.normal)))
    assert not is_canonical(plane._replace(normal=(True, 0, 0)))
    assert not is_canonical((1, 0, 0))


# ---------------------------------------------------------------------------
# integer keys against the Fraction canonical forms
# ---------------------------------------------------------------------------


def _reference_primitive(v) -> tuple:
    scale = math.lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def reference_canon_line(p, q) -> CanonLine:
    """canon_line as computed in Fraction arithmetic, before integer keys."""
    d = _reference_primitive([Fraction(b) - Fraction(a) for a, b in zip(p, q)])
    pivot = next(i for i, x in enumerate(d) if x)
    t = Fraction(p[pivot], d[pivot])
    return CanonLine(len(p), d, tuple(Fraction(p[i]) - t * d[i] for i in range(len(p))))


def reference_canon_plane(p, q, r) -> CanonPlane:
    """canon_plane as computed in Fraction arithmetic, before integer keys."""
    u = [Fraction(b) - Fraction(a) for a, b in zip(p, q)]
    v = [Fraction(b) - Fraction(a) for a, b in zip(p, r)]
    n = _reference_primitive([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]])
    return CanonPlane(n, sum(Fraction(ni) * Fraction(pi) for ni, pi in zip(n, p)))


# A coarse grid of signed rationals with denominators up to 6: integerize
# then scales by up to 6, and axis-parallel lines and planes are common.
_coords = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3, 6]))


def _pools(dim: int):
    return st.lists(st.tuples(*[_coords] * dim), min_size=3, max_size=6, unique=True)


@given(st.sampled_from([2, 3]).flatmap(_pools))
@settings(max_examples=300, deadline=None)
def test_line_keys_match_reference(pts):
    ipts, scale = integerize(pts)
    pairs = list(itertools.combinations(range(len(pts)), 2))
    keys = {(i, j): line_key(ipts[i], ipts[j]) for i, j in pairs}
    recs = {(i, j): reference_canon_line(pts[i], pts[j]) for i, j in pairs}
    for a in pairs:
        assert line_from_key(keys[a], scale) == recs[a] == canon_line(*(pts[i] for i in a))
        assert scaled_key(recs[a], scale) == keys[a]
        for b in pairs:
            assert (keys[a] == keys[b]) == (recs[a] == recs[b])
        for p, ip in zip(pts, ipts):
            assert key_contains(keys[a], ip) == line_contains_point(recs[a], p)


@given(_pools(3))
@settings(max_examples=300, deadline=None)
def test_plane_keys_match_reference(pts):
    ipts, scale = integerize(pts)
    triples = [t for t in itertools.combinations(range(len(pts)), 3) if not collinear(*(pts[i] for i in t))]
    for t in itertools.combinations(range(len(pts)), 3):
        assert (plane_key(*(ipts[i] for i in t)) is None) == (t not in triples)
    keys = {t: plane_key(*(ipts[i] for i in t)) for t in triples}
    recs = {t: reference_canon_plane(*(pts[i] for i in t)) for t in triples}
    for a in triples:
        assert plane_from_key(keys[a], scale) == recs[a] == canon_plane(*(pts[i] for i in a))
        assert scaled_key(recs[a], scale) == keys[a]
        for b in triples:
            assert (keys[a] == keys[b]) == (recs[a] == recs[b])
        for p, ip in zip(pts, ipts):
            assert key_contains(keys[a], ip) == plane_contains_point(recs[a], p)


def test_line_keys_on_every_pivot_axis():
    # vertical lines in 2D and lines parallel to each axis in 3D take the
    # later pivots of line_from_key
    half = Fraction(1, 2)
    cases = [
        ((half, -1), (half, 3)),
        ((2, half), (-1, half)),
        ((half, -3, 1), (half, 4, 1)),
        ((half, 1, Fraction(-1, 3)), (half, 1, 5)),
        ((-1, half, 2), (3, half, 2)),
        ((0, half, 2), (0, 1, Fraction(7, 3))),
    ]
    for p, q in cases:
        p, q = qpoint(*p), qpoint(*q)
        (ip, iq), scale = integerize((p, q))
        assert line_from_key(line_key(ip, iq), scale) == reference_canon_line(p, q) == canon_line(p, q)


def test_scaled_key_off_the_integer_points():
    line = canon_line(qpoint(0, Fraction(1, 2)), qpoint(1, Fraction(1, 2)))
    plane = canon_plane(qpoint(0, 0, Fraction(1, 3)), qpoint(1, 0, Fraction(1, 3)), qpoint(0, 1, Fraction(1, 3)))
    assert scaled_key(line, 2) == ((1, 0), -1)
    assert scaled_key(plane, 3) == ((0, 0, 1), 1)
    # a scaled base or offset that is not an integer holds no integer point
    assert scaled_key(line, 1) is None
    assert scaled_key(plane, 2) is None
    line3 = canon_line(qpoint(0, 0, Fraction(1, 5)), qpoint(1, 1, Fraction(1, 5)))
    assert scaled_key(line3, 5) is not None and scaled_key(line3, 3) is None
