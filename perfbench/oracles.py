"""Answers the benchmark checks outputs against, computed without the program.

Nothing here imports ``affinecover``: graph6 is encoded and decoded by
hand, certificate JSON is read with the standard ``json`` module, and
every incidence test uses ``fractions.Fraction`` arithmetic written out
below.  The closed forms are the published values quoted in the
package documentation, typed in by hand.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

#: Plane covers of the shipped K4..K8 layouts, and rho23(K_n) upper ends.
KN_PLANE_COVER = {4: 1, 5: 3, 6: 4, 7: 6, 8: 7}


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def gnm_edges(rng, n: int, p: float) -> list:
    """Exactly round(p * n(n-1)/2) edges chosen uniformly, sorted.

    A fixed edge count keeps the work of every seed alike: verifier and
    solver costs grow with m, which G(n, p) would leave to chance.
    """
    pairs = complete_edges(n)
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def complete_edges(n: int) -> list:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def complete_bipartite_edges(p: int, q: int) -> list:
    return [(i, p + j) for i in range(p) for j in range(q)]


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def graph6_encode(n: int, edges) -> str:
    """graph6 text of a simple graph on 0..n-1 (n < 258048)."""
    if n < 63:
        head = [n + 63]
    else:
        head = [126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)]
    es = {(min(e), max(e)) for e in edges}
    bits = [1 if (i, j) in es else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return bytes(head + body).decode("ascii")


def graph6_decode(text: str) -> tuple:
    """(n, sorted edge list) of a graph6 string."""
    data = text.encode("ascii")
    if data[0] == 126:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    bits = [(c - 63) >> (5 - k) & 1 for c in body for k in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs):
        raise ValueError("graph6 body too short")
    return n, sorted(pair for pair, bit in zip(pairs, bits) if bit)


# ---------------------------------------------------------------------------
# certificate payloads
# ---------------------------------------------------------------------------


def canonical_bytes(payload: dict) -> bytes:
    """The certificate byte layout: sorted keys, tight separators, newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _frac(pair) -> Fraction:
    # int() also reads the decimal strings used for large integers.
    return Fraction(int(pair[0]), int(pair[1]))


def payload_points(payload: dict) -> list:
    return [tuple(_frac(c) for c in row) for row in payload["drawing"]]


def _on_line(obj: dict, p: tuple) -> bool:
    direction = [int(c) for c in obj["direction"]]
    rel = [a - _frac(b) for a, b in zip(p, obj["base"])]
    if len(p) == 2:
        return rel[0] * direction[1] - rel[1] * direction[0] == 0
    cross = (
        rel[1] * direction[2] - rel[2] * direction[1],
        rel[2] * direction[0] - rel[0] * direction[2],
        rel[0] * direction[1] - rel[1] * direction[0],
    )
    return all(c == 0 for c in cross)


def _on_plane(obj: dict, p: tuple) -> bool:
    normal = [int(c) for c in obj["normal"]]
    return sum(a * x for a, x in zip(normal, p)) == _frac(obj["offset"])


def contains(obj: dict, p: tuple) -> bool:
    """Exact incidence of point ``p`` with a certificate witness object."""
    return _on_line(obj, p) if obj["type"] == "line" else _on_plane(obj, p)


def degenerate(obj: dict) -> bool:
    """A zero direction or zero normal describes no line or plane."""
    key = "direction" if obj["type"] == "line" else "normal"
    return all(int(c) == 0 for c in obj[key])


def item_points(key: str, points: list) -> list:
    """The points an assignment key stands for: one vertex or both edge ends."""
    return [points[int(v)] for v in key.split(",")]


def witness_holds(payload: dict) -> bool:
    """Every object is a real line or plane and holds the items assigned to it."""
    w = payload["witness"]
    objects = w["objects"]
    if any(degenerate(o) for o in objects):
        return False
    points = payload_points(payload)
    for key, idx in w["assignment"].items():
        if not all(contains(objects[idx], p) for p in item_points(key, points)):
            return False
    n, edges = graph6_decode(payload["graph"])
    items = (
        {f"{u},{v}" for u, v in edges}
        if w["kind"].endswith("for_edges")
        else {str(v) for v in range(n)}
    )
    return set(w["assignment"]) == items


# ---------------------------------------------------------------------------
# 2D drawing measurements
# ---------------------------------------------------------------------------


def _line_key(p: tuple, q: tuple) -> tuple:
    """Normalised (a, b, c) with a x + b y = c through p and q."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    scale = math.lcm(dx.denominator, dy.denominator)
    a, b = int(dy * scale), int(-dx * scale)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return a, b, a * p[0] + b * p[1]


def lines_segments_slopes(points: list, edges) -> tuple:
    """(supporting lines, maximal collinear edge paths, slopes) of a 2D drawing."""
    by_line: dict = {}
    for u, v in edges:
        by_line.setdefault(_line_key(points[u], points[v]), []).append((u, v))
    segments = 0
    for line_edges in by_line.values():
        parent = {}

        def root(x):
            while parent.setdefault(x, x) != x:
                x = parent[x]
            return x

        for u, v in line_edges:
            parent[root(u)] = root(v)
        segments += len({root(u) for u, _ in line_edges})
    slopes = {(a, b) for a, b, _ in by_line}
    return len(by_line), segments, len(slopes)
