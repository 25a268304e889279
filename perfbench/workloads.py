"""The three job lists: ``certify``, ``bounds`` and ``draw``.

Each builder turns a seed into a fixed list of :class:`Job` objects.  A
job's ``call`` is the timed part: the program calls a user's command
makes once its input is in memory.  Its ``check`` compares the output
with an answer from :mod:`oracles` or one fixed when the input was made,
never with a second answer from the code under test.  ``pin`` is the
job's input as text; run.py hashes the pins to show that two runs fed
the program identical inputs.

Seeds only choose the random graphs, the layout seeds and which copies
get tampered; the sizes are fixed, so every seed asks for about the same
amount of work.  README.md gives the reasons behind each list.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles
from oracles import KN_PLANE_COVER, ceil_div

from affinecover import bounds, certio, cli, constructions, drawing, graphs, planar

PARAMETERS = ("pi12", "pi13", "pibar13", "pi23", "rho12", "rho13", "rho23")


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    pin: str
    #: Expected to fail until a documented defect is fixed; counted in
    #: ``failed`` but not in the run's ``correct`` flag.
    known_defect: bool = False


# ---------------------------------------------------------------------------
# certify: parse_certificate + verify_certificate on certificate bytes
# ---------------------------------------------------------------------------

#: (p, q) shapes of the small K_{p,q} certificates.
_SMALL_KPQ = ((1, 3), (2, 3), (2, 5), (3, 4), (3, 6), (4, 5), (4, 7), (5, 6))
#: (n, p) cells of the small random pi13 / pi23 certificates.
_SMALL_GNP = tuple((n, p) for n in (6, 8, 10, 12) for p in (0.25, 0.4, 0.55))

_REJECTED = ("WitnessViolation", "ValueError")


def _emit(res, name: str) -> bytes:
    return certio.emit_certificate(certio.certificate_from_result(res, name))


def verdict(data: bytes) -> str:
    """What ``affinecover verify`` concludes about certificate bytes."""
    try:
        certio.verify_certificate(certio.parse_certificate(data))
    except drawing.DrawingViolation:
        return "DrawingViolation"
    except drawing.WitnessViolation:
        return "WitnessViolation"
    except ValueError:
        return "ValueError"
    return "accepted"


def _spiral(h: int):
    tree = graphs.complete_binary_tree(h)
    return constructions.spiral_two_lines(tree, planar.tree_tracks(tree, 0))


#: Fixed layouts: seven large ones, then twelve medium ones that each
#: take 20-30 ms to verify.  The slowest 10% of jobs are then all fixed
#: inputs, and job_p90_ms falls inside one band of similar jobs.
_LAYOUTS = (
    ("binary_tree_grid", constructions.binary_tree_grid, (7,)),
    ("spiral_two_lines(complete_binary_tree)", _spiral, (7,)),
    ("nested_squares_two_lines", constructions.nested_squares_two_lines, (64,)),
    ("prism_stack_3d", constructions.prism_stack_3d, (64,)),
    ("kpq_plane_book", constructions.kpq_plane_book, (16, 16)),
    ("parallel_kpq_lines", constructions.parallel_kpq_lines, (12, 24)),
    ("pach_multipartite", constructions.pach_multipartite, (5, 30)),
    ("spiral_two_lines(complete_binary_tree)", _spiral, (5,)),
    ("nested_squares_two_lines", constructions.nested_squares_two_lines, (18,)),
    *(("prism_stack_3d", constructions.prism_stack_3d, (k,)) for k in range(10, 15)),
    *(("kpq_plane_book", constructions.kpq_plane_book, pq) for pq in ((8, 8), (8, 9), (7, 10), (9, 9))),
    ("pach_multipartite", constructions.pach_multipartite, (5, 15)),
)


def _layout_certificates() -> list:
    out = []
    for name, make, args in _LAYOUTS:
        label = f"{name}({','.join(map(str, args))})"
        out.append((label, _emit(make(*args), label)))
    return out


def _small_certificates(rng: random.Random) -> list:
    out = []
    for n in range(4, 9):
        out.append((f"kn_small_plane_cover({n})", _emit(constructions.kn_small_plane_cover(n), "kn")))
    for n, p in _SMALL_GNP:
        for _ in range(3):
            g = graphs.Graph(n, oracles.gnm_edges(rng, n, p))
            out.append((f"pi13_drawing(G({n},{p}))", _emit(constructions.pi13_drawing(g), "pi13")))
            s = rng.randrange(1000)
            out.append(
                (f"pi23_drawing(G({n},{p}),{s})", _emit(constructions.pi23_drawing(g, seed=s), "pi23"))
            )
    for q in range(2, 10):
        out.append((f"k2q_optimal({q})", _emit(constructions.k2q_optimal(q), "k2q")))
    for p, q in _SMALL_KPQ:
        out.append((f"kpq_plane_book({p},{q})", _emit(constructions.kpq_plane_book(p, q), "book")))
        out.append(
            (f"parallel_kpq_lines({p},{q})", _emit(constructions.parallel_kpq_lines(p, q), "par"))
        )
    return out


def _tamper_move(rng: random.Random, payload: dict) -> dict | None:
    """Put a vertex at the midpoint of an edge it is not on: a crossing."""
    _, edges = oracles.graph6_decode(payload["graph"])
    n = len(payload["drawing"])
    choices = [(v, e) for e in edges for v in range(n) if v not in e]
    if not choices:
        return None
    v, (a, b) = rng.choice(choices)
    pts = oracles.payload_points(payload)
    mid = tuple((x + y) / 2 for x, y in zip(pts[a], pts[b]))
    if mid in pts:
        return None
    payload["drawing"][v] = [[c.numerator, c.denominator] for c in mid]
    return payload


def _tamper_reassign(rng: random.Random, payload: dict) -> dict | None:
    """Assign one item to a witness object that misses it."""
    w = payload["witness"]
    pts = oracles.payload_points(payload)
    choices = [
        (key, j)
        for key, idx in sorted(w["assignment"].items())
        for j, obj in enumerate(w["objects"])
        if j != idx and not all(oracles.contains(obj, p) for p in oracles.item_points(key, pts))
    ]
    if not choices:
        return None
    key, j = rng.choice(choices)
    w["assignment"][key] = j
    return payload


def _tamper_bytes(rng: random.Random, payload: dict, how: str) -> dict:
    """Break the exact, canonical number encoding of one coordinate."""
    row = rng.choice(payload["drawing"])
    k = rng.randrange(len(row))
    num, den = row[k]
    row[k] = {
        "float": [float(num), den],
        "unreduced": [2 * num, 2 * den],
        "string": [str(num), den],
    }[how]
    return payload


def _forged_witnesses() -> list:
    """The zero-direction line and zero-normal plane forgeries on pi13(K6)."""
    k6 = graphs.complete_graph(6)
    payload = json.loads(_emit(constructions.pi13_drawing(k6), "pi13_drawing"))
    line = dict(payload, witness={
        "assignment": {str(v): 0 for v in range(6)},
        "exact": True,
        "kind": "lines_for_vertices",
        "objects": [{"base": [[0, 1]] * 3, "dim": 3, "direction": [0, 0, 0], "type": "line"}],
    })
    plane = dict(payload, witness={
        "assignment": {f"{u},{v}": 0 for u, v in oracles.complete_edges(6)},
        "exact": True,
        "kind": "planes_for_edges",
        "objects": [{"normal": [0, 0, 0], "offset": [0, 1], "type": "plane"}],
    })
    return [
        ("forged zero-direction line", oracles.canonical_bytes(line)),
        ("forged zero-normal plane", oracles.canonical_bytes(plane)),
    ]


def _certify_job(name: str, data: bytes, expected: tuple, known_defect: bool = False) -> Job:
    return Job(
        name=name,
        call=lambda: verdict(data),
        check=lambda out: out in expected,
        pin=f"{name}|{'/'.join(expected)}|{data.decode('ascii')}",
        known_defect=known_defect,
    )


def certify_jobs(seed: int) -> list:
    rng = random.Random(f"certify:{seed}")
    small = _small_certificates(rng)
    jobs = [_certify_job(name, data, ("accepted",)) for name, data in small]
    jobs += [_certify_job(name, data, ("accepted",)) for name, data in _layout_certificates()]
    tampers = [("move", "DrawingViolation"), ("reassign", "WitnessViolation")]
    tampers += [(how, "ValueError") for how in ("float", "unreduced", "string")]
    per_kind = {"move": 10, "reassign": 10, "float": 4, "unreduced": 4, "string": 4}
    for how, expected in tampers:
        made = 0
        while made < per_kind[how]:
            name, data = rng.choice(small)
            payload = json.loads(data)
            if how == "move":
                payload = _tamper_move(rng, payload)
            elif how == "reassign":
                payload = _tamper_reassign(rng, payload)
            else:
                payload = _tamper_bytes(rng, payload, how)
            if payload is None:
                continue
            jobs.append(_certify_job(f"{how}: {name}", oracles.canonical_bytes(payload), (expected,)))
            made += 1
    jobs += [_certify_job(name, data, _REJECTED, known_defect=True) for name, data in _forged_witnesses()]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# bounds: bound_report the way `affinecover bounds` calls it
# ---------------------------------------------------------------------------

#: Random-graph cells (n, p, graphs per cell).  Up to n = 16 every exact
#: solver stays inside DEFAULT_BUDGETS; above that the solvers fall back
#: one by one.  At one n, solver time varies least between graphs at
#: p = 0.5 and most at low density, so sparse cells stop at n = 14 and
#: n = 17..20 gets one dense graph each.  The many n = 15..16 graphs put
#: job_p90_ms inside one cloud of similar jobs, the same for every seed.
#: n = 21..22 is left out: there the exact chromatic search (budget 24)
#: still runs and took 2 s on one G(22, 0.5) sample, 60x its median.
_BOUNDS_GNP = (
    tuple((n, p, 6) for n in range(12, 15) for p in (0.2, 0.3, 0.4, 0.5))
    + tuple((n, p, 9) for n in (15, 16) for p in (0.4, 0.5))
    + tuple((n, 0.5, 1) for n in range(17, 21))
)

_BOUNDS_FAMILIES = (
    [("complete", (n,)) for n in range(5, 11)]
    + [("complete_bipartite", pq) for pq in ((2, 5), (2, 8), (3, 3), (3, 6), (4, 4), (4, 5), (5, 7))]
    + [("nested_triangles", (k,)) for k in range(3, 7)]
    + [("nested_squares", (k,)) for k in range(3, 7)]
    + [("c4_prism_stack", (k,)) for k in range(2, 6)]
    + [("balanced_multipartite", (4, 16))]
    + [("complete_binary_tree", (h,)) for h in range(2, 7)]
)


def check_bounds(report, n: int, m: int, kind: str | None, params: tuple) -> bool:
    """Intervals are ordered, and hand-written values lie inside them."""
    iv = {name: (report[name].lower, report[name].upper) for name in PARAMETERS}
    if any(lo > hi for lo, hi in iv.values()):
        return False
    # Each edge alone on its own line, and vertices paired on lines in general position.
    if iv["rho13"][0] > m or iv["pi13"][0] > ceil_div(n, 2):
        return False
    known = []
    if kind == "complete":
        (k,) = params
        known.append(("rho13", k * (k - 1) // 2))
        if k in KN_PLANE_COVER:
            known.append(("rho23", KN_PLANE_COVER[k]))
    if kind == "complete_bipartite":
        p, q = params
        known.append(("rho23", ceil_div(p, 2)))
        if q >= 3:
            known.append(("pibar13", p + 1))
    return all(iv[name][0] <= value <= iv[name][1] for name, value in known)


def _bounds_family_job(kind: str, params: tuple) -> Job:
    spec = graphs.FamilySpec(kind, params)
    g = graphs.build_family(spec)
    label = f"{kind}:{','.join(map(str, params))}"
    return Job(
        name=label,
        call=lambda: bounds.bound_report(graphs.build_family(spec), family=kind),
        check=lambda r: check_bounds(r, g.n, g.m, kind, params),
        pin=label,
    )


def _bounds_graph6_job(name: str, n: int, edges: list) -> Job:
    text = oracles.graph6_encode(n, edges).encode("ascii")
    return Job(
        name=name,
        call=lambda: bounds.bound_report(graphs.parse_graph(text, "graph6")),
        check=lambda r: check_bounds(r, n, len(edges), None, ()),
        pin=f"graph6:{text.decode('ascii')}",
    )


def relabel(rng: random.Random, n: int, edges: list) -> list:
    """The same graph under a random permutation of its vertices."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def bounds_jobs(seed: int) -> list:
    rng = random.Random(f"bounds:{seed}")
    # The graphs are the same for every seed and the seed relabels them:
    # with fresh graphs per seed, job_p50_ms moved by 11% between seeds,
    # as a different handful of graphs landed next to the median.
    pool = random.Random("bounds:graphs")
    jobs = []
    for n, p, reps in _BOUNDS_GNP:
        for r in range(reps):
            edges = relabel(rng, n, oracles.gnm_edges(pool, n, p))
            jobs.append(_bounds_graph6_job(f"G({n},{p})#{r}", n, edges))
    families = list(_BOUNDS_FAMILIES)
    for spine in range(4, 8):
        families.append(("caterpillar", (spine, *(rng.randrange(4) for _ in range(spine)))))
    jobs += [_bounds_family_job(kind, params) for kind, params in families]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# draw: `affinecover draw` dispatch and emit, plus drawing measurements
# ---------------------------------------------------------------------------


def run_cli(argv: list) -> tuple:
    """``affinecover <argv>`` in-process: (exit status, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue().encode("ascii")


@dataclass
class DrawCheck:
    """Checks one emitted certificate; identical bytes are checked once."""

    edges: list | None = None  # exact edge set when the input graph is known
    nm: tuple | None = None  # (n, m) otherwise
    count: int | None = None  # hand-written witness size, where one is known
    passed: set = field(default_factory=set)

    def __call__(self, out) -> bool:
        status, data = out
        if status != 0:
            return False
        if data in self.passed:
            return True
        ok = self._full(data)
        if ok:
            self.passed.add(data)
        return ok

    def _full(self, data: bytes) -> bool:
        payload = json.loads(data)
        n, edges = oracles.graph6_decode(payload["graph"])
        if self.edges is not None and edges != sorted(self.edges):
            return False
        if self.nm is not None and (n, len(edges)) != self.nm:
            return False
        count = len(payload["witness"]["objects"])
        if count > payload["meta"]["claimed_bound"]:
            return False
        if self.count is not None and count != self.count:
            return False
        if not oracles.witness_holds(payload):
            return False
        cert = certio.parse_certificate(data)
        if certio.emit_certificate(cert) != data:
            return False
        certio.verify_certificate(cert)
        return True


def _draw_job(target: str, graph_args: list, check: DrawCheck, seed: int | None = None) -> Job:
    argv = ["draw", "--target", target, *graph_args]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Job(name=" ".join(argv[1:]), call=lambda: run_cli(argv), check=check, pin=" ".join(argv))


def _object_dict(obj) -> dict:
    if hasattr(obj, "direction"):
        return {
            "type": "line",
            "direction": list(obj.direction),
            "base": [[c.numerator, c.denominator] for c in obj.base],
        }
    return {"type": "plane", "normal": list(obj.normal), "offset": [obj.offset.numerator, obj.offset.denominator]}


def _cover_holds(d, count: int, witness, items: list) -> bool:
    objects = [_object_dict(o) for o in witness.objects]
    if count != len(objects) or any(oracles.degenerate(o) for o in objects):
        return False
    if set(witness.assignment) != set(items):
        return False
    for item, idx in witness.assignment.items():
        ends = item if isinstance(item, tuple) else (item,)
        if not all(oracles.contains(objects[idx], d.points[v]) for v in ends):
            return False
    return True


def _measure_job(name: str, fn_name: str, d, check: Callable) -> Job:
    pin = f"{name}|{sorted(d.graph.edges)}|{[tuple(map(str, p)) for p in d.points]}"
    return Job(
        name=name,
        call=lambda: getattr(drawing, fn_name)(d),
        check=check,
        pin=pin,
    )


def _cover_job(name: str, fn_name: str, d, lo: int, hi: int) -> Job:
    items = sorted(d.graph.edges) if fn_name == "min_edge_plane_cover" else list(range(d.graph.n))

    def check(out) -> bool:
        count, witness = out
        return lo <= count <= hi and _cover_holds(d, count, witness, items)

    return _measure_job(name, fn_name, d, check)


def _line_jobs(name: str, d) -> list:
    lines, segments, slopes = oracles.lines_segments_slopes(d.points, d.graph.edges)
    return [
        _measure_job(f"edge_line_count {name}", "edge_line_count", d, lambda out: out[0] == lines),
        _measure_job(
            f"segment_slope_count {name}", "segment_slope_count", d,
            lambda out: tuple(out) == (segments, slopes),
        ),
    ]


def draw_jobs(seed: int) -> list:
    rng = random.Random(f"draw:{seed}")
    jobs = []
    cells = [(n, p) for n in (8, 10, 12, 14) for p in (0.2, 0.35, 0.5)]
    randoms = []
    for n, p in cells:
        for _ in range(2):
            edges = oracles.gnm_edges(rng, n, p)
            randoms.append((n, edges))
            text = oracles.graph6_encode(n, edges)
            jobs.append(_draw_job("pi13", ["--graph6", text], DrawCheck(edges=edges)))
            jobs.append(_draw_job("pi23", ["--graph6", text], DrawCheck(edges=edges), rng.randrange(1000)))
    for n in range(5, 13):
        # K_5 is not planar, so each plane holds at most four vertices of K_n.
        check = DrawCheck(edges=oracles.complete_edges(n), count=ceil_div(n, 4))
        jobs.append(_draw_job("pi23", ["--family", f"complete:{n}"], check, rng.randrange(1000)))
    for n in range(4, 9):
        check = DrawCheck(edges=oracles.complete_edges(n), count=KN_PLANE_COVER[n])
        jobs.append(_draw_job("rho23_kn", ["--family", f"complete:{n}"], check))
    for p, q in ((2, 5), (3, 4), (3, 6), (4, 6), (5, 8), (6, 10)):
        edges = oracles.complete_bipartite_edges(p, q)
        family = ["--family", f"complete_bipartite:{p},{q}"]
        jobs.append(_draw_job("rho23_kpq", family, DrawCheck(edges=edges, count=ceil_div(p, 2))))
        jobs.append(_draw_job("parallel_kpq", family, DrawCheck(edges=edges, count=p + 1)))
    for q in range(3, 13):
        edges = oracles.complete_bipartite_edges(2, q)
        jobs.append(_draw_job("k2q", ["--family", f"complete_bipartite:2,{q}"], DrawCheck(edges=edges)))
    for k in (8, 16, 32):
        check = DrawCheck(nm=(4 * k, 4 * k + 2 * (k - 1)), count=2)
        jobs.append(_draw_job("nested_squares", ["--family", f"nested_squares:{k}"], check))
    for k in (32, 64):
        check = DrawCheck(nm=(4 * k, 4 * k + 4 * (k - 1)))
        jobs.append(_draw_job("prism3d", ["--family", f"c4_prism_stack:{k}"], check))
    tree_nm = (2**9 - 1, 2**9 - 2)
    for target in ("binary_tree", "two_lines"):
        jobs.append(_draw_job(target, ["--family", "complete_binary_tree:8"], DrawCheck(nm=tree_nm)))

    # Measurements on drawings built here, outside the timed calls.
    for n in range(4, 9):
        d = constructions.kn_small_plane_cover(n).drawing
        k = KN_PLANE_COVER[n]
        jobs.append(_cover_job(f"min_edge_plane_cover K{n}", "min_edge_plane_cover", d, k, k))
    for p, q in ((2, 5), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6), (3, 10), (5, 8)):
        d = constructions.kpq_plane_book(p, q).drawing
        k = ceil_div(p, 2)
        jobs.append(_cover_job(f"min_edge_plane_cover book K{p},{q}", "min_edge_plane_cover", d, k, k))
    for n in range(4, 15):
        # No three points of the moment curve are collinear.
        d = constructions.moment_curve_kn(n).drawing
        k = ceil_div(n, 2)
        jobs.append(_cover_job(f"min_vertex_line_cover moment K{n}", "min_vertex_line_cover", d, k, k))
    for i, (n, edges) in enumerate(randoms):
        res = constructions.pi13_drawing(graphs.Graph(n, edges))
        jobs.append(
            _cover_job(f"min_vertex_line_cover pi13 #{i}", "min_vertex_line_cover", res.drawing, 1, res.witness.count)
        )
    flat = [(f"k2q({q})", constructions.k2q_optimal(q)) for q in range(3, 11)]
    flat += [(f"nested_squares({k})", constructions.nested_squares_two_lines(k)) for k in (8, 16)]
    flat += [(f"binary_tree_grid({h})", constructions.binary_tree_grid(h)) for h in (4, 5, 6)]
    for name, res in flat:
        jobs.extend(_line_jobs(name, res.drawing))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"certify": certify_jobs, "bounds": bounds_jobs, "draw": draw_jobs}
