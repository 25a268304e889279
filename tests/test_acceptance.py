"""End-to-end acceptance suite: ten numbered checks over the whole stack.

Each test prints one ``criterion NN: PASS/FAIL`` line (visible with
``pytest -s``) and asserts the same condition, so the -v test report
doubles as the scoreboard.  Shared heavy work — drawing corpora, bound
reports, exact solver runs — happens once in the module fixture.
"""
import math
import random
import statistics
import time

import pytest

from affinecover.bounds import _rule_degree_density, _rule_essential, bound_report
from affinecover.constructions import (
    binary_tree_grid,
    k2q_optimal,
    kn_small_plane_cover,
    kpq_plane_book,
    moment_curve_kn,
    nested_squares_two_lines,
    parallel_kpq_lines,
    pi13_drawing,
    pi23_drawing,
    prism_stack_3d,
    spiral_two_lines,
    tree_grid_size,
)
from affinecover.drawing import (
    edge_line_count,
    kn_structural_checks,
    min_edge_plane_cover,
    segment_slope_count,
)
from affinecover.graphs import (
    FamilySpec,
    Graph,
    build_family,
    complete_graph,
    cycle_graph,
    nested_triangles,
    triangulated_square_wheel,
)
from affinecover.planar import tree_tracks
from affinecover.solvers import clique_cover_exact, lva_exact

SEED = 20260819

# witness kind + drawing dimension -> the cover parameter it upper-bounds
PARAM_OF = {
    ("lines_for_vertices", 2): "pi12",
    ("lines_for_vertices", 3): "pi13",
    ("parallel_lines", 3): "pibar13",
    ("planes_for_vertices", 3): "pi23",
    ("lines_for_edges", 2): "rho12",
    ("lines_for_edges", 3): "rho13",
    ("planes_for_edges", 3): "rho23",
}


def _finish(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_connected(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = Graph(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
        )
        if len(g.components()) == 1:
            return g


def _random_tree(rng: random.Random, n: int) -> Graph:
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def _corpus12() -> list:
    """Named graphs with at most 12 vertices drawn from every family."""
    rows = []
    for n in range(4, 13):
        rows.append((f"complete:{n}", complete_graph(n)))
    for p, q in ((2, 3), (3, 3), (3, 5), (4, 4), (2, 10), (5, 6), (6, 6), (1, 11), (3, 9)):
        rows.append(
            (f"complete_bipartite:{p},{q}", build_family(FamilySpec("complete_bipartite", (p, q))))
        )
    for kind, params in (
        ("cycle", (5,)),
        ("cycle", (8,)),
        ("cycle", (12,)),
        ("path", (5,)),
        ("path", (12,)),
        ("nested_triangles", (2,)),
        ("nested_triangles", (3,)),
        ("nested_triangles", (4,)),
        ("nested_squares", (2,)),
        ("nested_squares", (3,)),
        ("c4_prism_stack", (2,)),
        ("c4_prism_stack", (3,)),
        ("complete_binary_tree", (2,)),
        ("caterpillar", (4, 1, 2, 0, 3)),
        ("balanced_multipartite", (3, 9)),
        ("balanced_multipartite", (4, 12)),
        ("balanced_multipartite", (3, 12)),
        ("balanced_multipartite", (2, 12)),
        ("balanced_multipartite", (2, 6)),
    ):
        rows.append((f"{kind}:{params}", build_family(FamilySpec(kind, params))))
    rows.append(("triangulated_square_wheel", triangulated_square_wheel()))
    assert all(g.n <= 12 for _, g in rows)
    return rows


@pytest.fixture(scope="module")
def suite():
    """Build every drawing corpus once; criteria assert over the results."""
    rng = random.Random(SEED)
    pairs = []  # (label, graph, parameter, verified witness size)
    audits = []  # (label, graph, edge line count) of the 3D drawings

    def record(label, res):
        param = PARAM_OF[(res.witness.kind, res.drawing.dim)]
        pairs.append((label, res.drawing.graph, param, res.witness.count))
        if res.drawing.dim == 3:
            audits.append((label, res.drawing.graph, edge_line_count(res.drawing)[0]))

    data = {"pairs": pairs, "audits": audits}

    t0 = time.time()
    kn = {}
    for n in (4, 5, 6, 7, 8):
        res = kn_small_plane_cover(n)
        count, _ = min_edge_plane_cover(res.drawing)
        kn[n] = (res, count)
        record(f"K{n} plane cover", res)
    data["kn"] = kn
    data["kn_seconds"] = time.time() - t0

    randoms = [
        _random_connected(rng, rng.randrange(4, 15), rng.choice((0.25, 0.35, 0.5)))
        for _ in range(50)
    ]
    specials = [cycle_graph(5), complete_graph(6), triangulated_square_wheel()]
    pi13_rows = []
    for i, g in enumerate(randoms + specials):
        value = lva_exact(g).value
        res = pi13_drawing(g)
        pi13_rows.append((g, value, res))
        record(f"pi13 #{i}", res)
    data["pi13"] = pi13_rows

    pi23_rows = []
    for label, g in _corpus12():
        res = pi23_drawing(g, seed=0)
        pi23_rows.append((label, g, res))
        record(f"pi23 {label}", res)
    data["pi23"] = pi23_rows

    books, rails, k2q_rows, moments = [], [], [], []
    for p in range(1, 9):
        for q in range(p, 9):
            res = kpq_plane_book(p, q)
            books.append((p, q, res))
            record(f"book {p},{q}", res)
            if q >= 3:
                res = parallel_kpq_lines(p, q)
                rails.append((p, q, res))
                record(f"rails {p},{q}", res)
    for q in range(1, 21):
        res = k2q_optimal(q)
        k2q_rows.append((q, res))
        record(f"k2q {q}", res)
    for n in range(2, 13):
        res = moment_curve_kn(n)
        moments.append((n, res))
        record(f"moment K{n}", res)
    data["books"], data["rails"] = books, rails
    data["k2q"], data["moments"] = k2q_rows, moments

    t0 = time.time()
    prisms = []
    for k in (8, 27, 64):
        res = prism_stack_3d(k)
        prisms.append((k, res))
        record(f"prism {k}", res)
    data["prisms"] = prisms
    data["prism_seconds"] = time.time() - t0

    trees = []
    for h in range(2, 11):
        res = binary_tree_grid(h)
        trees.append((h, res))
        record(f"tree h={h}", res)
    data["trees"] = trees

    spirals = []
    for i in range(150):
        g = _random_tree(rng, rng.randrange(2, 21))
        res = spiral_two_lines(g, tree_tracks(g, 0))
        spirals.append((g, res))
        record(f"spiral #{i}", res)
    data["spirals"] = spirals

    squares = []
    for k in range(1, 13):
        res = nested_squares_two_lines(k)
        squares.append((k, res))
        record(f"squares {k}", res)
    data["squares"] = squares

    extra = []
    for i in range(160):
        g = _random_connected(rng, rng.randrange(4, 11), 0.4)
        res = pi13_drawing(g)
        extra.append((g, res))
        record(f"pi13 extra #{i}", res)
    data["extra_pi13"] = extra

    return data


def test_criterion_01_complete_graph_plane_covers(suite):
    wants = {4: 1, 5: 3, 6: 4, 7: 6, 8: 7}
    ok = suite["kn_seconds"] < 60.0
    for n, want in wants.items():
        res, measured = suite["kn"][n]
        ok = ok and res.drawing.verified and measured == want
        ok = ok and res.witness.count == want
        ok = ok and kn_structural_checks(res.drawing, res.witness).ok
    counts = ",".join(str(suite["kn"][n][1]) for n in sorted(wants))
    _finish(
        1,
        ok,
        f"K4..K8 plane covers measure {counts} (want 1,3,4,6,7) "
        f"in {suite['kn_seconds']:.1f}s",
    )


def test_criterion_02_complete_graph_clique_covers():
    runs = []
    ok = True
    t0 = time.time()
    r = clique_cover_exact(5, 4)
    runs.append(("c(5,4)", r.value, time.time() - t0))
    ok = ok and r.value == 3 and r.exact

    t0 = time.time()
    r = clique_cover_exact(6, 4)
    runs.append(("c(6,4)", r.value, time.time() - t0))
    ok = ok and r.value == 3 and r.exact

    t0 = time.time()
    r = clique_cover_exact(7, 3)
    runs.append(("c(7,3)", r.value, time.time() - t0))
    ok = ok and r.value == 7 and r.exact

    t0 = time.time()
    r = clique_cover_exact(9, 4)
    runs.append(("c(9,4)", r.value, time.time() - t0))
    ok = ok and r.value == 8 and r.exact

    ok = ok and all(dt < 120.0 for _, _, dt in runs)
    detail = ", ".join(f"{name}{val} [{dt:.1f}s]" for name, val, dt in runs)
    _finish(2, ok, detail)


def test_criterion_03_vertex_line_drawings_match_partition_number(suite):
    ok = True
    for g, value, res in suite["pi13"]:
        r = res.witness.count
        bx, by, bz = res.box
        ok = ok and res.drawing.verified and r == value
        ok = ok and res.witness.kind == "lines_for_vertices"
        ok = ok and bx <= r and by <= 4 * r * g.n and bz <= 4 * r * r * g.n
    wheel_value = lva_exact(triangulated_square_wheel()).value
    ok = ok and wheel_value == 3
    _finish(
        3,
        ok,
        f"{len(suite['pi13'])} graphs drawn on exactly their line-partition "
        f"number of lines inside the r x 4rn x 4r^2n box; wheel value {wheel_value}",
    )


def test_criterion_04_parallel_plane_drawings(suite):
    ok = True
    retries = []
    k9 = None
    for label, g, res in suite["pi23"]:
        ok = ok and res.drawing.verified and g.n <= 12
        ok = ok and res.witness.kind == "planes_for_vertices"
        retries.append(max(0, res.drawing.meta["attempts"] - 1))
        if label == "complete:9":
            k9 = res
    ok = ok and k9 is not None and k9.witness.count == 3
    ok = ok and len({o.normal for o in k9.witness.objects}) == 1
    med = statistics.median(retries)
    _finish(
        4,
        ok,
        f"{len(suite['pi23'])} stacked-plane drawings verified "
        f"(K9 on 3 parallel planes); median retries {med}, max {max(retries)}",
    )


def test_criterion_06_family_identities(suite):
    ok = True
    for p, q, res in suite["books"]:
        ok = ok and res.witness.count == math.ceil(p / 2) and res.drawing.verified
    for p, q, res in suite["rails"]:
        ok = ok and res.witness.count == p + 1 and res.drawing.verified
        ok = ok and res.witness.kind == "parallel_lines"
    for q, res in suite["k2q"]:
        n = q + 2
        want = math.ceil((3 * n - 7) / 2)
        measured, _ = edge_line_count(res.drawing)
        ok = ok and res.witness.count == want and measured == want
    for n, res in suite["moments"]:
        ok = ok and res.witness.count == math.ceil(n / 2) and res.drawing.verified
    total = (
        len(suite["books"]) + len(suite["rails"]) + len(suite["k2q"]) + len(suite["moments"])
    )
    _finish(
        6,
        ok,
        f"{total} family drawings hit ceil(p/2) planes, p+1 parallel lines, "
        "ceil((3n-7)/2) segments, ceil(n/2) lines exactly",
    )


def test_criterion_07_prism_scaling_and_reported_lower_bound(suite):
    pts = []
    ok = suite["prism_seconds"] < 300.0
    for k, res in suite["prisms"]:
        n = res.drawing.graph.n
        ok = ok and res.drawing.verified
        pts.append((math.log(n), math.log(res.witness.count)))
    xm = sum(x for x, _ in pts) / len(pts)
    ym = sum(y for _, y in pts) / len(pts)
    slope = sum((x - xm) * (y - ym) for x, y in pts) / sum((x - xm) ** 2 for x, _ in pts)
    ok = ok and 0.55 <= slope <= 0.80
    reported = True
    for k in (8, 27, 64):
        g = nested_triangles(k)
        lower = bound_report(g, family="nested_triangles")["rho12"].lower
        reported = reported and lower == math.ceil(g.n / 2)
    ok = ok and reported
    _finish(
        7,
        ok,
        f"prism line counts fit exponent {slope:.3f} in [0.55, 0.80] "
        f"({suite['prism_seconds']:.1f}s); ring-stack 2D lower bound "
        f"reported as ceil(n/2) without search: {reported}",
    )


def test_criterion_08_binary_tree_grids(suite):
    ok = tree_grid_size(4) == 8 and tree_grid_size(6) == 20
    for h, res in suite["trees"]:
        m = tree_grid_size(h)
        n = res.drawing.graph.n
        bx, by = res.box
        measured = res.witness.count
        ok = ok and res.drawing.verified
        ok = ok and bx <= m and by <= m + 1
        ok = ok and measured <= 2 * m + 1
        ok = ok and measured * measured > n - 3  # strict sqrt(n-3) floor
    _finish(
        8,
        ok,
        f"heights 2..10 fit m(h) x (m(h)+1) grids with m(4)=8, m(6)=20, "
        "line counts <= 2m(h)+1 and strictly above sqrt(n-3)",
    )


def test_criterion_10_slopes_lines_segments_chain(suite):
    drawings = []
    for _, res in suite["spirals"] + suite["squares"] + suite["k2q"] + suite["extra_pi13"]:
        if res.drawing.dim == 2:
            drawings.append(res.drawing)
    for _, res in suite["trees"]:
        drawings.append(res.drawing)
    ok = len(drawings) >= 150
    for d in drawings:
        lines, _ = edge_line_count(d)
        segments, slopes = segment_slope_count(d)
        ok = ok and slopes <= lines <= segments
    _finish(
        10,
        ok,
        f"slopes <= lines <= segments on {len(drawings)} verified 2D drawings",
    )


def test_criterion_09_lower_bounds_never_exceed_witnesses(suite):
    reports = {}

    def report_for(g):
        if g not in reports:
            budget = 12 if g.n > 12 else None
            reports[g] = bound_report(g, budget=budget)
        return reports[g]

    pairs = suite["pairs"]
    violations = []
    for label, g, param, count in pairs:
        bounds = report_for(g)[param]
        if bounds.lower > count:
            violations.append((label, param, bounds.lower, count))
        for entry in bounds.provenance:
            if entry.side == "lower" and entry.value > count:
                violations.append((label, param, entry.rule, entry.value, count))
    ok = len(pairs) >= 500 and not violations
    _finish(
        9,
        ok,
        f"{len(pairs)} graph/drawing pairs over {len(reports)} graphs, "
        f"{len(violations)} lower-bound violations" + (f": {violations[:3]}" if violations else ""),
    )


def test_criterion_05_edge_separator_audit(suite):
    # the two edge-separator rules bound rho13 from below, so no line
    # cover of a drawing's edges may use fewer lines than they print
    log = suite["audits"]
    bad = [
        (label, entry.rule, entry.value, count)
        for label, g, count in log
        for entry in _rule_essential(g) + _rule_degree_density(g)
        if entry.value > count
    ]
    ok = len(log) >= 300 and not bad
    _finish(
        5,
        ok,
        f"{len(log)} 3D drawings of the suite audited against both exact "
        f"edge-separator floors, {len(bad)} violations" + (f": {bad[:3]}" if bad else ""),
    )
