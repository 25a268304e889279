"""Command-line front end.

Subcommands
-----------
draw        build one of the certified drawings and write/print a certificate
verify      re-check a certificate file from scratch
bounds      print the interval bound report for a graph
table       print reference tables (complete-graph plane covers, pair counting)
export      convert a certificate to SVG (2D or isometric 3D) or OBJ
experiment  built-in experiments (exhaustive lva sweep over planar graphs)

Exit status: 0 success, 1 verification/construction failure, 2 usage error
(bad arguments, malformed input files, inapplicable targets).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .bounds import PARAMETERS, bound_report
from .certio import (
    CertificateFile,
    certificate_from_result,
    emit_certificate,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from .constructions import (
    ConstructionError,
    ConstructionResult,
    binary_tree_grid,
    k2q_optimal,
    kn_small_plane_cover,
    kpq_plane_book,
    nested_squares_two_lines,
    parallel_kpq_lines,
    pi13_drawing,
    pi23_drawing,
    prism_stack_3d,
    spiral_two_lines,
)
from .drawing import EDGE_KINDS, DrawingViolation, WitnessViolation
from .geometry import CanonLine
from .graphs import (
    FAMILY_KINDS,
    FamilySpec,
    Graph,
    brute_force_isomorphic,
    build_family,
    complete_bipartite_shape,
    complete_graph,
    parse_graph,
    to_graph6,
)
from .planar import planarity_test, tree_tracks
from .solvers import lva_exact, steiner_bounds

BUDGET_ENV = "AFFINECOVER_BUDGET_N"

_TARGETS = (
    "pi13",
    "pi23",
    "rho23_kn",
    "rho23_kpq",
    "two_lines",
    "parallel_kpq",
    "binary_tree",
    "k2q",
    "prism3d",
    "nested_squares",
)

_FAMILY_ALIASES = {"c4xp": "c4_prism_stack"}

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#7f7f7f",
)


class UsageError(Exception):
    """Bad arguments or an inapplicable request; maps to exit status 2."""


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _parse_family(text: str) -> FamilySpec:
    kind, sep, params = text.partition(":")
    kind = _FAMILY_ALIASES.get(kind, kind)
    if kind not in FAMILY_KINDS:
        known = ", ".join(FAMILY_KINDS)
        raise UsageError(f"unknown family kind {kind!r} (known: {known})")
    if not sep or not params:
        raise UsageError(f"family needs integer parameters, e.g. {kind}:5")
    try:
        nums = tuple(int(p) for p in params.split(","))
    except ValueError:
        raise UsageError(f"family parameters must be integers, got {params!r}") from None
    return FamilySpec(kind, nums)


def _resolve_graph(args) -> tuple[Graph, FamilySpec | None]:
    chosen = [name for name in ("family", "graph6", "edges") if getattr(args, name)]
    if len(chosen) != 1:
        raise UsageError("give the graph as exactly one of --family, --graph6, --edges")
    if args.family:
        spec = _parse_family(args.family)
        try:
            return build_family(spec), spec
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.graph6:
        try:
            return parse_graph(args.graph6.encode("ascii"), "graph6"), None
        except (ValueError, UnicodeEncodeError) as exc:
            raise UsageError(f"bad graph6 string: {exc}") from None
    try:
        data = Path(args.edges).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read edge list {args.edges!r}: {exc}") from None
    try:
        return parse_graph(data, "edge_list"), None
    except ValueError as exc:
        raise UsageError(f"bad edge list {args.edges!r}: {exc}") from None


def _graph_label(args) -> str:
    if args.family:
        return args.family
    if args.graph6:
        return f"graph6:{args.graph6}"
    return f"edges:{args.edges}"


def _complete_order(g: Graph) -> int | None:
    return g.n if g.m == g.n * (g.n - 1) // 2 else None


def _resolve_budget(args) -> int | None:
    if args.budget_n is not None:
        budget, source = args.budget_n, "--budget-n"
    else:
        env = os.environ.get(BUDGET_ENV)
        if env is None:
            return None
        try:
            budget, source = int(env), BUDGET_ENV
        except ValueError:
            raise UsageError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    if budget < 0:
        raise UsageError(f"{source} must not be negative, got {budget}")
    return budget


def _fmt(value) -> str:
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return str(value)


# ---------------------------------------------------------------------------
# draw
# ---------------------------------------------------------------------------


def _run_target(
    target: str, g: Graph, spec: FamilySpec | None, seed: int
) -> tuple[ConstructionResult, str, int | None]:
    """Dispatch one draw target; returns (result, construction name, seed used)."""
    if target == "pi13":
        return pi13_drawing(g), "pi13_drawing", None
    if target == "pi23":
        return pi23_drawing(g, seed=seed), "pi23_drawing", seed
    if target == "two_lines":
        try:
            tracks = tree_tracks(g, 0)
        except ValueError:
            raise UsageError("target two_lines needs a tree") from None
        return spiral_two_lines(g, tracks), "spiral_two_lines", None
    if target == "rho23_kn":
        n = _complete_order(g)
        if n is None:
            raise UsageError("target rho23_kn needs a complete graph")
        if not 4 <= n <= 8:
            raise UsageError("rho23_kn layouts are shipped for n = 4..8 only")
        return kn_small_plane_cover(n), "kn_small_plane_cover", None
    if target == "rho23_kpq":
        shape = complete_bipartite_shape(g)
        if shape is None:
            raise UsageError("target rho23_kpq needs a complete bipartite graph")
        return kpq_plane_book(*shape), "kpq_plane_book", None
    if target == "parallel_kpq":
        shape = complete_bipartite_shape(g)
        if shape is None:
            raise UsageError("target parallel_kpq needs a complete bipartite graph")
        return parallel_kpq_lines(*shape), "parallel_kpq_lines", None
    if target == "k2q":
        shape = complete_bipartite_shape(g)
        if shape is None or shape[0] != 2:
            raise UsageError("target k2q needs a complete bipartite graph with p = 2")
        return k2q_optimal(shape[1]), "k2q_optimal", None
    if target == "binary_tree":
        if spec is None or spec.kind != "complete_binary_tree":
            raise UsageError("target binary_tree needs --family complete_binary_tree:h")
        return binary_tree_grid(spec.params[0]), "binary_tree_grid", None
    if target == "prism3d":
        if spec is not None and spec.kind == "c4_prism_stack":
            return prism_stack_3d(spec.params[0], base="C4"), "prism_stack_3d", None
        if spec is not None and spec.kind == "nested_triangles":
            return prism_stack_3d(spec.params[0], base="C3"), "prism_stack_3d", None
        raise UsageError(
            "target prism3d needs --family c4_prism_stack:k or nested_triangles:k"
        )
    if target == "nested_squares":
        if spec is None or spec.kind != "nested_squares":
            raise UsageError("target nested_squares needs --family nested_squares:k")
        return nested_squares_two_lines(spec.params[0]), "nested_squares_two_lines", None
    raise UsageError(f"unknown target {target!r}")


def cmd_draw(args) -> int:
    g, spec = _resolve_graph(args)
    res, name, seed_used = _run_target(args.target, g, spec, args.seed)
    if res.drawing.graph != g:
        raise UsageError(
            f"target {args.target!r} rebuilds a canonical layout whose vertex "
            "labels do not match this input; pass the graph via --family instead"
        )
    cert = certificate_from_result(res, name, seed=seed_used)
    box = "x".join(str(b) for b in res.box)
    summary = (
        f"{args.target} on {_graph_label(args)}: claimed bound {res.claimed_bound}, "
        f"measured {res.witness.count} x {res.witness.kind}, "
        f"dim {res.drawing.dim}, box {box}, verified"
    )
    if args.out:
        write_certificate(cert, Path(args.out))
        print(summary)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(emit_certificate(cert).decode("ascii"))
        print(summary, file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    cert = load_certificate(Path(args.file))
    verify_certificate(cert)
    print(
        f"OK: {args.file}: {cert.witness.kind} witness with "
        f"{cert.witness.count} objects on n={cert.graph.n} m={cert.graph.m} "
        f"(dim {cert.drawing.dim})"
    )
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    g, spec = _resolve_graph(args)
    budget = _resolve_budget(args)
    report = bound_report(g, budget=budget, family=spec.kind if spec else None)
    print(f"bounds for {_graph_label(args)} (n={g.n}, m={g.m})")
    print(f"{'parameter':<10} {'lower':>8} {'upper':>8}  rules")
    for param in PARAMETERS:
        pb = report[param]
        rules = ",".join(sorted({e.rule for e in pb.provenance if e.fold})) or "-"
        print(f"{param:<10} {_fmt(pb.lower):>8} {_fmt(pb.upper):>8}  {rules}")
    recorded = [
        e for param in PARAMETERS for e in report[param].provenance if not e.fold
    ]
    if recorded:
        print()
        print("recorded only (not folded into the intervals above):")
        for e in recorded:
            print(f"  {e.parameter} {e.side} {_fmt(e.value)} {e.rule}")
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    if args.kind == "kn_rho23":
        print("plane cover intervals for complete graphs")
        print("n lower upper rules")
        for n in range(4, 10):
            pb = bound_report(complete_graph(n))["rho23"]
            rules = ",".join(sorted({e.rule for e in pb.provenance if e.fold}))
            print(f"{n} {_fmt(pb.lower)} {_fmt(pb.upper)} {rules}")
        return 0
    print("pair-covering lower bounds and exact design existence")
    print("n k lower design")
    for n in range(4, 21):
        for k in (3, 4):
            lower, exists = steiner_bounds(n, k)
            print(f"{n} {k} {lower} {'yes' if exists else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _clip_line(base, direction, lo, hi):
    """Clip the parametric line base + t*direction to an axis box."""
    t0, t1 = -math.inf, math.inf
    for b, d, low, high in zip(base, direction, lo, hi):
        if d == 0:
            if not low <= b <= high:
                return None
        else:
            ta, tb = (low - b) / d, (high - b) / d
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
    if t0 > t1:
        return None
    p = tuple(b + t0 * d for b, d in zip(base, direction))
    q = tuple(b + t1 * d for b, d in zip(base, direction))
    return p, q


def _bbox(points2d):
    xs = [p[0] for p in points2d]
    ys = [p[1] for p in points2d]
    lo = (min(xs), min(ys))
    hi = (max(xs), max(ys))
    extent = max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
    pad = 0.08 * extent
    return (lo[0] - pad, lo[1] - pad), (hi[0] + pad, hi[1] + pad)


def _svg_canvas(points2d):
    """Map source 2D coordinates into a 640-wide SVG canvas (y flipped)."""
    lo, hi = _bbox(points2d)
    scale = 600.0 / max(hi[0] - lo[0], hi[1] - lo[1])

    def to_svg(p):
        return ((p[0] - lo[0]) * scale + 20.0, (hi[1] - p[1]) * scale + 20.0)

    width = (hi[0] - lo[0]) * scale + 40.0
    height = (hi[1] - lo[1]) * scale + 40.0
    return to_svg, lo, hi, width, height


def _svg_line(p, q, color, dashed=False, width=1.5):
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (
        f'<line x1="{p[0]:.2f}" y1="{p[1]:.2f}" x2="{q[0]:.2f}" y2="{q[1]:.2f}" '
        f'stroke="{color}" stroke-width="{width}"{dash}/>'
    )


def _svg_document(width, height, body: list) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    rect = f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>'
    return "\n".join([head, rect, *body, "</svg>"]) + "\n"


def _edge_color(witness, edge) -> str:
    if witness.kind in EDGE_KINDS and edge in witness.assignment:
        return _PALETTE[witness.assignment[edge] % len(_PALETTE)]
    return "#333333"


def _vertex_color(witness, v) -> str:
    if witness.kind not in EDGE_KINDS and v in witness.assignment:
        return _PALETTE[witness.assignment[v] % len(_PALETTE)]
    return "#111111"


def _float_point(point) -> tuple:
    return tuple(float(c) for c in point)


def _iso_project(point) -> tuple:
    x, y, z = (float(c) for c in point)
    return ((x - y) * math.sqrt(3.0) / 2.0, (x + y) / 2.0 - z)


def _render_svg(cert: CertificateFile, project) -> str:
    """SVG of a drawing whose points ``project`` maps (linearly) to 2D."""
    d = cert.drawing
    pts = [project(p) for p in d.points]
    to_svg, lo, hi, width, height = _svg_canvas(pts)
    body = []
    for i, obj in enumerate(cert.witness.objects):
        if not isinstance(obj, CanonLine):
            continue
        direction = project(obj.direction)
        if direction == (0.0, 0.0):  # a line seen end-on
            continue
        seg = _clip_line(project(obj.base), direction, lo, hi)
        if seg is None:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        body.append(_svg_line(to_svg(seg[0]), to_svg(seg[1]), color, dashed=True))
    for u, v in sorted(d.graph.edges):
        body.append(_svg_line(to_svg(pts[u]), to_svg(pts[v]), _edge_color(cert.witness, (u, v))))
    for v, p in enumerate(pts):
        x, y = to_svg(p)
        body.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{_vertex_color(cert.witness, v)}"/>'
        )
    return _svg_document(width, height, body)


def _render_obj(cert: CertificateFile) -> str:
    lines = [f"# certificate export: {cert.meta.get('construction', 'drawing')}"]
    dim = cert.drawing.dim
    for p in cert.drawing.points:
        coords = [float(c) for c in p] + [0.0] * (3 - dim)
        lines.append("v " + " ".join(f"{c:.6f}" for c in coords))
    for u, v in sorted(cert.graph.edges):
        lines.append(f"l {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def cmd_export(args) -> int:
    cert = load_certificate(Path(args.file))
    verify_certificate(cert)
    fmt = args.format.replace("_", "-")
    if fmt == "obj":
        data = _render_obj(cert)
    else:
        dim, project = (2, _float_point) if fmt == "svg2d" else (3, _iso_project)
        if cert.drawing.dim != dim:
            raise UsageError(f"{fmt} needs a {dim}-dimensional drawing")
        data = _render_svg(cert, project)
    if args.out:
        Path(args.out).write_text(data, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(data)
    return 0


# ---------------------------------------------------------------------------
# experiment: exhaustive lva sweep over small planar graphs
# ---------------------------------------------------------------------------


def _triangle_count(g: Graph) -> int:
    return sum(len(g.adj[u] & g.adj[v]) for u, v in g.edges) // 3


def _iso_key(g: Graph) -> tuple:
    degs = tuple(sorted(g.degree(v) for v in range(g.n)))
    return (g.n, g.m, degs, _triangle_count(g))


def _stacked_triangulation(n: int) -> Graph:
    """Start from K4 and repeatedly subdivide the smallest triangular face."""
    g = complete_graph(4)
    for v in range(4, n):
        emb = planarity_test(g)
        face = min(f for f in emb.faces if len(f) == 3)
        g = Graph(v + 1, set(g.edges) | {(a, v) for a in face})
    return g


def _flip_neighbours(g: Graph):
    """All single diagonal flips of an edge-maximal planar graph."""
    emb = planarity_test(g)
    opposite: dict = {}
    for face in emb.faces:
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


def _triangulations(n: int) -> list:
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


def lva_sweep(max_n: int = 8) -> dict:
    """Exact smallest-partition-into-linear-forests values over all planar
    graphs on 4..max_n vertices, keyed by vertex count.

    Only edge-maximal planar graphs are inspected: removing an edge never
    raises the optimum (a partition valid for the larger graph stays valid),
    so per-n maxima over these representatives bound every planar graph of
    that order.  Rows are (graph6 string, exact value).
    """
    out = {}
    for n in range(4, max_n + 1):
        reps = sorted(_triangulations(n), key=to_graph6)
        out[n] = [(to_graph6(g).decode("ascii"), lva_exact(g).value) for g in reps]
    return out


def cmd_experiment(args) -> int:
    if args.max_n < 4:
        raise UsageError("--max-n must be at least 4")
    results = lva_sweep(args.max_n)
    needing_three = []
    print("exact linear-forest partition sweep over edge-maximal planar graphs")
    for n, rows in results.items():
        top = max(v for _, v in rows)
        print(f"n={n}: {len(rows)} graphs, max value {top}")
        needing_three.extend(g6 for g6, v in rows if v >= 3)
    if needing_three:
        print("graphs needing 3 linear forests: " + " ".join(needing_three))
    else:
        print(
            f"no planar graph on at most {args.max_n} vertices "
            "needs more than 2 linear forests"
        )
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_graph_args(p) -> None:
    p.add_argument(
        "--family",
        help="graph family as kind:params, e.g. complete:6 or caterpillar:3,1,0,2",
    )
    p.add_argument("--graph6", help="graph as a graph6 string")
    p.add_argument("--edges", help="path to an edge list file ('u v' per line)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinecover",
        description="affine line/plane cover numbers: drawings, certificates, bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("draw", help="build a certified drawing")
    _add_graph_args(p)
    p.add_argument("--target", required=True, choices=_TARGETS)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized layouts")
    p.add_argument("--out", help="certificate output path (default: stdout)")
    p.set_defaults(func=cmd_draw)

    p = sub.add_parser("verify", help="re-check a certificate file from scratch")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="print the interval bound report")
    _add_graph_args(p)
    p.add_argument(
        "--budget-n",
        type=int,
        default=None,
        help=f"largest n the exact solvers may attempt (overrides {BUDGET_ENV})",
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", help="print a reference table")
    p.add_argument("kind", choices=["kn_rho23", "steiner"])
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("export", help="convert a certificate to SVG or OBJ")
    p.add_argument("file")
    p.add_argument(
        "--format",
        required=True,
        choices=["svg2d", "svg-iso3d", "svg_iso3d", "obj"],
    )
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("experiment", help="run a built-in experiment")
    p.add_argument("name", choices=["lva-sweep"])
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DrawingViolation, WitnessViolation) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
