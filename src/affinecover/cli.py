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
    certificate_from_result,
    emit_certificate,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from .constructions import DRAW_TARGETS, ConstructionError, draw_target
from .drawing import DrawingViolation, WitnessViolation
from .export import FORMATS, render
from .graphs import FAMILY_KINDS, FamilySpec, Graph, build_family, complete_graph, parse_graph
from .solvers import lva_sweep, steiner_bounds

BUDGET_ENV = "AFFINECOVER_BUDGET_N"

_FAMILY_ALIASES = {"c4xp": "c4_prism_stack"}


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
    return "inf" if value == math.inf else str(value)


# ---------------------------------------------------------------------------
# draw
# ---------------------------------------------------------------------------


def cmd_draw(args) -> int:
    g, spec = _resolve_graph(args)
    res = draw_target(args.target, g, spec, args.seed)
    meta = res.drawing.meta
    cert = certificate_from_result(res, meta["construction"], seed=meta.get("seed"))
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


def cmd_export(args) -> int:
    cert = load_certificate(Path(args.file))
    verify_certificate(cert)
    data = render(cert, args.format)
    if args.out:
        Path(args.out).write_text(data, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(data)
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


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
    p.add_argument("--target", required=True, choices=DRAW_TARGETS)
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
    p.add_argument("--format", required=True, choices=FORMATS)
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
