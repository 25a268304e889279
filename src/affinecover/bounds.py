"""Rule-based interval bounds for affine cover parameters.

``bound_report`` assembles, for one graph, a lower/upper interval per
cover parameter by running a fixed registry of structural rules --
exact counting arguments, solver-backed graph invariants, closed forms
for recognised families, and machine-verified drawing witnesses -- and
then tightening the intervals with the monotone relations that hold
between the parameters.

Every contribution is kept as a :class:`BoundEntry` in the report's
provenance, whether or not it was folded into the interval.  Entries
carry an ``exact`` flag (False for heuristic fallback values, which are
only ever used on the side where they stay sound), a ``source`` tag
("machine" for values this library computes or re-verifies, "paper"
for asserted external facts), and a ``fold`` flag.  Recorded values
with ``fold=False`` ride along as provenance without influencing the
interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .constructions import (
    KN_ORDERS,
    ConstructionError,
    ConstructionResult,
    kn_small_plane_cover,
    spiral_two_lines,
)
from .drawing import verify_cover_witness, verify_crossing_free
from .graphs import Graph, complete_bipartite_shape, es_count, is_complete, nested_triangles
from .planar import dual_circumference_bound, tree_tracks
from .solvers import (
    bisection_width_exact,
    chromatic_number,
    clique_cover_exact,
    lva_exact,
    steiner_bounds,
    treewidth_exact,
    vertex_thickness_exact,
)

__all__ = [
    "PARAMETERS",
    "RULES",
    "BoundEntry",
    "BoundReport",
    "ParamBounds",
    "bound_report",
    "monotone_closure",
]

INF = math.inf

#: Tracked cover parameters.  The digits are (line-or-plane dimension,
#: ambient dimension); "pibar" is the parallel-line variant.
PARAMETERS = ("pi12", "pi13", "pibar13", "pi23", "rho12", "rho13", "rho23")

#: Relations ``small <= large`` that always hold between parameters:
#: restricting to fewer directions or a lower ambient dimension never
#: helps, and parallel lines are a restriction of lines.
_RELATIONS = (
    ("pi23", "pi13"),
    ("pi13", "pi12"),
    ("pi13", "pibar13"),
    ("rho23", "rho13"),
    ("rho13", "rho12"),
)

#: Relations that additionally need at least one edge: with no edges an
#: edge cover is empty while a vertex cover is not.
_EDGE_RELATIONS = (
    ("pi12", "rho12"),
    ("pi13", "rho13"),
    ("pi23", "rho23"),
)

#: Witness kinds (with ambient dimension) and the parameter they bound.
_WITNESS_PARAM = {
    ("lines_for_vertices", 2): "pi12",
    ("lines_for_vertices", 3): "pi13",
    ("parallel_lines", 3): "pibar13",
    ("planes_for_vertices", 3): "pi23",
    ("lines_for_edges", 2): "rho12",
    ("lines_for_edges", 3): "rho13",
    ("planes_for_edges", 3): "rho23",
}

#: Recorded best published values for plane edge covers of small
#: complete graphs.  Kept as provenance only (``fold=False``): the
#: folded interval uses just what the machine can re-derive.
_TABLE_LOWER = {4: 1, 5: 3, 6: 4, 7: 6, 8: 6, 9: 7}
_TABLE_UPPER = {4: 1, 5: 3, 6: 4, 7: 6, 8: 7}


@dataclass(frozen=True)
class BoundEntry:
    """One rule's contribution to one side of one parameter."""

    parameter: str
    side: str  # "lower" | "upper"
    value: Fraction
    rule: str
    exact: bool
    source: str = "machine"  # "machine" | "paper"
    fold: bool = True


@dataclass(frozen=True)
class ParamBounds:
    """Interval for one parameter plus every entry that touched it."""

    lower: Fraction
    upper: object  # Fraction, or math.inf when no finite upper is known
    provenance: tuple


@dataclass(frozen=True)
class BoundReport:
    """Per-parameter intervals for one graph, indexable by parameter."""

    graph: Graph
    params: Mapping[str, ParamBounds]

    def __getitem__(self, parameter: str) -> ParamBounds:
        return self.params[parameter]


def _ceil(x) -> Fraction:
    return Fraction(math.ceil(Fraction(x)))


def _lower(param, value, rule, exact=True, source="machine", fold=True):
    return BoundEntry(param, "lower", Fraction(value), rule, exact, source, fold)


def _upper(param, value, rule, exact=True, source="machine", fold=True):
    return BoundEntry(param, "upper", Fraction(value), rule, exact, source, fold)


# ---------------------------------------------------------------------------
# individual rules, each returning a list of entries
# ---------------------------------------------------------------------------


def _rule_essential(g: Graph, **_) -> list:
    es = es_count(g)
    c = 0
    while c * (c - 1) < 2 * es:
        c += 1
    return [_lower("rho13", c, "essential-intersections")]


def _rule_degree_density(g: Graph, **_) -> list:
    if not g.m >= g.n >= 1:
        return []
    target = g.m * (g.m - g.n) + 1
    c = 0
    while g.n * c * c < target:
        c += 1
    return [_lower("rho13", c, "degree-density")]


def _rule_bisection(g: Graph, budget, **_) -> list:
    if g.n < 2:
        return []
    res = bisection_width_exact(g, budget_n=budget)
    if not res.exact:
        # over budget the solver reports a cut it found, which bounds
        # the width from above only -- useless as a cover lower bound
        return []
    return [_lower("rho13", res.value, "bisection-width")]


def _rule_treewidth(g: Graph, **_) -> list:
    if g.n < 1:
        return []
    res = treewidth_exact(g)
    # res.lower is a valid treewidth lower bound even when inexact
    return [_lower("rho13", Fraction(res.lower, 3), "treewidth-third", res.exact)]


def _rule_partitions(g: Graph, budget, **_) -> list:
    """Solver-backed vertex partitions.  Every class fits on one line or
    plane, so the solver's value bounds each parameter from above; an
    exact value divided by the parameter's divisor bounds it from below."""
    if g.n < 1:
        return []
    out = []
    colouring = chromatic_number(g, budget_n=budget)
    for rule, res, divisors in (
        ("chromatic-envelope", colouring, {"pi13": 2, "pi23": 4}),
        ("forest-partition", lva_exact(g, budget_n=budget, _colouring=colouring), {"pi13": 1}),
        ("planar-partition", vertex_thickness_exact(g, budget_n=budget), {"pi23": 1}),
    ):
        out += [_upper(param, res.value, rule, res.exact) for param in divisors]
        if res.exact:
            out += [_lower(param, Fraction(res.value, d), rule) for param, d in divisors.items()]
    return out


def _rule_arboricity_floor(g: Graph, **_) -> list:
    if g.n < 2:
        return []
    return [_lower("rho13", _ceil(Fraction(g.m, g.n - 1)), "linear-arboricity-floor")]


def _rule_degree_edges(g: Graph, **_) -> list:
    out = []
    if g.n >= 1:
        out.append(_lower("rho13", _ceil(Fraction(g.max_degree(), 2)), "max-degree-half"))
    out.append(_upper("rho13", g.m, "edge-count"))
    return out


def _rule_complete(g: Graph, **_) -> list:
    n = g.n
    if n < 2 or not is_complete(g):
        return []
    out = [_lower("rho13", n * (n - 1) // 2, "complete-segments")]
    if 3 <= n <= 9:
        # at n = 9 the cap of 6 lies below Schönheim's bound 7, so no search
        # over 4-blocks runs and 7 is the lower bound; uncapped, the search
        # proves 8 in about a second, longer than a whole `bounds` pass
        quad = clique_cover_exact(n, 4, max_value=6 if n == 9 else None)
        out.append(_lower("rho23", quad.lower, "clique-cover-quads", quad.lower_exhaustive))
        tri = clique_cover_exact(n, 3)
        out.append(_upper("rho23", tri.upper, "clique-cover-triangles", tri.exact))
    elif n >= 10:
        counting, _ = steiner_bounds(n, 4)
        out.append(_lower("rho23", counting, "steiner-counting"))
    if n in KN_ORDERS:
        cert = kn_small_plane_cover(n)
        out.append(_upper("rho23", cert.witness.count, "shipped-certificate"))
    if n in _TABLE_LOWER:
        out.append(
            _lower("rho23", _TABLE_LOWER[n], "table-asserted", source="paper", fold=False)
        )
    if n in _TABLE_UPPER:
        out.append(
            _upper("rho23", _TABLE_UPPER[n], "table-asserted", source="paper", fold=False)
        )
    return out


def _rule_bipartite(g: Graph, **_) -> list:
    shape = complete_bipartite_shape(g)
    if shape is None:
        return []
    p, q = shape
    half = _ceil(Fraction(p, 2))
    out = [
        _lower("rho23", half, "bipartite-plane-pairs", source="paper"),
        _upper("rho23", half, "bipartite-plane-pairs", source="paper"),
        _lower("rho13", Fraction(p * q, 2), "bipartite-segments", source="paper"),
    ]
    if q >= 3:
        out.append(_lower("pibar13", p + 1, "parallel-tracks", source="paper"))
        out.append(_upper("pibar13", p + 1, "parallel-tracks", source="paper"))
    if p == 2:
        v = _ceil(Fraction(3 * g.n - 7, 2))
        out.append(_lower("rho12", v, "planar-bipartite-segments", source="paper"))
        out.append(_upper("rho12", v, "planar-bipartite-segments", source="paper"))
    return out


def _rule_dual_circumference(g: Graph, **_) -> list:
    try:
        res = dual_circumference_bound(g)
    except ValueError:  # not a triangulation
        return []
    return [_lower("pi12", res.lower_bound, "dual-circumference", res.exact)]


def _rule_tree_layout(g: Graph, **_) -> list:
    try:
        res = spiral_two_lines(g, tree_tracks(g, 0))
    except (ConstructionError, ValueError):  # not a tree, or no layout
        return []
    return [_upper("pi12", res.witness.count, "tree-two-lines")]


def _rule_family(g: Graph, family, **_) -> list:
    if family != "nested_triangles":
        return []
    if g.n < 3 or g.n % 3 != 0 or g != nested_triangles(g.n // 3):
        return []
    return [_lower("rho12", _ceil(Fraction(g.n, 2)), "nested-triangles-cut", source="paper")]


def _rule_attached(g: Graph, constructions: Iterable[ConstructionResult], **_) -> list:
    out = []
    for res in constructions:
        if res.drawing.graph != g:
            continue
        drawing = res.drawing
        if not drawing.verified:
            drawing = verify_crossing_free(drawing)
        verify_cover_witness(drawing, res.witness)
        param = _WITNESS_PARAM.get((res.witness.kind, drawing.dim))
        if param is None:
            continue
        out.append(
            _upper(param, res.witness.count, "construction", bool(res.witness.exact))
        )
    return out


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------

#: Every rule in the order ``bound_report`` runs it, with each id it may
#: cite and the argument behind that id.  A rule is called as
#: ``rule(g, budget=..., family=..., constructions=...)`` and takes the
#: inputs it needs by name.
_RULE_TABLE = (
    (_rule_essential, {
        "essential-intersections": "vertices of degree >= 3 or on a triangle each need "
        "their own pairwise line intersection",
    }),
    (_rule_degree_density, {
        "degree-density": "quadratic counting inequality n*c^2 > m(m-n) for edge covers "
        "by c lines",
    }),
    (_rule_bisection, {
        "bisection-width": "a balanced cut bounds the number of cover lines from below",
    }),
    (_rule_treewidth, {"treewidth-third": "edge covers by c lines force treewidth <= 3c"}),
    (_rule_partitions, {
        "chromatic-envelope": "vertex line covers sit between half the chromatic number "
        "and the chromatic number (quarter for planes)",
        "forest-partition": "covering vertices by lines in 3-space is exactly "
        "partitioning into induced linear forests",
        "planar-partition": "covering vertices by planes in 3-space is exactly "
        "partitioning into induced planar subgraphs",
    }),
    (_rule_arboricity_floor, {
        "linear-arboricity-floor": "every line carries at most n-1 edges",
    }),
    (_rule_degree_edges, {
        "max-degree-half": "the lines through one vertex cover at most two of its edges "
        "each",
        "edge-count": "one line per edge always suffices in 3-space",
    }),
    (_rule_complete, {
        "complete-segments": "in a complete graph no line may carry two edges, so "
        "one line per vertex pair is needed (edge-count gives the matching upper bound)",
        "clique-cover-quads": "every plane of a complete-graph edge cover carries a "
        "clique on at most 4 vertices",
        "steiner-counting": "pair-counting floor ceil(n(n-1)/12) for covering all pairs "
        "by 4-blocks",
        "clique-cover-triangles": "a cover of the pairs by triangles places each block "
        "in its own plane",
        "shipped-certificate": "bundled machine-verified plane-cover drawing for a small "
        "complete graph",
        "table-asserted": "recorded best published plane-cover values for small "
        "complete graphs (provenance only, never folded)",
    }),
    (_rule_bipartite, {
        "bipartite-plane-pairs": "complete bipartite graphs need and admit exactly "
        "ceil(p/2) planes for their edges",
        "bipartite-segments": "edge covers of complete bipartite graphs by lines need "
        "at least pq/2 lines (edge-count gives the upper bound pq)",
        "parallel-tracks": "complete bipartite graphs with q >= 3 need and admit exactly "
        "p+1 parallel cover lines",
        "planar-bipartite-segments": "plane edge covers of K_{2,q} need and admit "
        "exactly ceil((3n-7)/2) lines",
    }),
    (_rule_dual_circumference, {
        "dual-circumference": "line covers of a triangulation's vertices are bounded "
        "below via the longest cycle of its dual",
    }),
    (_rule_tree_layout, {
        "tree-two-lines": "trees admit a measured crossing-free layout on two crossing "
        "lines",
    }),
    (_rule_family, {
        "nested-triangles-cut": "cut argument giving ceil(n/2) cover lines for the "
        "nested-triangles family in the plane",
    }),
    (_rule_attached, {"construction": "caller-attached machine-verified drawing witness"}),
)

#: Every rule id a report may cite, with a one-line description of the
#: argument behind it: the table's ids plus the closure's.
RULES = {
    **{rule: text for _, ids in _RULE_TABLE for rule, text in ids.items()},
    "monotone": "tightening along the monotone relations between parameters",
}


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _fold(entries: Sequence[BoundEntry]) -> dict:
    lower = {p: Fraction(0) for p in PARAMETERS}
    upper = {p: INF for p in PARAMETERS}
    prov = {p: [] for p in PARAMETERS}
    for e in entries:
        prov[e.parameter].append(e)
        if not e.fold:
            continue
        if e.side == "lower":
            if e.value > lower[e.parameter]:
                lower[e.parameter] = e.value
        else:
            if e.value < upper[e.parameter]:
                upper[e.parameter] = e.value
    return {
        p: ParamBounds(lower[p], upper[p], tuple(prov[p])) for p in PARAMETERS
    }


def monotone_closure(report: BoundReport) -> BoundReport:
    """Tighten a report along the monotone relations between parameters.

    Lower bounds flow from the smaller parameter up, upper bounds from
    the larger parameter down.  Pure and idempotent: applying it to an
    already-closed report returns equal intervals and adds no entries.
    """
    relations = _RELATIONS + (_EDGE_RELATIONS if report.graph.m >= 1 else ())
    lower = {p: report.params[p].lower for p in PARAMETERS}
    upper = {p: report.params[p].upper for p in PARAMETERS}
    prov = {p: list(report.params[p].provenance) for p in PARAMETERS}
    changed = True
    while changed:
        changed = False
        for small, large in relations:
            if lower[small] > lower[large]:
                lower[large] = lower[small]
                prov[large].append(
                    BoundEntry(large, "lower", lower[small], "monotone", True)
                )
                changed = True
            if upper[large] < upper[small]:
                upper[small] = upper[large]
                prov[small].append(
                    BoundEntry(small, "upper", upper[large], "monotone", True)
                )
                changed = True
    return BoundReport(
        graph=report.graph,
        params={
            p: ParamBounds(lower[p], upper[p], tuple(prov[p])) for p in PARAMETERS
        },
    )


def bound_report(
    g: Graph,
    budget: int | None = None,
    constructions: Iterable[ConstructionResult] = (),
    family: str | None = None,
) -> BoundReport:
    """Interval bounds for every cover parameter of ``g``.

    ``budget`` caps the vertex count up to which the exact solvers run
    (they fall back to flagged heuristics beyond it); ``constructions``
    attaches machine-verified drawings whose witnesses become upper
    bounds; ``family`` opts a graph into closed-form rules for a named
    family, checked structurally before use.
    """
    entries = []
    for rule, _ids in _RULE_TABLE:
        entries += rule(g, budget=budget, family=family, constructions=constructions)
    return monotone_closure(BoundReport(graph=g, params=_fold(entries)))
