"""Tests for the interval bound report."""
import hashlib
import math
from fractions import Fraction

import pytest

from affinecover.bounds import (
    _RULE_TABLE,
    PARAMETERS,
    RULES,
    BoundReport,
    _fold,
    bound_report,
    monotone_closure,
)
from affinecover.cli import _fmt
from affinecover.constructions import (
    ConstructionResult,
    k2q_optimal,
    parallel_kpq_lines,
    pi13_drawing,
    pi23_drawing,
    prism_stack_3d,
)
from affinecover.drawing import edge_line_count
from affinecover.graphs import (
    Graph,
    balanced_multipartite,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    nested_triangles,
    path_graph,
    triangulated_square_wheel,
)
from affinecover.planar import _stacked_triangulation
from reference import pinned_triangulations
from test_solvers import gnp

INF = math.inf


def _iv(report: BoundReport, param: str):
    b = report[param]
    return b.lower, b.upper


def _has_rule(report, param, rule, side=None):
    return any(
        e.rule == rule and (side is None or e.side == side)
        for e in report[param].provenance
    )


def _check_sane(report: BoundReport) -> None:
    for param in PARAMETERS:
        b = report[param]
        if b.upper != INF:
            assert b.lower <= b.upper, (param, b.lower, b.upper)
        assert b.lower >= 0
        for e in b.provenance:
            assert e.rule in RULES, e.rule
            assert e.side in ("lower", "upper")
            assert e.source in ("machine", "paper")


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def test_complete_six_interval():
    r = bound_report(complete_graph(6))
    _check_sane(r)
    assert _iv(r, "rho23") == (3, 4)
    assert _iv(r, "pi13") == (3, 3)
    assert _iv(r, "pi23") == (2, 2)
    assert _iv(r, "rho13") == (15, 15)
    # the planar parameters are unbounded for a non-planar graph, but the
    # monotone closure still pushes the 3-space lower bounds up to them
    assert r["rho12"].upper == INF and r["rho12"].lower >= 15
    assert r["pi12"].upper == INF and r["pi12"].lower >= 3
    assert r["pibar13"].lower >= 3
    # the stronger published lower bound rides along as unfolded provenance
    paper_entries = [
        e
        for e in r["rho23"].provenance
        if e.rule == "table-asserted" and e.side == "lower"
    ]
    assert paper_entries and paper_entries[0].value == 4
    assert all(e.source == "paper" and not e.fold for e in paper_entries)


def test_complete_graph_plane_cover_rows():
    uppers = {4: 1, 5: 3, 6: 4, 7: 6, 8: 7}
    lowers = {4: 1, 5: 3, 6: 3, 7: 5, 8: 6}
    for n in range(4, 9):
        r = bound_report(complete_graph(n))
        assert _iv(r, "rho23") == (lowers[n], uppers[n]), n


def test_complete_nine_interval():
    r = bound_report(complete_graph(9))
    assert _iv(r, "rho23") == (7, 12)
    assert _iv(r, "rho13") == (36, 36)


def test_path_bounds():
    g = path_graph(5)
    r = bound_report(g)
    _check_sane(r)
    assert _iv(r, "pi13") == (1, 1)
    assert r["pi12"].upper == 2  # measured two-line tree layout
    assert r["rho13"].lower == 1
    assert r["rho13"].upper == 4  # edge-count fallback without constructions
    # attaching a measured one-line edge cover collapses the interval
    res = pi13_drawing(g)
    count, witness = edge_line_count(res.drawing)
    wrapped = ConstructionResult(res.drawing, witness, count, res.box)
    r2 = bound_report(g, constructions=(wrapped,))
    assert _iv(r2, "rho13") == (1, 1)


def test_single_vertex_graph():
    r = bound_report(complete_graph(1))
    _check_sane(r)
    assert r["rho13"].upper == 0
    assert r["pi13"].upper == 1


# ---------------------------------------------------------------------------
# rule-specific checks
# ---------------------------------------------------------------------------


def test_bipartite_formula_rules():
    r = bound_report(complete_bipartite(3, 5))
    _check_sane(r)
    assert _iv(r, "rho23") == (2, 2)
    assert _iv(r, "pibar13") == (4, 4)
    # the pq/2 segment formula contributes 15/2, but the exact bisection
    # width of K_{3,5} is 8 and wins the fold
    assert _has_rule(r, "rho13", "bipartite-segments", "lower")
    assert r["rho13"].lower == 8
    assert r["rho13"].upper == 15

    r = bound_report(complete_bipartite(2, 6))
    assert _iv(r, "rho12") == (9, 9)

    r = bound_report(complete_bipartite(1, 1))
    assert _iv(r, "rho23") == (1, 1)
    assert r["pibar13"].upper == INF  # parallel-line formula needs q >= 3


def test_star_degree_lower():
    r = bound_report(complete_bipartite(1, 8))
    assert r["rho13"].lower == 4  # half the maximum degree
    assert r["rho13"].upper == 8
    assert _iv(r, "rho23") == (1, 1)
    assert _iv(r, "pibar13") == (2, 2)


def test_essential_vertex_rule():
    r = bound_report(cycle_graph(3))
    assert _has_rule(r, "rho13", "essential-intersections", "lower")
    entries = [
        e for e in r["rho13"].provenance if e.rule == "essential-intersections"
    ]
    assert entries[0].value == 3  # es = 3 and 3*2 >= 6

    r4 = bound_report(complete_graph(4))
    e1 = [e for e in r4["rho13"].provenance if e.rule == "essential-intersections"]
    e2 = [e for e in r4["rho13"].provenance if e.rule == "degree-density"]
    assert e1[0].value == 4  # es = 4: smallest c with c(c-1) >= 8
    assert e2[0].value == 2  # smallest c with 4c^2 > 6*(6-4)
    assert _iv(r4, "rho13") == (6, 6)  # complete-graph segment formula wins


def test_structural_solver_rules():
    r = bound_report(complete_graph(6))
    bw = [e for e in r["rho13"].provenance if e.rule == "bisection-width"]
    tw = [e for e in r["rho13"].provenance if e.rule == "treewidth-third"]
    assert bw[0].value == 9 and bw[0].exact
    assert tw[0].value == Fraction(5, 3) and tw[0].exact


def test_dual_circumference_rule_applicability():
    octa = balanced_multipartite(3, 6)
    r = bound_report(octa)
    assert _has_rule(r, "pi12", "dual-circumference", "lower")
    r2 = bound_report(path_graph(5))
    assert not _has_rule(r2, "pi12", "dual-circumference")


def test_nested_triangles_family_rule():
    g = nested_triangles(5)  # n = 15
    tagged = bound_report(g, family="nested_triangles")
    plain = bound_report(g)
    assert tagged["rho12"].lower == 8  # ceil(15/2)
    assert _has_rule(tagged, "rho12", "nested-triangles-cut", "lower")
    assert not _has_rule(plain, "rho12", "nested-triangles-cut")
    assert plain["rho12"].lower == 6  # essential-vertex rule via closure
    # the family rule is specific to the plane parameter's 2D variant
    assert tagged["rho13"].lower == plain["rho13"].lower
    # a wrong tag on a non-matching graph is ignored
    bogus = bound_report(path_graph(6), family="nested_triangles")
    assert not _has_rule(bogus, "rho12", "nested-triangles-cut")


def test_attached_construction_mapping():
    g = complete_bipartite(2, 4)
    with_k2q = bound_report(g, constructions=(k2q_optimal(4),))
    assert _iv(with_k2q, "rho12") == (6, 6)
    assert _has_rule(with_k2q, "rho12", "construction", "upper")
    # a construction for a different graph is skipped silently
    mismatched = bound_report(g, constructions=(k2q_optimal(5),))
    assert mismatched["rho12"] == bound_report(g)["rho12"]

    g23 = complete_bipartite(2, 3)
    r = bound_report(g23, constructions=(parallel_kpq_lines(2, 3),))
    assert r["pibar13"].upper == 3
    assert _has_rule(r, "pibar13", "construction", "upper")

    k5 = complete_graph(5)
    r5 = bound_report(k5, constructions=(pi23_drawing(k5, seed=1),))
    assert r5["pi23"].upper == 2


def test_budget_limited_solvers_stay_sound():
    g = complete_graph(12)
    r = bound_report(g, budget=4)
    _check_sane(r)
    fp = [e for e in r["pi13"].provenance if e.rule == "forest-partition"]
    assert fp and all(not e.exact for e in fp)
    assert all(e.side == "upper" for e in fp)  # heuristic value is upper-only
    assert r["rho13"].lower == 66  # formula rules are budget-independent
    assert r["pi13"].upper < INF


# ---------------------------------------------------------------------------
# closure and consistency
# ---------------------------------------------------------------------------

CORPUS = [
    complete_graph(4),
    complete_graph(6),
    path_graph(7),
    cycle_graph(5),
    complete_bipartite(3, 3),
    complete_bipartite(2, 5),
    triangulated_square_wheel(),
    nested_triangles(3),
    balanced_multipartite(3, 6),
]


def test_closure_idempotent():
    for g in CORPUS:
        r = bound_report(g)
        once = monotone_closure(r)
        twice = monotone_closure(once)
        for p in PARAMETERS:
            assert (r[p].lower, r[p].upper) == (once[p].lower, once[p].upper)
            assert (once[p].lower, once[p].upper) == (twice[p].lower, twice[p].upper)


def test_corpus_sanity_and_rule_registry():
    for g in CORPUS:
        _check_sane(bound_report(g))


#: (graph, bound_report keyword arguments): the corpus plus one graph for
#: each id that only a rare input reaches.
REGISTRY_CORPUS = [(g, {}) for g in CORPUS] + [
    (complete_graph(10), {}),  # steiner-counting
    (nested_triangles(3), {"family": "nested_triangles"}),  # nested-triangles-cut
    (complete_bipartite(2, 4), {"constructions": (k2q_optimal(4),)}),  # construction
]


def test_rule_table_rows_cite_only_their_ids():
    declared = [rule_id for _, ids in _RULE_TABLE for rule_id in ids]
    assert len(declared) == len(set(declared))  # each id has one row
    for g, kwargs in REGISTRY_CORPUS:
        inputs = {"budget": None, "family": None, "constructions": (), **kwargs}
        for rule, ids in _RULE_TABLE:
            for e in rule(g, **inputs):
                assert e.rule in ids, (rule.__name__, e.rule)


def test_every_registered_rule_id_is_cited():
    cited = set()
    for g, kwargs in REGISTRY_CORPUS:
        report = bound_report(g, **kwargs)
        cited |= {e.rule for p in PARAMETERS for e in report[p].provenance}
    assert cited == set(RULES)


def _needed_ids(report: BoundReport) -> set:
    """The rule ids whose entries some interval of ``report`` needs:
    refolding the report's entries without them, then closing, widens an
    interval."""
    entries = [e for p in PARAMETERS for e in report[p].provenance if e.rule != "monotone"]

    def intervals(kept):
        refolded = monotone_closure(BoundReport(report.graph, _fold(kept)))
        return [(refolded[p].lower, refolded[p].upper) for p in PARAMETERS]

    full = intervals(entries)
    assert full == [_iv(report, p) for p in PARAMETERS]
    return {
        rule for rule in {e.rule for e in entries}
        if intervals([e for e in entries if e.rule != rule]) != full
    }


#: (graph, bound_report keyword arguments, ids the graph is named for):
#: each rule id but treewidth-third narrows an interval on one of them.
NEEDED_ON = [
    (gnp("ablation", 25, 0.35), {}, {"degree-density"}),
    (cycle_graph(30), {}, {"linear-arboricity-floor"}),
    # a spider of 20 legs of length 2
    (Graph(41, [(0, 2 * i + 1) for i in range(20)] + [(2 * i + 1, 2 * i + 2) for i in range(20)]),
     {}, {"max-degree-half", "tree-two-lines", "edge-count"}),
    (complete_graph(9), {}, {"clique-cover-triangles", "clique-cover-quads",
                             "complete-segments", "forest-partition", "planar-partition"}),
    (complete_graph(10), {}, {"steiner-counting"}),
    (nested_triangles(4), {"constructions": (prism_stack_3d(4, "C3"),)},
     {"construction", "essential-intersections"}),
    (_stacked_triangulation(26), {}, {"dual-circumference"}),
    (complete_bipartite(2, 20), {}, {"planar-bipartite-segments", "bipartite-plane-pairs",
                                     "bipartite-segments", "parallel-tracks",
                                     "chromatic-envelope"}),
    (nested_triangles(5), {"family": "nested_triangles"}, {"nested-triangles-cut"}),
    (complete_bipartite(3, 3), {}, {"bisection-width"}),
    (complete_graph(6), {}, {"shipped-certificate"}),
]


def test_every_rule_narrows_something():
    """Each rule id earns its place: some graph has an interval that is
    wider without the id's entries.  The exception is treewidth-third:
    the treewidth sandwich over three never beats the other rho13 lower
    bounds on the atlas or benchmark graphs either.  table-asserted is
    never folded, and monotone is the closure itself."""
    needed = set()
    for g, kwargs, named in NEEDED_ON:
        ids = _needed_ids(bound_report(g, **kwargs))
        assert named <= ids, (g.n, g.m, named - ids)
        needed |= ids
    assert set(RULES) - needed - {"table-asserted", "monotone"} == {"treewidth-third"}


def test_lowers_never_exceed_verified_witnesses():
    for g in CORPUS:
        r = bound_report(g)
        res13 = pi13_drawing(g)
        assert res13.witness.count >= r["pi13"].lower
        res23 = pi23_drawing(g, seed=5)
        assert res23.witness.count >= r["pi23"].lower


def test_closure_relations_enforced():
    for g in CORPUS:
        r = bound_report(g)
        # lower bounds may only grow along pi <= rho, d3 <= d2, pi <= pibar
        assert r["rho13"].lower >= r["pi13"].lower
        assert r["rho12"].lower >= r["pi12"].lower
        assert r["pi12"].lower >= r["pi13"].lower
        assert r["rho12"].lower >= r["rho13"].lower
        assert r["pibar13"].lower >= r["pi13"].lower
        assert r["pi13"].lower >= r["pi23"].lower
        assert r["rho13"].lower >= r["rho23"].lower
        # upper bounds flow the other way
        assert r["pi13"].upper <= r["pi12"].upper
        assert r["pi13"].upper <= r["pibar13"].upper
        assert r["pi23"].upper <= r["pi13"].upper
        assert r["rho23"].upper <= r["rho13"].upper


def test_triangulation_reports_pinned():
    """The (lower, upper, rules) triples that ``affinecover bounds``
    prints for each parameter of the 91 pinned triangulations."""
    rows = []
    for g in pinned_triangulations():
        r = bound_report(g)
        rows.append(tuple(
            (_fmt(r[p].lower), _fmt(r[p].upper),
             ",".join(sorted({e.rule for e in r[p].provenance if e.fold})) or "-")
            for p in PARAMETERS
        ))
    assert len(rows) == 91
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "d940783a60d178377acee3dfc94aac538bbfac4dddc93d1ca4120e2855f2cd4a"
