"""Tests for the command-line interface."""
import argparse
import hashlib
import json
import re
import resource
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from importlib import metadata
from pathlib import Path

import pytest

from affinecover import certio, cli, drawing, solvers
from affinecover.certio import (
    certificate_from_result,
    emit_certificate,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from affinecover.bounds import bound_report
from affinecover.cli import main
from affinecover.constructions import DRAW_TARGETS, ConstructionResult
from affinecover.drawing import Drawing, DrawingViolation, edge_line_count, verify_crossing_free
from affinecover.export import render
from affinecover.geometry import integerize
from affinecover.graphs import (
    GRAPH_MAX_M,
    GRAPH_MAX_N,
    Graph,
    complete_binary_tree,
    complete_graph,
    path_graph,
    to_graph6,
)
from affinecover.solvers import lva_exact, lva_sweep
from reference import fraction_parse_certificate


def _draw(tmp_path, *args):
    out = tmp_path / "cert.json"
    rc = main(["draw", *args, "--out", str(out)])
    return rc, out


# ---------------------------------------------------------------------------
# draw
# ---------------------------------------------------------------------------


def test_draw_complete_six_planes(tmp_path, capsys):
    rc, out = _draw(tmp_path, "--family", "complete:6", "--target", "rho23_kn")
    assert rc == 0
    text = capsys.readouterr().out
    assert "claimed bound 4" in text
    assert "4" in text and "planes_for_edges" in text
    cert = load_certificate(out)
    assert cert.witness.count == 4
    assert verify_certificate(cert).verified


def test_draw_path_single_line(tmp_path, capsys):
    rc, out = _draw(tmp_path, "--family", "path:5", "--target", "pi13")
    assert rc == 0
    cert = load_certificate(out)
    assert cert.witness.count == 1
    assert verify_certificate(cert).verified


def test_draw_family_has_one_spelling(tmp_path, capsys):
    rc, out = _draw(tmp_path, "--family", "c4xp:8", "--target", "prism3d")
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("error: unknown family kind 'c4xp'")


def test_draw_seed_recorded(tmp_path):
    rc, out = _draw(
        tmp_path, "--family", "complete:5", "--target", "pi23", "--seed", "1"
    )
    assert rc == 0
    cert = load_certificate(out)
    assert cert.meta["seed"] == 1
    assert cert.witness.kind == "planes_for_vertices"


def test_draw_without_out_prints_json(capsys):
    rc = main(["draw", "--family", "path:3", "--target", "two_lines"])
    assert rc == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout)
    assert payload["version"] == 1


def test_draw_inapplicable_targets(tmp_path, capsys):
    rc, _ = _draw(tmp_path, "--family", "complete:5", "--target", "two_lines")
    assert rc == 2  # not a tree
    rc, _ = _draw(tmp_path, "--family", "path:4", "--target", "rho23_kn")
    assert rc == 2  # not complete
    capsys.readouterr()
    rc, _ = _draw(tmp_path, "--family", "complete:9", "--target", "rho23_kn")
    assert rc == 2  # certificate family covers n = 4..8 only
    assert capsys.readouterr().err == (
        "error: target rho23_kn needs a complete graph on 4..8 vertices\n"
    )
    rc, _ = _draw(tmp_path, "--family", "cycle:5", "--target", "binary_tree")
    assert rc == 2  # target needs the complete_binary_tree family
    rc, _ = _draw(tmp_path, "--family", "complete:4", "--target", "k2q")
    assert rc == 2  # needs complete_bipartite with p = 2


def test_draw_graph6_input(tmp_path):
    from affinecover.graphs import complete_graph, to_graph6

    g6 = to_graph6(complete_graph(6)).decode()
    rc, out = _draw(tmp_path, "--graph6", g6, "--target", "rho23_kn")
    assert rc == 0
    assert load_certificate(out).graph == complete_graph(6)


def test_draw_edges_file_input(tmp_path):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 3\n")
    rc, out = _draw(tmp_path, "--edges", str(edges), "--target", "two_lines")
    assert rc == 0
    assert load_certificate(out).graph == path_graph(4)


#: sha256 of ``affinecover draw`` stdout, one benchmark-style input per
#: target (two for prism3d, three for pi23: K14 is where its vertex
#: thickness search runs longest), with ``meta.tool`` blanked: it reads
#: "affinecover unknown" in a source tree and the version when installed.
DRAW_PINS = [
    (("pi13", "--graph6", "HTZoGi]"),
     "f87c30b89f1bcf26fa1d1d566ccadba9930720e6ca6d53a69ea20f604a7d198f"),
    (("pi13", "--family", "path:6"),
     "255496d028c132f7856d76b3698182184ef6e525b15f514acf4d2a74a90a0991"),
    (("pi23", "--family", "complete:8", "--seed", "7"),
     "5beebedafdde8fbe1834b1d836f511a683beb348db33aea1058f62a9109bb5f1"),
    (("pi23", "--family", "complete:14", "--seed", "5"),
     "d63e4732cc4f7acb366284674ba26ee5727d3b373658598adf5da74aff66145a"),
    (("pi23", "--family", "balanced_multipartite:4,16", "--seed", "3"),
     "da6a2baedb1464059e5c0790a056bf25ab52c65327277e6dbe1ed5eb94df97aa"),
    (("rho23_kn", "--family", "complete:8"),
     "f51a3cb2a7b2ea814f3dc5569a95796c89c9bb023e83e6c8765fed4341194c1a"),
    (("rho23_kpq", "--family", "complete_bipartite:3,4"),
     "20e480250f10523220018fe0a3b2de7648bc62c3fc41f60ed328cdb15982dd57"),
    (("two_lines", "--family", "complete_binary_tree:5"),
     "36f7755785324d971ac683fd0f3784a5f8fe25c2a0f0484e3314bfa818ba53e1"),
    (("parallel_kpq", "--family", "complete_bipartite:3,6"),
     "a99b7c919c818e65c2ad2067af6ff08e28675eb39627f47193f784821d898467"),
    (("binary_tree", "--family", "complete_binary_tree:5"),
     "a1fc822417540c74d6efcdc45b32e10ff80af80d9ef31d8a009d4ee8f6cadb77"),
    (("k2q", "--family", "complete_bipartite:2,7"),
     "5e06694a538b5ca3e16fbd1b5ca0abe845276dc9eb21550583a7120b84db219e"),
    (("prism3d", "--family", "c4_prism_stack:8"),
     "d12e05cb3c293380378b0b3a2b076068af79fd8695062f438b801ab9439a78ee"),
    (("prism3d", "--family", "nested_triangles:4"),
     "8f5c16610bb7cd69aec5424dff0b95af769acc6ca6d9335a61e393d18ae187e2"),
    (("nested_squares", "--family", "nested_squares:8"),
     "4bbb0c72ed197d05db7f73dde697b78e8f3634ce4f0ba7c51ab3d52d4dc6211e"),
]


@pytest.mark.parametrize("argv, digest", DRAW_PINS, ids=[" ".join(a) for a, _ in DRAW_PINS])
def test_draw_output_pinned(argv, digest, capsys):
    target, *graph = argv
    assert main(["draw", "--target", target, *graph]) == 0
    data = re.sub(rb'"tool":"[^"]*"', b'"tool":""', capsys.readouterr().out.encode())
    assert hashlib.sha256(data).hexdigest() == digest


def test_draw_pins_cover_every_target():
    assert {argv[0] for argv, _ in DRAW_PINS} == set(DRAW_TARGETS)


#: The first pinned input of every draw target.
TARGET_INPUTS = {argv[0]: argv[1:] for argv, _ in reversed(DRAW_PINS)}


def _drawn(tmp_path, target: str) -> bytes:
    rc, out = _draw(tmp_path, "--target", target, *TARGET_INPUTS[target])
    assert rc == 0
    return out.read_bytes()


@pytest.mark.parametrize("target", list(DRAW_TARGETS))
def test_drawn_certificate_decodes_as_fractions_did(tmp_path, target):
    data = _drawn(tmp_path, target)
    cert = load_certificate(tmp_path / "cert.json")
    assert emit_certificate(cert) == data
    old, points = fraction_parse_certificate(data)
    assert (cert.drawing.grid, cert.drawing.scale) == (old.drawing.grid, old.drawing.scale)
    assert cert.drawing.points == points


def test_no_hot_path_reads_points(tmp_path, monkeypatch):
    # the grid is the drawing: drawing, emitting, parsing, verifying,
    # measuring, bounding and exporting never build the Fraction points
    def refuse(self):
        raise AssertionError("Drawing.points read")

    monkeypatch.setattr(Drawing, "points", property(refuse))
    certs = {}
    for target in DRAW_TARGETS:
        data = _drawn(tmp_path, target)
        cert = certs[target] = certio.parse_certificate(data)
        assert emit_certificate(cert) == data
        d = verify_certificate(cert)
        drawing.edge_line_count(d)
        drawing.min_vertex_line_cover(d)
        if d.dim == 2:
            drawing.segment_slope_count(d)
        else:
            drawing.min_edge_plane_cover(d)
    drawing.kn_structural_checks(verify_certificate(certs["rho23_kn"]), certs["rho23_kn"].witness)
    assert bound_report(complete_binary_tree(4))["pi12"].upper == 2
    render(certs["binary_tree"], "svg2d")
    render(certs["pi13"], "svg-iso3d")
    render(certs["prism3d"], "obj")


def test_draw_conflicting_inputs(tmp_path):
    rc, _ = _draw(
        tmp_path, "--family", "path:3", "--graph6", "Bw", "--target", "pi13"
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_good_and_tampered(tmp_path, capsys):
    rc, out = _draw(tmp_path, "--family", "complete:6", "--target", "rho23_kn")
    assert rc == 0
    assert main(["verify", str(out)]) == 0
    assert "OK" in capsys.readouterr().out

    obj = json.loads(out.read_bytes())
    num, den = obj["drawing"][0][2]
    obj["drawing"][0][2] = [num + den, den]
    bad = tmp_path / "bad.json"
    bad.write_bytes(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    )
    assert main(["verify", str(bad)]) == 1

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not a certificate")
    assert main(["verify", str(garbage)]) == 2
    assert main(["verify", str(tmp_path / "absent.json")]) == 2


def _moved_vertex_spiral(tmp_path):
    """The certificate of complete_binary_tree:10 on two lines, and one
    with a vertex moved onto the midpoint of an edge, with its drawing."""
    # 2,047 vertices on the two diagonals: nearly every pair of edge
    # boxes overlaps, so this is the drawing the 2D sweep is for
    rc, out = _draw(tmp_path, "--family", "complete_binary_tree:10", "--target", "two_lines")
    assert rc == 0
    cert = load_certificate(out)
    d = cert.drawing
    edges = sorted(d.graph.edges)
    a, b = edges[len(edges) // 2]
    v = next(w for w in reversed(range(d.graph.n)) if w not in (a, b))
    pts = list(d.points)
    pts[v] = tuple((x + y) / 2 for x, y in zip(d.points[a], d.points[b]))
    moved = Drawing(d.graph, *integerize(pts))
    bad = tmp_path / "moved.json"
    bad.write_bytes(emit_certificate(replace(cert, drawing=moved)))
    return out, bad, moved


def test_verify_full_size_spiral_and_moved_vertex(tmp_path, capsys, monkeypatch):
    out, bad, moved = _moved_vertex_spiral(tmp_path)
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err

    # the pair the box sweep names when it decides alone
    monkeypatch.setattr(drawing, "_sweep_clear", lambda grid, edges: False)
    with pytest.raises(DrawingViolation) as box:
        verify_crossing_free(moved)
    assert err == f"verification failed: {box.value}\n"


@pytest.mark.parametrize("command", [["verify"], ["export", "--format", "obj"]])
def test_deeply_nested_file_is_a_clean_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    capsys.readouterr()
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr().err == "error: not valid JSON: nested too deeply\n"


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_table_output(capsys):
    rc = main(["bounds", "--family", "complete:6"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    row = next(l for l in lines if l.split() and l.split()[0] == "rho23")
    assert row.split()[1:3] == ["3", "4"]
    row = next(l for l in lines if l.split() and l.split()[0] == "rho13")
    assert row.split()[1:3] == ["15", "15"]


def test_bounds_budget_is_set_by_the_flag_alone(monkeypatch, capsys):
    """A budget of 0 would widen seven rows of this report (pi12 to
    0..inf); the environment does not set it."""
    monkeypatch.setenv("AFFINECOVER_BUDGET_N", "0")
    assert main(["bounds", "--graph6", "MhZcxlIigyy`Fmw}_"]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "bounds" / "gnp_14.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_bounds_non_ascii_graph6_is_a_usage_error(capsys):
    assert main(["bounds", "--graph6", "\u00e9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad graph6 string")


def test_bounds_oversized_family_builds_nothing(monkeypatch, capsys):
    """complete:20000 would ask for some 30 GiB of edges; the size is
    read off the parameters and refused before any graph is built."""
    built = []
    monkeypatch.setattr(Graph, "__init__", lambda self, *a, **k: built.append(a))
    assert main(["bounds", "--family", "complete:20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == (
        "error: family complete:20000 is too large: the limit is "
        f"{GRAPH_MAX_N} vertices and {GRAPH_MAX_M} edges\n"
    )


def test_bounds_large_edge_ids_build_nothing(tmp_path, monkeypatch, capsys):
    """An 8-byte edge list naming vertex 30000 asks for 30,001 vertices;
    it is refused before any graph is built."""
    edges = tmp_path / "edges.txt"
    edges.write_bytes(b"0 30000\n")
    built = []
    monkeypatch.setattr(Graph, "__init__", lambda self, *a, **k: built.append(a))
    assert main(["bounds", "--edges", str(edges)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == (
        f"error: bad edge list {str(edges)!r}: edge list of n = 30001, m = 1 is too large: "
        f"the limit is {GRAPH_MAX_N} vertices and {GRAPH_MAX_M} edges\n"
    )


def _k448_graph6() -> str:
    """The graph6 of K448: 16,692 bytes naming 100,128 edges, over the
    edge limit though its 448 vertices are within the vertex limit."""
    return to_graph6(complete_graph(448)).decode()


def _prime_denominators(tmp_path, n: int = 9000):
    """A 7 MB certificate of n isolated vertices whose y-coordinates have
    the first n primes as denominators: their lcm has about 130,000
    bits, so a grid at that scale would hold 18,000 such ints."""
    sieve = bytearray([1]) * 100_000
    sieve[:2] = b"\0\0"
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, len(sieve), i)))
    primes = [i for i, prime in enumerate(sieve) if prime][:n]
    payload = {
        "drawing": [[[x, 1], [1, p]] for x, p in enumerate(primes)],
        "graph": to_graph6(Graph(n, [])).decode(),
        "meta": {},
        "version": certio.CERT_VERSION,
        "witness": {"assignment": {}, "exact": True, "kind": "lines_for_vertices", "objects": []},
    }
    path = tmp_path / "primes.json"
    path.write_bytes(certio._canonical_json(payload))
    return path


def test_bounds_graph6_over_edge_limit_builds_nothing(monkeypatch, capsys):
    g6 = _k448_graph6()
    built = []
    monkeypatch.setattr(Graph, "__init__", lambda self, *a, **k: built.append(a))
    assert main(["bounds", "--graph6", g6]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == (
        "error: bad graph6 string: malformed graph6 input: "
        "graph6 for n=448, m=100128 is too large: "
        f"the limit is {GRAPH_MAX_N} vertices and {GRAPH_MAX_M} edges\n"
    )


def test_verify_certificate_graph_over_edge_limit(tmp_path, capsys):
    rc, out = _draw(tmp_path, "--family", "complete:6", "--target", "rho23_kn")
    assert rc == 0
    obj = json.loads(out.read_bytes())
    obj["graph"] = _k448_graph6()
    out.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: malformed graph6 input: graph6 for n=448, m=100128 is too large: "
        f"the limit is {GRAPH_MAX_N} vertices and {GRAPH_MAX_M} edges\n"
    )


def test_bounds_negative_budget_flag(capsys):
    assert main(["bounds", "--family", "complete:6", "--budget-n", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --budget-n must not be negative, got -3\n"


def test_bounds_zero_budget_is_accepted(capsys):
    # every solver falls back, which is what a budget of 0 asks for
    assert main(["bounds", "--family", "complete:6", "--budget-n", "0"]) == 0
    assert "rho13" in capsys.readouterr().out


#: ``affinecover bounds`` stdout written by the search before the
#: planarity and treewidth fast paths; G(n, 0.5) samples for n = 14..16.
#: K4,4,4,4 is the largest vertex-thickness search, written before the
#: in-house left-right planarity test.  The octahedron (K2,2,2) and the
#: icosahedron are planar triangulations, whose dual bound searched the
#: dual of a networkx embedding when their goldens were written; K4,6 is
#: non-planar with exactly 3n - 6 edges.  K5,7, K10 and the caterpillar
#: with three leaves on four spine vertices are rich in twins; they were
#: written before the searches broke twin symmetry.  No report here
#: calls networkx.  The pi23 and rho23 lower bounds of the 4-prism stack,
#: the caterpillar and the G(n, p) samples on 20 and 22 vertices were
#: rewritten when folded bounds came to be rounded to integers.
BOUNDS_GOLDEN = {
    "complete_8": ("--family", "complete:8"),
    "complete_9": ("--family", "complete:9"),
    "complete_binary_tree_6": ("--family", "complete_binary_tree:6"),
    "c4_prism_stack_5": ("--family", "c4_prism_stack:5"),
    "nested_squares_4": ("--family", "nested_squares:4"),
    "nested_triangles_4": ("--family", "nested_triangles:4"),
    "complete_bipartite_3_3": ("--family", "complete_bipartite:3,3"),
    "balanced_multipartite_4_16": ("--family", "balanced_multipartite:4,16"),
    "balanced_multipartite_3_6": ("--family", "balanced_multipartite:3,6"),
    "complete_bipartite_4_6": ("--family", "complete_bipartite:4,6"),
    "gnp_14": ("--graph6", "MhZcxlIigyy`Fmw}_"),
    "gnp_15": ("--graph6", "NZ_CRk\\@RrzR~t\\OTeG"),
    "gnp_16": ("--graph6", "OveHVtGfMJy}z^^tSYZcv"),
    "gnp_22": ("--graph6", "UCdPJItidh?P|LRsD_^ZOHDD[hyVtod{ctzuun@O"),
    "icosahedron": ("--graph6", "KhFJ{B`KWqph"),
    "complete_bipartite_5_7": ("--family", "complete_bipartite:5,7"),
    "complete_10": ("--family", "complete:10"),
    "caterpillar_5_3_3_0_3_3": ("--family", "caterpillar:5,3,3,0,3,3"),
    "gnp_20": ("--graph6", "SyNI{bIxsnziVlwtZpz|NTliXVqYJYrzs"),
    "gnp_20_sparse": ("--graph6", "Si?_oOboKb?OB@?GO???_?I??gQ?oOBd?"),
    # no exact solver runs: the greedy and blocks-of-four upper bounds
    # are folded, and no solver-backed lower bound is
    "gnp_16_budget0": ("--graph6", "OveHVtGfMJy}z^^tSYZcv", "--budget-n", "0"),
}


@pytest.mark.parametrize("name", BOUNDS_GOLDEN)
def test_bounds_output_pinned(name, capsys):
    assert main(["bounds", *BOUNDS_GOLDEN[name]]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "bounds" / f"{name}.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_bounds_searches_one_colouring_per_report(monkeypatch, capsys):
    """On 21-24 vertices the forest partition is over its budget and
    falls back to the colouring, which is still exact: the report reuses
    the one it has and prints what it printed with two searches."""
    colourings = []
    min_partition = solvers._min_partition

    def spy(ctx, fits, start, forward):
        if forward == "colour":
            colourings.append(len(ctx.rows))
        return min_partition(ctx, fits, start, forward)

    monkeypatch.setattr(solvers, "_min_partition", spy)
    assert main(["bounds", *BOUNDS_GOLDEN["gnp_22"]]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "bounds" / "gnp_22.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
    assert colourings == [22]


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_complete_plane_rows(capsys):
    """The whole K4..K9 table, byte for byte: the clique-cover lower and
    upper bounds of every row and the rules that set them."""
    assert main(["table", "kn_rho23"]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "table_kn_rho23.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_table_pair_counting(capsys):
    rc = main(["table", "steiner"])
    assert rc == 0
    out = capsys.readouterr().out
    row = next(
        l
        for l in out.splitlines()
        if l.split()[:2] == ["9", "4"]
    )
    assert row.split()[2] == "6"
    assert row.split()[3] == "no"


def test_table_unknown_kind():
    assert main(["table", "zodiac"]) == 2


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _collinear_path_cert(tmp_path):
    g = path_graph(5)
    d = verify_crossing_free(Drawing(g, *integerize((i, i) for i in range(5))))
    count, witness = edge_line_count(d)
    cert = certificate_from_result(
        ConstructionResult(d, witness, count, (4, 4)), "manual"
    )
    path = tmp_path / "p5.json"
    write_certificate(cert, path)
    return path


def test_export_svg2d_dashed_cover(tmp_path):
    cert_path = _collinear_path_cert(tmp_path)
    out = tmp_path / "p5.svg"
    rc = main(["export", str(cert_path), "--format", "svg2d", "--out", str(out)])
    assert rc == 0
    data = out.read_text()
    root = ET.fromstring(data)
    assert root.tag.endswith("svg")
    assert data.count("stroke-dasharray") == 1  # exactly one cover line


def test_export_svg_iso3d_plane_colors(tmp_path):
    rc, cert_path = _draw(tmp_path, "--family", "complete:6", "--target", "rho23_kn")
    assert rc == 0
    out = tmp_path / "k6.svg"
    rc = main(["export", str(cert_path), "--format", "svg-iso3d", "--out", str(out)])
    assert rc == 0
    data = out.read_text()
    root = ET.fromstring(data)
    assert root.tag.endswith("svg")
    colors = set(re.findall(r'stroke="(#[0-9a-fA-F]{6})"', data))
    assert len(colors) >= 4  # one color per plane


def test_export_dimension_mismatch(tmp_path):
    rc, cert_path = _draw(tmp_path, "--family", "complete:6", "--target", "rho23_kn")
    assert rc == 0
    assert (
        main(
            [
                "export",
                str(cert_path),
                "--format",
                "svg2d",
                "--out",
                str(tmp_path / "x.svg"),
            ]
        )
        == 2
    )


def test_export_obj(tmp_path):
    rc, cert_path = _draw(tmp_path, "--family", "complete:6", "--target", "rho23_kn")
    assert rc == 0
    out = tmp_path / "k6.obj"
    rc = main(["export", str(cert_path), "--format", "obj", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 6
    assert sum(1 for l in lines if l.startswith("l ")) == 15


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "draw_args, fmt, golden",
    [
        # the README's certificates: a 2D edge-line witness and a 3D
        # vertex-line witness, whose dashed cover lines are projected
        (("--target", "binary_tree", "--family", "complete_binary_tree:3"), "svg2d", "binary_tree_h3.svg"),
        (("--target", "pi13", "--family", "complete:6"), "svg-iso3d", "pi13_k6_iso3d.svg"),
    ],
)
def test_export_svg_bytes_pinned(tmp_path, draw_args, fmt, golden):
    rc, cert_path = _draw(tmp_path, *draw_args)
    assert rc == 0
    out = tmp_path / "out.svg"
    assert main(["export", str(cert_path), "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_export_format_has_one_spelling(tmp_path, capsys):
    rc, cert_path = _draw(tmp_path, "--family", "complete:6", "--target", "rho23_kn")
    assert rc == 0
    out = tmp_path / "k6b.svg"
    capsys.readouterr()
    assert (
        main(["export", str(cert_path), "--format", "svg_iso3d", "--out", str(out)])
        == 2
    )
    assert "invalid choice: 'svg_iso3d'" in capsys.readouterr().err
    assert not out.exists()


def test_render_refuses_unknown_format(tmp_path):
    # only argparse's choices kept an unknown format from rendering as
    # svg-iso3d; render itself now refuses it
    rc, cert_path = _draw(tmp_path, "--family", "complete:6", "--target", "rho23_kn")
    assert rc == 0
    cert = load_certificate(cert_path)
    for fmt in ("png", "svg_iso3d", "SVG2D", ""):
        with pytest.raises(ValueError, match="unknown format"):
            render(cert, fmt)


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_lva_sweep_counts_and_values(capsys):
    rc = main(["experiment", "lva-sweep", "--max-n", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n=4" in out and "n=5" in out and "n=6" in out
    results = lva_sweep(6)
    assert {n: len(rows) for n, rows in results.items()} == {4: 1, 5: 1, 6: 2}
    for rows in results.values():
        for g6, value in rows:
            assert isinstance(g6, str) and 1 <= value <= 3


def test_lva_sweep_matches_exhaustive_atlas():
    # the sweep only inspects edge-maximal planar graphs; adding edges
    # never lowers the partition number, so the per-n maximum must agree
    # with brute force over every connected planar graph from the atlas
    import networkx as nx

    results = lva_sweep(6)
    sweep_max = {n: max(v for _, v in rows) for n, rows in results.items()}
    atlas_max = {4: 0, 5: 0, 6: 0}
    for ng in nx.graph_atlas_g():
        n = ng.number_of_nodes()
        if n not in atlas_max or ng.number_of_edges() == 0:
            continue
        if not nx.is_connected(ng) or not nx.check_planarity(ng)[0]:
            continue
        g = Graph(n, ng.edges())
        atlas_max[n] = max(atlas_max[n], lva_exact(g).value)
    assert sweep_max == atlas_max


def test_lva_sweep_output_pinned(capsys):
    """The n <= 9 sweep byte for byte, including the graph6 strings of the
    graphs that need three linear forests."""
    assert main(["experiment", "lva-sweep", "--max-n", "9"]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "lva_sweep_9.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_lva_sweep_max_n_eight_runs():
    results = lva_sweep(8)
    assert len(results[7]) == 5
    assert len(results[8]) == 14


@pytest.mark.parametrize("max_n", ["12", "40"])
def test_lva_sweep_max_n_above_limit_is_refused(max_n, capsys, monkeypatch):
    def sweep(n):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "lva_sweep", sweep)
    assert main(["experiment", "lva-sweep", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --max-n must be at most 11\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_usage_errors_return_two():
    assert main(["frobnicate"]) == 2
    assert main(["draw", "--family", "complete:6"]) == 2  # missing --target
    assert main(["draw", "--target", "pi13"]) == 2  # no graph input
    assert main(["draw", "--family", "complete:zero", "--target", "pi13"]) == 2
    assert main(["draw", "--family", "martian:3", "--target", "pi13"]) == 2
    assert main([]) == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "affinecover", "table", "steiner"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "9" in proc.stdout


def test_second_call_builds_no_parser(monkeypatch):
    assert main(["table", "steiner"]) == 0  # builds the parser if no test has yet
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["table", "steiner"]) == 0
    assert built == []
    cli._build_parser.__wrapped__()
    assert len(built) == 7  # the spy sees the top parser and its six subcommands


def test_tool_version_looked_up_once(monkeypatch, capsys):
    calls = []
    real_version = metadata.version

    def counting_version(name):
        calls.append(name)
        return real_version(name)

    monkeypatch.setattr(metadata, "version", counting_version)
    certio.tool_version.cache_clear()
    for _ in range(2):
        assert main(["draw", "--family", "complete:5", "--target", "rho23_kn"]) == 0
    assert calls == ["affinecover"]


USAGE_DRAW_USAGE = (
    ["draw", "--family", "complete:5"],  # missing --target
    ["draw", "--family", "complete:5", "--target", "rho23_kn"],
    ["export", "missing.json", "--format", "png"],  # unknown format
)


def test_calls_sharing_a_parser_match_calls_alone(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    alone = []
    for argv in USAGE_DRAW_USAGE:
        proc = subprocess.run(
            [sys.executable, "-m", "affinecover", *argv], capture_output=True, text=True
        )
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    shared = []
    for argv in USAGE_DRAW_USAGE:
        rc = main(argv)
        out = capsys.readouterr()
        shared.append((rc, out.out, out.err))
    assert [rc for rc, _, _ in alone] == [2, 0, 2]
    assert shared == alone


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list:
    """Every `affinecover ...` or `printf ...` line of the README's sh blocks."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.splitlines():
            line = line.removeprefix("$ ")
            words = shlex.split(line, comments=True)
            if words and words[0] in ("affinecover", "printf"):
                lines.append(line)
    return lines


def test_readme_commands_run_as_written(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    # the two commands the README once got wrong
    assert any("export tree.json --format svg2d" in c for c in commands)
    assert any("--edges path.txt" in c for c in commands)
    monkeypatch.chdir(tmp_path)
    for line in commands:
        if line.startswith("printf"):
            subprocess.run(line, shell=True, check=True, cwd=tmp_path)
        else:
            assert main(shlex.split(line, comments=True)[1:]) == 0, line
    assert (tmp_path / "path.json").is_file()
    assert (tmp_path / "tree.json").is_file()
    assert "<svg" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# hostile input
# ---------------------------------------------------------------------------

#: The address-space and wall limits each hostile-input row runs under;
#: a plain ``bounds --family complete:6`` runs within half this space.
HOSTILE_AS_BYTES = 512 * 2**20
HOSTILE_WALL_S = 20


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


#: (argv built in a scratch directory, the exit status it must end with):
#: 2 for input refused as malformed or too large, 1 for a drawing that
#: fails verification.
HOSTILE_INPUTS = [
    pytest.param(
        lambda tmp: ["verify", _write(tmp, "deep.json", "[" * 100000 + "]" * 100000)],
        2,
        id="verify-deep-json",
    ),
    pytest.param(
        lambda tmp: ["verify", _write(tmp, "number.json", "9" * 5000)],
        2,
        id="verify-long-number",
    ),
    pytest.param(
        lambda tmp: ["bounds", "--edges", _write(tmp, "ids.txt", "0 3000000\n")],
        2,
        id="bounds-large-edge-ids",
    ),
    pytest.param(lambda tmp: ["bounds", "--family", "complete:100000"], 2, id="bounds-huge-family"),
    pytest.param(
        lambda tmp: ["experiment", "lva-sweep", "--max-n", "12"], 2, id="experiment-long-sweep"
    ),
    pytest.param(
        lambda tmp: ["verify", str(_moved_vertex_spiral(tmp)[1])],
        1,
        id="verify-moved-vertex-spiral",
    ),
    pytest.param(
        lambda tmp: ["bounds", "--graph6", _k448_graph6()], 2, id="bounds-graph6-over-edge-limit"
    ),
    pytest.param(
        lambda tmp: ["verify", str(_prime_denominators(tmp))], 2, id="verify-prime-denominators"
    ),
]


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (HOSTILE_AS_BYTES, HOSTILE_AS_BYTES))


@pytest.mark.parametrize("argv, status", HOSTILE_INPUTS)
def test_hostile_input_ends_cleanly_within_limits(tmp_path, argv, status):
    proc = subprocess.run(
        [sys.executable, "-m", "affinecover", *argv(tmp_path)],
        capture_output=True,
        text=True,
        timeout=HOSTILE_WALL_S,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == status, proc.stderr
    assert "Traceback" not in proc.stderr
