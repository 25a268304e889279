"""Tests for certificate serialization and re-verification."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecover.certio import (
    MAX_SCALE_BITS,
    certificate_from_result,
    emit_certificate,
    load_certificate,
    parse_certificate,
    verify_certificate,
    write_certificate,
)
from affinecover.constructions import (
    ConstructionResult,
    binary_tree_grid,
    k2q_optimal,
    kn_small_plane_cover,
    nested_squares_two_lines,
    parallel_kpq_lines,
    pi13_drawing,
    pi23_drawing,
)
from affinecover.drawing import (
    Drawing,
    DrawingViolation,
    WitnessViolation,
    edge_line_count,
    verify_crossing_free,
)
from affinecover.geometry import integerize
from affinecover.graphs import complete_graph, path_graph
from reference import fraction_parse_certificate


def _samples():
    return [
        ("kn_small_plane_cover", kn_small_plane_cover(6)),
        ("pi13_drawing", pi13_drawing(path_graph(5))),
        ("pi23_drawing", pi23_drawing(complete_graph(5), seed=1)),
        ("k2q_optimal", k2q_optimal(3)),
        ("parallel_kpq_lines", parallel_kpq_lines(2, 3)),
        ("binary_tree_grid", binary_tree_grid(3)),
        ("nested_squares_two_lines", nested_squares_two_lines(2)),
    ]


def _canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def test_round_trip_bytes_and_objects():
    for name, res in _samples():
        cert = certificate_from_result(res, name, seed=7)
        data = emit_certificate(cert)
        assert data.endswith(b"\n")
        # emit is canonical JSON: sorted keys, tight separators
        assert data == _canonical_bytes(json.loads(data))
        cert2 = parse_certificate(data)
        assert emit_certificate(cert2) == data  # byte-exact round trip
        assert cert2.graph == cert.graph
        assert cert2.drawing.points == cert.drawing.points
        assert cert2.witness.kind == cert.witness.kind
        assert cert2.witness.objects == cert.witness.objects
        assert cert2.witness.assignment == cert.witness.assignment
        assert cert2.witness.exact == cert.witness.exact
        assert cert2.meta == cert.meta
        verified = verify_certificate(cert2)
        assert verified.verified


def test_emit_deterministic():
    res = kn_small_plane_cover(5)
    c1 = certificate_from_result(res, "kn_small_plane_cover", seed=None)
    c2 = certificate_from_result(res, "kn_small_plane_cover", seed=None)
    assert emit_certificate(c1) == emit_certificate(c2)


def test_meta_fields():
    res = k2q_optimal(4)
    cert = certificate_from_result(res, "k2q_optimal", seed=3)
    assert cert.meta["construction"] == "k2q_optimal"
    assert cert.meta["seed"] == 3
    assert "tool" in cert.meta
    assert cert.meta["claimed_bound"] == res.claimed_bound


def test_write_and_load(tmp_path):
    res = kn_small_plane_cover(6)
    cert = certificate_from_result(res, "kn_small_plane_cover")
    path = tmp_path / "k6.json"
    write_certificate(cert, path)
    assert path.read_bytes() == emit_certificate(cert)
    loaded = load_certificate(path)
    assert emit_certificate(loaded) == emit_certificate(cert)
    assert verify_certificate(loaded).verified


def test_no_float_literals_in_emitted_json():
    for name, res in _samples():
        data = emit_certificate(certificate_from_result(res, name))

        def _reject(s):
            raise AssertionError(f"float literal {s!r} in certificate")

        json.loads(data, parse_float=_reject)


def test_big_integers_serialized_as_decimal_strings():
    big = 2**60
    d = verify_crossing_free(Drawing(path_graph(2), *integerize(((0, 0), (big, 1)))))
    count, witness = edge_line_count(d)
    res = ConstructionResult(d, witness, count, (big, 1))
    cert = certificate_from_result(res, "manual")
    data = emit_certificate(cert)
    assert str(big).encode() in data
    assert b'"%d"' % big in data  # encoded as a string, not a JSON number
    cert2 = parse_certificate(data)
    assert emit_certificate(cert2) == data
    assert cert2.drawing.points[1][0] == big


def test_tampered_coordinate_fails_verification():
    res = kn_small_plane_cover(6)
    cert = certificate_from_result(res, "kn_small_plane_cover")
    obj = json.loads(emit_certificate(cert))
    # push one vertex off its assigned plane: bump a z numerator
    num, den = obj["drawing"][0][2]
    obj["drawing"][0][2] = [num + den, den]
    tampered = parse_certificate(_canonical_bytes(obj))
    with pytest.raises((DrawingViolation, WitnessViolation)):
        verify_certificate(tampered)


def _valid_payload():
    res = k2q_optimal(2)
    cert = certificate_from_result(res, "k2q_optimal")
    return json.loads(emit_certificate(cert))


def _swap_in(o: dict, res) -> dict:
    """Replace the payload by ``res``'s certificate, for cases that need
    another witness kind than k2q's lines for edges."""
    o.clear()
    o.update(json.loads(emit_certificate(certificate_from_result(res, "swap"))))
    return o


def _rename(d: dict, old: str, new: str) -> None:
    d[new] = d.pop(old)


def _raw(old: bytes, new: bytes):
    """A case written on the canonical bytes rather than on the payload."""
    return lambda o: _canonical_bytes(o).replace(old, new)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.__setitem__("version", 2),
        lambda o: o.__setitem__("version", True),  # True == 1 in Python
        lambda o: o["witness"].__setitem__("kind", ["lines_for_edges"]),  # unhashable
        lambda o: o.__setitem__("surprise", True),
        lambda o: o.pop("witness"),
        lambda o: o["drawing"][0].__setitem__(0, [2, 4]),  # unreduced
        lambda o: o["drawing"][0].__setitem__(0, [1, -2]),  # negative den
        lambda o: o["drawing"][0].__setitem__(0, [0.5, 1]),  # float
        lambda o: o["drawing"][0].__setitem__(0, ["5", 1]),  # small int as str
        lambda o: o["witness"].__setitem__(
            "assignment",
            {"0;1": 0},
        ),
        lambda o: o["witness"]["assignment"].update(
            {next(iter(o["witness"]["assignment"])): 99}
        ),  # object index out of range
        lambda o: o.__setitem__("graph", "this is not graph6 \x01"),
        lambda o: o.__setitem__("graph", "\u00e9"),  # not ASCII
        _raw(b'"meta":{', b'"meta":{"aaa":NaN,'),
        _raw(b'"claimed_bound":3', b'"claimed_bound":Infinity'),
        _raw(b'"seed":null', b'"seed":-Infinity'),
        lambda o: _rename(o["witness"]["assignment"], "1,2", "01,2"),
        lambda o: _rename(_swap_in(o, kn_small_plane_cover(4))["witness"]["assignment"], "0,1", "0,+1"),
        lambda o: _rename(_swap_in(o, pi13_drawing(path_graph(3)))["witness"]["assignment"], "0", "+0"),
        lambda o: o["witness"]["objects"][0]["direction"].__setitem__(0, "0"),  # int as str
        lambda o: _swap_in(o, kn_small_plane_cover(4))["witness"]["objects"][0]["normal"].__setitem__(2, "1"),
        lambda o: _swap_in(o, kn_small_plane_cover(4))["witness"]["objects"][0].__setitem__("offset", [0, 2]),
        lambda o: o["witness"]["objects"][1]["base"].__setitem__(1, [-3, -1]),  # negative den
        lambda o: o["drawing"][0].__setitem__(0, [2**53, 1]),  # too large for a JSON number
        _raw(b'"version":1', b'"version":2,"version":1'),  # duplicated key
    ],
)
def test_malformed_certificates_rejected(mutate):
    obj = _valid_payload()
    data = mutate(obj)
    with pytest.raises(ValueError):
        parse_certificate(data if isinstance(data, bytes) else _canonical_bytes(obj))


def test_non_canonical_graph6_rejected():
    obj = _valid_payload()
    obj["graph"] = ">>graph6<<" + obj["graph"]
    with pytest.raises(ValueError):
        parse_certificate(_canonical_bytes(obj))


def _forged(kind: str, objects: list, assignment: dict) -> bytes:
    """pi13(K6)'s certificate with its witness replaced."""
    obj = json.loads(emit_certificate(certificate_from_result(pi13_drawing(complete_graph(6)), "pi13")))
    obj["witness"] = {"assignment": assignment, "exact": True, "kind": kind, "objects": objects}
    return _canonical_bytes(obj)


FORGED = {
    # one zero-direction line "holding" all six vertices
    "zero-direction line": _forged(
        "lines_for_vertices",
        [{"base": [[0, 1]] * 3, "dim": 3, "direction": [0, 0, 0], "type": "line"}],
        {str(v): 0 for v in range(6)},
    ),
    # one zero-normal plane "holding" all fifteen edges
    "zero-normal plane": _forged(
        "planes_for_edges",
        [{"normal": [0, 0, 0], "offset": [0, 1], "type": "plane"}],
        {f"{u},{v}": 0 for u in range(6) for v in range(u + 1, 6)},
    ),
}


@pytest.mark.parametrize("name", sorted(FORGED))
def test_forged_witness_rejected(name):
    with pytest.raises(ValueError, match="canonical form"):
        parse_certificate(FORGED[name])


@pytest.mark.parametrize(
    "obj",
    [
        {"base": [[0, 1], [0, 1]], "dim": 2, "direction": [0, -1], "type": "line"},
        {"base": [[0, 1], [1, 1]], "dim": 2, "direction": [0, 2], "type": "line"},
        {"base": [[1, 1], [0, 1]], "dim": 2, "direction": [1, 1], "type": "line"},
        {"normal": [0, -1, 0], "offset": [0, 1], "type": "plane"},
        {"normal": [2, 2, 0], "offset": [0, 1], "type": "plane"},
    ],
)
def test_non_canonical_objects_rejected(obj):
    payload = json.loads(emit_certificate(certificate_from_result(k2q_optimal(2), "k2q")))
    payload["witness"]["objects"][0] = obj
    with pytest.raises(ValueError, match="canonical form"):
        parse_certificate(_canonical_bytes(payload))


_FUZZ_BASES = {
    "binary_tree_grid(2)": emit_certificate(certificate_from_result(binary_tree_grid(2), "binary_tree_grid")),
    "kn_small_plane_cover(4)": emit_certificate(certificate_from_result(kn_small_plane_cover(4), "kn")),
}


@pytest.mark.parametrize("base", list(_FUZZ_BASES))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_certificate_bytes(base, data):
    # Every mutant either round-trips byte for byte and verifies, or is
    # rejected with one of the three documented errors.
    mutant = bytearray(_FUZZ_BASES[base])
    edits = st.lists(st.tuples(st.integers(0, len(mutant) - 1), st.integers(32, 126)), min_size=1, max_size=3)
    for pos, byte in data.draw(edits):
        mutant[pos] = byte
    mutant = bytes(mutant)
    try:
        cert = parse_certificate(mutant)
        assert emit_certificate(cert) == mutant
        verify_certificate(cert)
    except (ValueError, DrawingViolation, WitnessViolation):
        pass


def _path_certificate(points) -> bytes:
    d = verify_crossing_free(Drawing(path_graph(len(points)), *integerize(points)))
    count, witness = edge_line_count(d)
    return emit_certificate(certificate_from_result(ConstructionResult(d, witness, count, (1, 1)), "manual"))


#: Canonical certificates whose coordinate leaves the decoder test
#: mutates: integer and rational drawings, in 2D and in 3D.
_DECODER_BASES = {
    "binary_tree_grid(2)": _FUZZ_BASES["binary_tree_grid(2)"],
    "kn_small_plane_cover(4)": _FUZZ_BASES["kn_small_plane_cover(4)"],
    "rational 2D": _path_certificate([(0, 0), (Fraction(1, 2), Fraction(1, 3)), (2, Fraction(5, 6)), (3, Fraction(-1, 4))]),
    "rational 3D": _path_certificate([(0, 0, Fraction(1, 7)), (Fraction(2, 3), 1, 0), (2, Fraction(-3, 5), 1)]),
}

_LEAF_MUTATIONS = (
    "unreduced", "negative denominator", "zero denominator", "string", "plus", "space",
    "underscore", "leading zeros", "true", "float", "other value", "not a pair",
)
_ROW_MUTATIONS = ("mixed dimension", "wrong dimension", "same point")


def _mutate_coordinate(data, payload: dict) -> None:
    rows = payload["drawing"]
    i = data.draw(st.integers(0, len(rows) - 1), label="vertex")
    j = data.draw(st.integers(0, len(rows[i]) - 1), label="axis")
    how = data.draw(st.sampled_from(_LEAF_MUTATIONS + _ROW_MUTATIONS), label="mutation")
    leaf = rows[i][j]
    side = data.draw(st.integers(0, 1), label="numerator or denominator")
    x = leaf[side]
    if how == "unreduced":
        k = data.draw(st.integers(2, 5))
        rows[i][j] = [leaf[0] * k, leaf[1] * k]
    elif how == "negative denominator":
        rows[i][j] = [-leaf[0], -leaf[1]]
    elif how == "zero denominator":
        leaf[1] = 0
    elif how == "string":
        leaf[side] = str(x)
    elif how == "plus":
        leaf[side] = f"+{x}"
    elif how == "space":
        leaf[side] = data.draw(st.sampled_from((" {}", "{} ", "\t{}"))).format(x)
    elif how == "underscore":
        leaf[side] = f"{x}_{data.draw(st.integers(0, 9))}"
    elif how == "leading zeros":
        leaf[side] = f"{'-' * (x < 0)}00{abs(x)}"
    elif how == "true":
        leaf[side] = True
    elif how == "float":
        leaf[side] = x + 0.5
    elif how == "other value":
        f = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=12))
        rows[i][j] = [f.numerator, f.denominator]
    elif how == "not a pair":
        rows[i][j] = data.draw(st.sampled_from(([x], [*leaf, 1], x, None, {})))
    elif how == "mixed dimension":
        rows[i] = rows[i][:2] if len(rows[i]) == 3 else [*rows[i], [0, 1]]
    elif how == "wrong dimension":
        rows[i] = data.draw(st.sampled_from(([], rows[i][:1], [*rows[i], *[[0, 1]] * (4 - len(rows[i]))])))
    else:
        rows[i] = list(rows[data.draw(st.sampled_from([k for k in range(len(rows)) if k != i]))])


@pytest.mark.parametrize("base", list(_DECODER_BASES))
@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_grid_decoder_matches_fraction_decoder(base, data):
    # decoding straight onto the grid refuses what the Fraction decoder
    # refused, with the same error, and accepts the same drawings
    payload = json.loads(_DECODER_BASES[base])
    _mutate_coordinate(data, payload)
    mutant = _canonical_bytes(payload)
    try:
        old, points = fraction_parse_certificate(mutant)
    except Exception as exc:  # the class and message are compared
        with pytest.raises(Exception) as info:
            parse_certificate(mutant)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
    else:
        cert = parse_certificate(mutant)
        assert (cert.drawing.grid, cert.drawing.scale) == (old.drawing.grid, old.drawing.scale)
        assert cert.drawing.points == points
        assert emit_certificate(cert) == mutant


def test_common_denominator_bounded():
    # a denominator of exactly MAX_SCALE_BITS bits is accepted; one bit
    # more is refused before any grid is built
    at_limit = _path_certificate([(0, 0), (Fraction(1, 2 ** (MAX_SCALE_BITS - 1)), 0)])
    verify_certificate(parse_certificate(at_limit))
    over = _path_certificate([(0, 0), (Fraction(1, 2**MAX_SCALE_BITS), 0)])
    with pytest.raises(ValueError, match=f"more than {MAX_SCALE_BITS} bits"):
        parse_certificate(over)


def test_common_denominator_bounded_across_coordinates():
    # the bound is on the lcm, not on any one denominator: 2^2047 and
    # 3^1300 each have fewer bits than the bound, their lcm more
    big = 2**2047
    ok = _path_certificate([(Fraction(1, big), 0), (0, Fraction(1, 3 ** 1200))])
    parse_certificate(ok)
    over = _path_certificate([(Fraction(1, big), 0), (0, Fraction(1, 3 ** 1300))])
    with pytest.raises(ValueError, match="more than"):
        parse_certificate(over)
