"""Certificate files: exact, diffable JSON for drawings and witnesses.

A certificate bundles a graph (canonical graph6), a straight-line
drawing (exact rational coordinates), a cover witness (canonical
object coefficient vectors plus the item assignment), and free-form
metadata.  :func:`emit_certificate` defines the one encoding -- sorted
keys, tight separators, reduced fractions, decimal strings for integers
too large for a JSON number -- and :func:`parse_certificate` accepts a
file only if re-emitting what it decoded reproduces the file byte for
byte.  So two certificates are equal iff their bytes are, and the
decoder restates no rule of the encoding.

Numbers are always exact: every coordinate and offset is a
``[numerator, denominator]`` pair, and floats, ``NaN`` and ``Infinity``
are rejected outright.  Loading never trusts the file's claims;
:func:`verify_certificate` re-runs the crossing-freeness and witness
checks from scratch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata

from .drawing import EDGE_KINDS, WITNESS_KINDS, CoverWitness, Drawing
from .drawing import verify_cover_witness, verify_crossing_free
from .geometry import CanonLine, CanonPlane, is_canonical
from .graphs import Graph, parse_graph, to_graph6

__all__ = [
    "CERT_VERSION",
    "CertificateFile",
    "certificate_from_result",
    "emit_certificate",
    "load_certificate",
    "parse_certificate",
    "tool_version",
    "verify_certificate",
    "write_certificate",
]

CERT_VERSION = 1

#: JSON numbers above this magnitude are not exactly representable by
#: every consumer; such integers are serialized as decimal strings.
_INT_LIMIT = 2**53


def tool_version() -> str:
    try:
        return f"affinecover {metadata.version('affinecover')}"
    except metadata.PackageNotFoundError:  # pragma: no cover - dev tree
        return "affinecover unknown"


@dataclass(frozen=True)
class CertificateFile:
    """Parsed certificate: drawing (with its graph), witness, and metadata."""

    drawing: Drawing
    witness: CoverWitness
    meta: dict

    @property
    def graph(self) -> Graph:
        return self.drawing.graph

    @property
    def version(self) -> int:
        return CERT_VERSION


def certificate_from_result(res, construction: str, seed=None) -> CertificateFile:
    """Wrap a construction result as a certificate."""
    meta = {
        "box": [int(b) for b in res.box],
        "claimed_bound": int(res.claimed_bound),
        "construction": construction,
        "seed": seed,
        "tool": tool_version(),
    }
    return CertificateFile(res.drawing, res.witness, meta)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _encode_int(x: int):
    return x if -_INT_LIMIT < x < _INT_LIMIT else str(x)


def _encode_frac(x) -> list:
    return [_encode_int(x.numerator), _encode_int(x.denominator)]


def _encode_object(obj) -> dict:
    if isinstance(obj, CanonLine):
        return {
            "base": [_encode_frac(c) for c in obj.base],
            "dim": obj.dim,
            "direction": [_encode_int(c) for c in obj.direction],
            "type": "line",
        }
    if isinstance(obj, CanonPlane):
        return {
            "normal": [_encode_int(c) for c in obj.normal],
            "offset": _encode_frac(obj.offset),
            "type": "plane",
        }
    raise TypeError(f"unsupported witness object {type(obj).__name__}")


def _encode_assignment(witness: CoverWitness) -> dict:
    out = {}
    for item, index in witness.assignment.items():
        if witness.kind in EDGE_KINDS:
            u, v = item
            key = f"{u},{v}"
        else:
            key = str(int(item))
        out[key] = int(index)
    return out


def _canonical_json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def emit_certificate(cert: CertificateFile) -> bytes:
    """Serialize to canonical bytes (stable across emits)."""
    payload = {
        "version": cert.version,
        "graph": to_graph6(cert.graph).decode("ascii"),
        "drawing": [
            [_encode_frac(c) for c in point] for point in cert.drawing.points
        ],
        "witness": {
            "assignment": _encode_assignment(cert.witness),
            "exact": bool(cert.witness.exact),
            "kind": cert.witness.kind,
            "objects": [_encode_object(o) for o in cert.witness.objects],
        },
        "meta": cert.meta,
    }
    return _canonical_json(payload)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _decode_int(v) -> int:
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return int(v)
    raise ValueError(f"expected integer, got {type(v).__name__}")


def _decode_frac(v) -> Fraction:
    if not (isinstance(v, list) and len(v) == 2):
        raise ValueError(f"expected [numerator, denominator], got {v!r}")
    num, den = _decode_int(v[0]), _decode_int(v[1])
    if den == 0:
        raise ValueError("denominator must not be zero")
    return Fraction(num, den)


def _expect_keys(obj, keys: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object")
    if set(obj) != keys:
        raise ValueError(
            f"{what} keys must be exactly {sorted(keys)}, got {sorted(obj)}"
        )


def _decode_object(v) -> object:
    if not isinstance(v, dict) or "type" not in v:
        raise ValueError("witness object must be an object with a type")
    if v["type"] == "line":
        _expect_keys(v, {"base", "dim", "direction", "type"}, "line object")
        dim = v["dim"]
        if dim not in (2, 3):
            raise ValueError(f"line dimension must be 2 or 3, got {dim!r}")
        direction = tuple(_decode_int(c) for c in _expect_list(v["direction"], dim))
        base = tuple(_decode_frac(c) for c in _expect_list(v["base"], dim))
        obj = CanonLine(dim, direction, base)
    elif v["type"] == "plane":
        _expect_keys(v, {"normal", "offset", "type"}, "plane object")
        normal = tuple(_decode_int(c) for c in _expect_list(v["normal"], 3))
        obj = CanonPlane(normal, _decode_frac(v["offset"]))
    else:
        raise ValueError(f"unknown witness object type {v['type']!r}")
    if not is_canonical(obj):
        raise ValueError(f"witness {v['type']} is not in canonical form: {obj}")
    return obj


def _expect_list(v, length: int) -> list:
    if not (isinstance(v, list) and len(v) == length):
        raise ValueError(f"expected a list of length {length}, got {v!r}")
    return v


def _decode_assignment(v, kind: str, g: Graph, object_count: int) -> dict:
    if not isinstance(v, dict):
        raise ValueError("assignment must be an object")
    out = {}
    for key, index in v.items():
        if not isinstance(index, int) or not 0 <= index < object_count:
            raise ValueError(f"assignment value {index!r} is not an object index")
        if kind in EDGE_KINDS:
            parts = key.split(",")
            if len(parts) != 2:
                raise ValueError(f"edge key must be 'u,v', got {key!r}")
            u, w = int(parts[0]), int(parts[1])
            if not 0 <= u < w < g.n:
                raise ValueError(f"edge key {key!r} out of range or unordered")
            out[(u, w)] = index
        else:
            w = int(key)
            if not 0 <= w < g.n:
                raise ValueError(f"vertex key {key!r} out of range")
            out[w] = index
    return out


def _no_floats(s):
    raise ValueError(f"float literal {s!r}: certificates are exact")


def _decode(payload) -> CertificateFile:
    _expect_keys(
        payload, {"version", "graph", "drawing", "witness", "meta"}, "certificate"
    )
    if type(payload["version"]) is not int or payload["version"] != CERT_VERSION:
        raise ValueError(f"unsupported certificate version {payload['version']!r}")
    if not isinstance(payload["graph"], str):
        raise ValueError("graph must be a graph6 string")
    g = parse_graph(payload["graph"].encode("ascii"), "graph6")
    coords = payload["drawing"]
    if not (isinstance(coords, list) and len(coords) == g.n):
        raise ValueError(f"drawing must list {g.n} points")
    points = []
    for row in coords:
        if not (isinstance(row, list) and len(row) in (2, 3)):
            raise ValueError(f"point must have 2 or 3 coordinates, got {row!r}")
        points.append(tuple(_decode_frac(c) for c in row))
    drawing = Drawing(graph=g, points=tuple(points))

    w = payload["witness"]
    _expect_keys(w, {"assignment", "exact", "kind", "objects"}, "witness")
    if w["kind"] not in WITNESS_KINDS:
        raise ValueError(f"unknown witness kind {w['kind']!r}")
    if not isinstance(w["exact"], bool):
        raise ValueError("witness exact flag must be a boolean")
    if not isinstance(w["objects"], list):
        raise ValueError("witness objects must be a list")
    objects = tuple(_decode_object(o) for o in w["objects"])
    assignment = _decode_assignment(w["assignment"], w["kind"], g, len(objects))
    witness = CoverWitness(w["kind"], objects, assignment, exact=w["exact"])

    if not isinstance(payload["meta"], dict):
        raise ValueError("meta must be an object")
    return CertificateFile(drawing, witness, payload["meta"])


def parse_certificate(data: bytes) -> CertificateFile:
    """Parse certificate bytes, accepting them only if re-emitting the
    result reproduces them byte for byte: emit(parse(x)) == x."""
    try:
        payload = json.loads(data, parse_float=_no_floats, parse_constant=_no_floats)
        cert = _decode(payload)
        canonical = emit_certificate(cert) == data
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply") from None
    if not canonical:
        raise ValueError("certificate is not in canonical form")
    return cert


# ---------------------------------------------------------------------------
# files and verification
# ---------------------------------------------------------------------------


def write_certificate(cert: CertificateFile, path) -> None:
    with open(path, "wb") as fh:
        fh.write(emit_certificate(cert))


def load_certificate(path) -> CertificateFile:
    with open(path, "rb") as fh:
        return parse_certificate(fh.read())


def verify_certificate(cert: CertificateFile) -> Drawing:
    """Re-run every check from scratch; returns the verified drawing.

    Raises ``DrawingViolation`` or ``WitnessViolation`` on failure --
    nothing in the file is trusted.
    """
    verified = verify_crossing_free(cert.drawing)
    verify_cover_witness(verified, cert.witness)
    return verified
