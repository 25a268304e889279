"""Pinned outputs of the drawing measurements.

The sha256 of the ``repr`` of ``edge_line_count``,
``segment_slope_count`` (2D), ``min_vertex_line_cover`` and
``min_edge_plane_cover`` (3D) on a fixed set of drawings.  The repr
holds the count, every canonical object in order and the assignment in
insertion order, so a change in how lines and planes are grouped or
ordered shows here even when the counts agree.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from affinecover.constructions import (
    binary_tree_grid,
    kn_small_plane_cover,
    kpq_plane_book,
    moment_curve_kn,
    nested_squares_two_lines,
    pi13_drawing,
)
from affinecover.drawing import (
    Drawing,
    edge_line_count,
    min_edge_plane_cover,
    min_vertex_line_cover,
    segment_slope_count,
    verify_crossing_free,
)
from affinecover.geometry import integerize
from affinecover.graphs import Graph


def _gnp(seed: int, n: int, p: float) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _affine(d: Drawing, rows: tuple, shift: tuple) -> Drawing:
    """Image of a drawing under the invertible rational map x -> A x + b:
    every incidence survives, and the coordinates are not integers."""
    pts = [
        tuple(sum(Fraction(a) * c for a, c in zip(row, p)) + Fraction(s) for row, s in zip(rows, shift))
        for p in d.points
    ]
    return verify_crossing_free(Drawing(d.graph, *integerize(pts)))


def _rational_2d() -> Drawing:
    d = nested_squares_two_lines(4).drawing
    return _affine(d, (("2/3", "1/5"), ("-1/7", "3/2")), ("1/5", "-13/7"))


def _rational_3d() -> Drawing:
    d = kpq_plane_book(3, 4).drawing
    return _affine(d, (("1/2", 0, "1/3"), (0, "-5/3", 1), ("2/7", 1, 0)), ("-1/3", "7/2", "-4/5"))


DRAWINGS = {
    **{f"K{n} planes": (lambda n=n: kn_small_plane_cover(n).drawing) for n in range(4, 9)},
    **{
        f"book K{p},{q}": (lambda p=p, q=q: kpq_plane_book(p, q).drawing)
        for p, q in ((2, 5), (3, 4), (3, 6), (4, 6), (5, 6), (5, 8))
    },
    **{f"moment K{n}": (lambda n=n: moment_curve_kn(n).drawing) for n in range(4, 15)},
    **{
        f"pi13 G({n},{p}) #{s}": (lambda s=s, n=n, p=p: pi13_drawing(_gnp(s, n, p)).drawing)
        for s, n, p in ((1, 8, 0.3), (2, 9, 0.5), (3, 10, 0.2), (4, 11, 0.35), (5, 12, 0.25), (6, 7, 0.8))
    },
    "binary_tree_grid(6)": lambda: binary_tree_grid(6).drawing,
    "nested_squares_two_lines(16)": lambda: nested_squares_two_lines(16).drawing,
    "rational 2D": _rational_2d,
    "rational 3D": _rational_3d,
}


#: The exact plane cover of a moment curve is a hard set cover: from
#: K10 up the search can end at its node cap, so above K9 its greedy
#: path is pinned.
PLANE_BUDGET = {f"moment K{n}": 0 for n in range(10, 15)}


def measurements(d: Drawing, plane_budget: int = 60) -> tuple:
    out = [edge_line_count(d), min_vertex_line_cover(d)]
    out.append(segment_slope_count(d) if d.dim == 2 else min_edge_plane_cover(d, plane_budget))
    return tuple(out)


#: sha256 of ``repr(measurements(d, PLANE_BUDGET.get(name, 60)))`` per drawing.
PINS = {
    "K4 planes": "f8785bbfca2e8f967a5fae0edcd62695f5875654938bf322f4d1e4626f4eb48f",
    "K5 planes": "d1c3ad07d36e160ab72a6892c96681dd4557f0c1ae58fcdb3f846421c79afd4e",
    "K6 planes": "55bb5f0e0e4b26864e067dd84a206a87b6d8db6e5951477868ed1276ac1e449b",
    "K7 planes": "f370ce8d28907fb2d187588b4ff4cf22081d961fb1923c513dda6e645f27d1ee",
    "K8 planes": "775223cfd6fc214800c4da8576e778f80bc29edf85facb35a4c541e8e22b2863",
    "book K2,5": "82a65cba63454a84c096f9aea9bdb6bd9002b4781016878b52a0ee47b3eb0542",
    "book K3,4": "af8e725f097265811bff6641fe3f38cfe7e500b4a4fc1b84f3fb45d0d325342c",
    "book K3,6": "de44b248cfdb9276b49ea36d9a923f5aac49e8ae3b693cbed3e6f30b6b217396",
    "book K4,6": "8c50545e54a35225a7997577ebf55832b6021e6d38a68d10f4522f26c792b5e3",
    "book K5,6": "6fc8d78184a5de686329d23ec540c667a3cfa4e0569cba01576394dc48017b09",
    "book K5,8": "3eaad93fd07f52aae968c2a23e7001dc5089eb226895f35f7e5563ff1adaf4ef",
    "moment K4": "fc5d61ad3fcc753cb80b2914585f7806fd774616257e4d7f2e08242e840954b3",
    "moment K5": "f102ee97521446b09a87952f3f428f06351540854292f998146ed2fe989b2017",
    "moment K6": "a0537d8b9cbf7b3df482d6c16b6eff5d20ec6999e6d2449bf9474dcb0a61417b",
    "moment K7": "7c21639f6913cc06bf325409123cab24720be449b84fd284cefdabfc6a3032aa",
    "moment K8": "2dfa572337edace90460096475563b39613133cb56cd3728ffb2b1b35268ced5",
    "moment K9": "223b71c3be8f15eed8b20f3c60a72675c217d4e51663525bc5b20c86e493b7ff",
    "moment K10": "677c8388fa796f0cc35b0bf24ffc659b892d80fe76439fb24e3eeff73963c428",
    "moment K11": "99547a515ff1fb46cf16b0e7478ddcfa4b077149661177780a7e3f2c7b17ec26",
    "moment K12": "b228587c893bb47ae40d3f88af3f45eb40822bb7a4561132e4e0e07d1b13792f",
    "moment K13": "76722f333c8ee88e0dc30cc001deaf3489309af169e6cf2aef65d69c30a3edd5",
    "moment K14": "740e670957ce89b268cbf8231b2f0cf47205dc2dfa38e9e8941db6bd5328e121",
    "pi13 G(8,0.3) #1": "ce08e29fed5e3fb9ced21eef1c84a2ce40ad89ae154b3f4878d3a92e44c888c0",
    "pi13 G(9,0.5) #2": "06d92b8cc7a97d2473754f555942a4f48d0d3566ce61e057c460aba58c65c245",
    "pi13 G(10,0.2) #3": "b080a19ecb718bf94cf7bcac6cd759b2cc15886b2092af0f15c7431e71398746",
    "pi13 G(11,0.35) #4": "2843625b13870558ddc20410fbf77d29732b9777d70e0f0cd3426afd9aa62e67",
    "pi13 G(12,0.25) #5": "ff85cd1e8571426c44fc22eb5b8b07db9f3776b64e9026938cbea1d8cda3da72",
    "pi13 G(7,0.8) #6": "df1b645c6166ffd93bec72ba25407c832edf153959ca9b2b02684ffdcac589fb",
    "binary_tree_grid(6)": "36c87d1a17dc5c53db773d20bb3bbbde280241a93e10b7f30af6a7af991b422e",
    "nested_squares_two_lines(16)": "8c4d685f89d43da158858e93b3fb03ac485facd20748b84e370d174bab80641f",
    "rational 2D": "38c434cf0fe7cf9905c6f6b643b3db7e9612eb33aae09216d3c40e4e004ce68d",
    "rational 3D": "ef075eb4dbf8b0868cca7e2e92516a9d109da9e177b072f3451b69236c696283",
}


@pytest.mark.parametrize("name", list(DRAWINGS))
def test_measurements_pinned(name):
    d = DRAWINGS[name]()
    out = measurements(d, PLANE_BUDGET.get(name, 60))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == PINS[name]


def test_pins_cover_every_drawing():
    assert set(PINS) == set(DRAWINGS)
