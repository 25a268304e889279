"""The benchmark tracer's function names exist in the program.

``perfbench/spans.py`` wraps program functions by name: ``SPANNED``
per ``affinecover`` module and ``COUNTED`` in ``affinecover.geometry``.
A traced benchmark run fails on a name the program no longer defines,
so deleting or renaming one must update the tracer too.  The tracer
imports only the standard library and is loaded here by path.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    spans = load_spans()
    traced = [(mod, name) for mod, names in spans.SPANNED.items() for name in names]
    traced += [("geometry", name) for name in spans.COUNTED]
    missing = [
        f"affinecover.{mod}.{name}"
        for mod, name in traced
        if not callable(getattr(importlib.import_module(f"affinecover.{mod}"), name, None))
    ]
    assert traced
    assert missing == []
