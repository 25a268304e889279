"""Set-up cost measured from outside, in fresh interpreters.

``setup_s`` is the time from starting a new ``python3`` until
``import affinecover.cli`` has returned, which every command-line call
pays.  The import breakdown comes from ``-X importtime``, so the program
needs no timing code of its own.

Start-up is import work (stat, read, unmarshal, module bodies), which
slows less than the reference loop of speed.py when the machine does:
in slow stretches that loop took 1.8x as long, a fresh import of the
program 1.3x.  So each sample is scaled instead by a fresh interpreter
that imports a fixed set of standard-library modules, timed just before
and just after it.  Over stretches whose raw samples differed by 36%,
the scaled medians differed by 11%.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

IMPORT = ["-c", "import affinecover.cli"]
#: Standard-library import work, independent of the program.
REFERENCE = [
    "-c",
    "import argparse, asyncio, ast, csv, dataclasses, decimal, email.parser, fractions,"
    " http.client, inspect, json, logging, pathlib, sqlite3, statistics, tomllib, typing,"
    " unittest, xml.etree.ElementTree, zipfile",
]
#: The reference import's time, in seconds, on the machine set-up times
#: are scaled to: about its median on a 2-vCPU Xeon VM with Python 3.11.
REFERENCE_NOMINAL_S = 0.15


def _env(root: Path) -> dict:
    paths = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def fresh_import(root: Path, *flags: str, code: list = IMPORT) -> subprocess.CompletedProcess:
    """``import affinecover.cli`` (or ``code``) in a new interpreter; waits for it to end."""
    return subprocess.run(
        [sys.executable, *flags, *code],
        cwd=root,
        env=_env(root),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


def _seconds(root: Path, code: list) -> float:
    start = perf_counter()
    fresh_import(root, code=code)
    return perf_counter() - start


def setup_seconds(root: Path) -> float:
    """One fresh interpreter from start to import done, scaled by the reference import."""
    before = _seconds(root, REFERENCE)
    seconds = _seconds(root, IMPORT)
    return seconds * REFERENCE_NOMINAL_S * 2 / (before + _seconds(root, REFERENCE))


def _cumulative_us(stderr: str, module: str) -> int:
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1])
    raise ValueError(f"{module} missing from -X importtime output")


def import_breakdown(root: Path, samples: int) -> dict:
    """Median cumulative import time of ``affinecover.cli`` and of ``networkx``."""
    fresh_import(root)  # fills the bytecode cache
    cli, nx = [], []
    for _ in range(samples):
        err = fresh_import(root, "-X", "importtime").stderr
        cli.append(_cumulative_us(err, "affinecover.cli") / 1e6)
        nx.append(_cumulative_us(err, "networkx") / 1e6)
    return {"cli.import_s": statistics.median(cli), "cli.import_networkx_s": statistics.median(nx)}
