"""The machine's current speed, read from a fixed reference loop.

On a shared 2-vCPU VM the same Python code ran up to 2.2x slower in some
stretches than in others, stretches that lasted from a second to
minutes.  CPU time slowed as much as wall time, so the cause is the core
itself (a neighbour on the same core or cache, or its clock), not time
stolen from the process.  At one moment the two vCPUs were often at
different speeds.

A pure-Python reference loop, timed between the jobs on the same CPU,
reads that speed.  The loop slows more than the workloads do: regressed
over the passes of 100-150 s runs, in which the loop's time ranged over
1.2-2.7 ms, log(pass time) rose by 0.61 (certify), 0.64 (draw) and 0.61
(bounds) per unit of log(loop time).  So a job that took ``t`` seconds
while the loop took ``r`` is reported as ``t * (NOMINAL_S / r) **
ELASTICITY``: its time on a machine that runs the loop in ``NOMINAL_S``.
The exponent is not a constant of the machine (in a later stretch
certify's was about 0.8), so scaled times keep some of the slowdown.

The loop uses only the standard library, never the program, so a change
to the program moves the job times and not ``r``.  Its ``Fraction``
arithmetic, small tuples, dict updates, sorting and ``json`` are the
kind of work the program does.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from time import perf_counter

#: The reference loop's time, in seconds, on the machine the times are
#: scaled to: about its median on a 2-vCPU Xeon VM with Python 3.11.
NOMINAL_S = 0.002
#: d log(job time) / d log(loop time), measured as in the module docstring.
ELASTICITY = 0.62

_POINTS = [(Fraction(i, 7), Fraction(3 * i + 1, 11), Fraction(i * i + 2, 13)) for i in range(24)]


def reference() -> int:
    """A fixed amount of work (about NOMINAL_S); its result is fixed too."""
    seen: dict = {}
    acc = Fraction(0)
    for i, (x, y, z) in enumerate(_POINTS):
        for u, v, w in _POINTS[i + 1 : i + 5]:
            d = (u - x) * (w - z) - (v - y) * (u + x)
            acc += d
            seen[(d.numerator % 97, d.denominator % 89)] = i
    keys = sorted(seen.items())
    rows = json.loads(json.dumps([[a, b, i] for (a, b), i in keys]))
    return len(rows) + len({r[0] for r in rows}) + acc.denominator % 7


def probe() -> float:
    """Seconds the reference loop takes now."""
    start = perf_counter()
    reference()
    return perf_counter() - start


def scale(seconds: float, loop_seconds: float) -> float:
    """``seconds`` measured while the loop took ``loop_seconds``, at nominal speed."""
    return seconds * (NOMINAL_S / loop_seconds) ** ELASTICITY


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the interpreters it starts, on the CPU it runs on now.

    The two vCPUs were often at different speeds at the same moment
    (reference loop 1.2 ms on one, 2.2 ms on the other), so a job must
    run on the CPU its probes ran on.  Returns that CPU, or None where
    affinity cannot be set.
    """
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return cpu
