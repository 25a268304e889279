"""Self-test of the benchmark on tiny job lists.

    python3 perfbench/selftest.py

For every workload: an untraced and a traced run at ``--size tiny`` must
print every metric BENCHMARK.json declares, with its unit, and nothing
else; a run with ``--plant-wrong`` (one job's check inverted) must report
a higher failure ratio, which shows the checks can fail.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (entry["name"] for entry in bench["workloads"]):
        base = None
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(w, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if not all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
                problems.append(f"{w} trace={trace}: non-numeric metric value")
            if not res["correct"]:
                problems.append(f"{w} trace={trace}: unexpected failure")
            base = base or res
        planted = result(w, 0, "--plant-wrong")
        if planted["failed"] / planted["attempted"] <= base["failed"] / base["attempted"]:
            problems.append(f"{w}: a planted wrong verdict did not raise the failure ratio")
        if planted["correct"]:
            problems.append(f"{w}: a planted wrong verdict left the run correct")
        print(f"{w}: checked", file=sys.stderr)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
