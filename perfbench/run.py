"""affinecover benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
The job list (see workloads.py and README.md) runs back to back in a
closed loop, pass after pass, until ``--seconds`` have gone by.  Every
output of every pass is checked.  The reference loop of speed.py runs
between the jobs; each job's time is scaled by it to a nominal machine
speed, and a job's time is the median of its scaled passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the
tracing overhead and the import breakdown; the spans go to
``.bench_out/``.  The last line of standard output is the result
object; the line before it is the run record (seed, input hash,
machine).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
TINY_JOBS = 24
PROBE_WINDOW = 10


class Crash:
    """Output of a job that raised: always a failed job."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Crash({self.text})"


def load_program() -> None:
    src = ROOT / "src"
    if not (src / "affinecover" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure under {src}")
    sys.path.insert(0, str(src))
    import affinecover

    if Path(affinecover.__file__).resolve().parent != (src / "affinecover").resolve():
        raise SystemExit(f"error: imported affinecover from {affinecover.__file__}, not {src}")


def run_pass(jobs: list, tracer=None) -> tuple:
    """Run every job once; returns (raw wall seconds, scaled per-job seconds, outputs, median probe).

    The garbage left by the jobs before is collected, untimed, before
    each job, so a job pays for the collections its own allocations
    cause and not for its neighbours'.  A reference probe runs before
    each job and after the last.  A job's time is scaled by the median
    of the PROBE_WINDOW probes around it, which follows the machine's
    slow stretches without the noise of a single 2 ms probe.
    """
    durations, probes, outputs = [], [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        gc.collect()
        probes.append(speed.probe())
        start = perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # a crash is a result to count, not a reason to stop
            out = Crash(exc)
        durations.append(perf_counter() - start)
        outputs.append(out)
    probes.append(speed.probe())
    half = PROBE_WINDOW // 2
    scaled = [
        speed.scale(t, statistics.median(probes[max(0, i + 1 - half) : i + 1 + half]))
        for i, t in enumerate(durations)
    ]
    return sum(durations), scaled, outputs, statistics.median(probes)


class Tally:
    """Checks outputs against the oracles and counts failures."""

    def __init__(self, jobs: list):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reported: set = set()

    def check(self, outputs: list) -> None:
        for i, (job, out) in enumerate(zip(self.jobs, outputs)):
            self.attempted += 1
            try:
                ok = not isinstance(out, Crash) and job.check(out)
            except Exception as exc:  # a wrong-shaped output fails its check
                ok, out = False, Crash(exc)
            if ok:
                continue
            self.failed += 1
            self.unexpected += not job.known_defect
            if i not in self.reported:
                self.reported.add(i)
                tag = "known defect" if job.known_defect else "FAILED"
                print(f"{tag}: {job.name}: {str(out)[:200]}", file=sys.stderr)


def per_job(passes: list) -> list:
    """Each job's median scaled time over the passes.

    Scaling takes out the machine's slow stretches (see speed.py); the
    median then drops the passes a job was interrupted in, and first
    calls (lazy imports, caches) count as one pass of many.
    """
    return [statistics.median(times) for times in zip(*(durations for _, durations in passes))]


def percentile(values: list, q: int) -> float:
    """The q-th percentile, q in 1..99, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import networkx

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "bounds", "draw"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the first jobs only, for the self-test")
    ap.add_argument("--plant-wrong", action="store_true", help="self-test: invert one job's check")
    args = ap.parse_args(argv)

    load_program()
    record = {"workload": args.workload, "seed": args.seed, **machine_record(), "cpu": speed.pin_to_one_cpu()}
    metrics = {}
    import spans
    import startup
    import workloads

    if args.trace:
        metrics.update(startup.import_breakdown(ROOT, IMPORT_SAMPLES))
    else:
        startup.fresh_import(ROOT)  # fills the bytecode cache

    jobs = workloads.BUILDERS[args.workload](args.seed)
    if args.size == "tiny":
        jobs = jobs[:TINY_JOBS]
    if args.plant_wrong:
        planted = next(job for job in jobs if not job.known_defect)
        original = planted.check
        planted.check = lambda out: not original(out)
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(job.pin.encode() + b"\0")
    record["inputs_sha256"] = digest.hexdigest()
    record["jobs_per_pass"] = len(jobs)

    tally = Tally(jobs)
    plain, traced, setup, probes = [], [], [], []
    tracer = spans.Tracer()
    # What exists now (the program, the inputs) is never garbage; frozen,
    # it costs the per-job collections nothing.
    gc.collect()
    gc.freeze()
    begin = perf_counter()
    while True:
        elapsed = (perf_counter() - begin) / args.seconds
        if not args.trace and len(setup) < 1 + SETUP_SAMPLES * elapsed:
            # Spread over the run, set-up samples see the machine as the passes do.
            setup.append(startup.setup_seconds(ROOT))
        wall, durations, outputs, probe = run_pass(jobs)
        tally.check(outputs)
        plain.append((wall, durations))
        probes.append(probe)
        if args.trace:
            tracer.install()
            try:
                wall, durations, outputs, _ = run_pass(jobs, tracer)
            finally:
                tracer.uninstall()
            tally.check(outputs)
            traced.append((wall, durations))
        if perf_counter() - begin >= args.seconds:
            break

    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(startup.setup_seconds(ROOT))
    walls = [w for w, _ in plain]
    times = per_job(plain)
    record.update(
        passes=len(plain),
        traced_passes=len(traced),
        jobs_timed=len(times),
        attempted=tally.attempted,
        failed=tally.failed,
        fail_ratio=tally.failed / tally.attempted,
        known_defect_failed=tally.failed - tally.unexpected,
        pass_wall_s=walls,
        pass_probe_s=probes,
        nominal_probe_s=speed.NOMINAL_S,
    )
    if setup:
        record["setup_s_samples"] = setup
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(span_file)
        record["span_file"] = str(span_file.relative_to(ROOT))
        layers = spans.layer_metrics(tracer, len(traced))
        # Per-layer numbers are means over traced passes.  Each traced pass
        # follows an untraced one, so the overhead is the median pair gap.
        layers["trace.wall_s"] = statistics.mean(w for w, _ in traced)
        layers["trace.overhead_s"] = statistics.median(t - u for (t, _), u in zip(traced, walls))
        metrics.update(layers)
        report = layers.get("bounds.bound_report_s") or 0.0
        record["layer_split"] = {
            "solvers_share_of_bound_report": layers["solvers.total_s"] / report if report else None,
            "verify_share_of_bound_report": layers["drawing.verify_crossing_free_s"] / report if report else None,
            "verify_plus_parse_share_of_wall": (
                layers["drawing.verify_crossing_free_s"] + layers["certio.parse_s"]
            ) / layers["trace.wall_s"],
        }
    else:
        metrics.update(
            setup_s=statistics.median(setup),
            wall_s=sum(times),
            job_p50_ms=statistics.median(times) * 1e3,
            job_p90_ms=percentile(times, 90) * 1e3,
            ok_ratio=1 - tally.failed / tally.attempted,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
