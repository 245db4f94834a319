"""Run one benchmark workload and print its result as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload session-pages --seed 0 --seconds 24 --trace 0

The program under test is the source tree in ``src/``, imported in
place; no build step.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
run's context (host CPU count, Python version, source revision, seed,
the workload's rationale, sample counts and any failures); the same
record and the Chrome trace of a traced run are written under
``.perfbench/`` in the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up repeats at least this often, and until this many wall seconds
#: (reference samples included) are spent on it, so cheap set-ups get
#: more repeats; ``setup_s`` is the median
SETUP_REPS = 3
SETUP_SECONDS = 2.0


def _import_program():
    """Put ``src/`` first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program source at %s" % SRC)
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported repro from %s, not %s" % (repro.__file__, SRC))


def _revision():
    """The git sha of the checkout, else a digest of the source tree."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_e2e(workload, seconds, outcome):
    setups = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_REPS or time.perf_counter() < deadline:
        workload.close()
        workload.clock.mark()
        raw = _timed(workload.setup)
        setups.append(raw * workload.clock.factor())
    workload.measure(seconds, outcome)
    outcome.metrics["setup_s"] = statistics.median(setups)
    outcome.metrics["peak_rss_mb"] = workload.peak_rss_mb()
    outcome.samples["setup_s"] = len(setups)
    outcome.info["host_reference_s"] = workload.clock.reference_s()


def measure_layers(workload, outcome, trace_path):
    """Untraced unit, traced unit, then the naive-config comparison."""
    from layers import Recorder

    from workloads import Outcome

    workload.setup()  # warm the process so the two units start alike
    workload.prepare_unit()
    untraced = _timed(lambda: workload.unit(Outcome()))
    workload.prepare_unit()
    start = time.perf_counter()
    extras, layers = workload.traced_unit(outcome, Recorder(), trace_path)
    traced = time.perf_counter() - start
    outcome.metrics.update(layers)
    outcome.metrics.update(extras)
    outcome.metrics["features.accel_speedup"] = workload.accel_speedup()
    outcome.metrics["trace.wall_s"] = traced
    outcome.metrics["trace_overhead_pct"] = 100.0 * (traced - untraced) / untraced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, Outcome

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (known: %s)" % (args.workload, ", ".join(WORKLOADS)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(ROOT, ".perfbench")
    stem = os.path.join(out_dir, "%s-seed%d%s" % (args.workload, args.seed, "-trace" if args.trace else ""))
    scratch = os.path.join(out_dir, "tmp-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    outcome = Outcome()
    workload = WORKLOADS[args.workload](args.seed, scratch)
    try:
        if args.trace:
            measure_layers(workload, outcome, stem + ".trace.json")
        else:
            measure_e2e(workload, args.seconds, outcome)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {
        m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
        for m in wanted
        if m["name"] in outcome.metrics
    }
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "revision": _revision(),
        "samples": outcome.samples,
        "absent": sorted(m["name"] for m in wanted if m["name"] not in metrics),
        "failures": outcome.failures[:20],
        "info": outcome.info,
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
