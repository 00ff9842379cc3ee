"""specconsist benchmark: one closed-loop workload per invocation.

Usage, from the repository root:

    python3 benchmarks/run.py --workload desk_ec --seed 0 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
Inputs are generated from ``--seed`` into ``.bench_build/``. One client runs
units of the workload back to back (a closed loop) for ``--seconds``; every
job's output is checked. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics (an untraced half, a traced half, then
isolated layer timings at the workload's shape). Metric names and units come
from BENCHMARK.json. The last stdout line is the JSON result; the full record,
with the environment block, is written to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
MIN_UNITS = 3
WORKLOAD_NAMES = ("desk_ec", "gla_small", "compare_corpus", "analyze_long")


def _load_program():
    """Import specconsist from this checkout's src/, never from elsewhere."""
    if not (SRC / "specconsist" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {SRC / 'specconsist'} "
                         "is missing")
    sys.path.insert(0, str(SRC))
    import specconsist

    if Path(specconsist.__file__).resolve().parent != (SRC / "specconsist").resolve():
        raise SystemExit(f"error: imported specconsist from {specconsist.__file__}")


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_bytes() -> dict:
    out = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True,
                                  text=True, timeout=10)
            out[level] = int(proc.stdout)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            out[level] = None
    return out


def environment(args, wl) -> dict:
    import numpy
    import scipy

    from specconsist import consistency

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "fft_workers": getattr(consistency, "_FFT_WORKERS", None),
        "specconsist_threads": getattr(wl, "threads", None)
        or os.environ.get("SPECCONSIST_THREADS"),
        "git_sha": _git_sha(), "cache_bytes": _cache_bytes(),
        "inputs_sha256": wl.input_sha256,
    }


class Jobs:
    """Attempted and failed jobs; a job fails if it raises or fails its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors):
        self.attempted += len(errors)
        for err in errors:
            if err is not None:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(err)
                print(f"check failed: {err}", file=sys.stderr)


def run_unit(wl, jobs: Jobs, tracer=None) -> float | None:
    """One checked unit; returns its wall time, or None if it raised."""
    try:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            outputs = wl.run()
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        jobs.record(wl.check(outputs))
        return wall
    except Exception as exc:  # a failed job is counted, the benchmark goes on
        jobs.record([f"{type(exc).__name__}: {exc}"])
        return None


def measure(wl, seconds: float, jobs: Jobs, tracer=None) -> list[float]:
    """Units back to back until ``seconds`` have passed and MIN_UNITS ran."""
    walls, attempts = [], 0
    start = time.perf_counter()
    while attempts < MIN_UNITS or time.perf_counter() - start < seconds:
        attempts += 1
        wall = run_unit(wl, jobs, tracer)
        if wall is not None:
            walls.append(wall)
    if not walls:
        raise RuntimeError(f"no unit of {wl.__class__.__name__} completed")
    return walls


def setup_seconds(workload: str, workdir: Path, repeats: int) -> float:
    """Median set-up time over fresh processes, run one after another."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload,
             str(workdir)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def end_to_end(args, wl, workdir, sizes, jobs, walls) -> dict:
    setup = setup_seconds(args.workload, workdir, sizes.setup_repeats)
    if hasattr(wl, "reference"):
        wl.reference()
    run_unit(wl, jobs)  # warm-up
    walls.extend(measure(wl, args.seconds, jobs))
    wall = statistics.median(walls)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "iters_per_s": wl.iterations / wall,
        "audio_s_per_s": wl.audio_seconds / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(args, wl, workdir, jobs, walls) -> dict:
    from probes import layer_probes
    from tracing import Tracer, summarize
    from workloads import COMPARE_THREADS

    single_thread_s = None
    if hasattr(wl, "reference"):
        t0 = time.perf_counter()
        wl.reference()
        single_thread_s = time.perf_counter() - t0
    run_unit(wl, jobs)  # warm-up
    walls.extend(measure(wl, args.seconds / 2, jobs))
    untraced = statistics.median(walls)
    tracer = Tracer()
    traced = measure(wl, args.seconds / 2, jobs, tracer)
    out = summarize(tracer.spans, sum(traced), len(traced), COMPARE_THREADS)
    out["trace.overhead_ratio"] = statistics.median(traced) / untraced
    out["cli.thread_speedup"] = single_thread_s / untraced if single_thread_s else 0.0
    out.update(layer_probes(wl.probe(), args.seed, workdir))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced input sizes, for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _load_program()
    from workloads import FULL, QUICK, WORKLOADS

    sizes = QUICK if args.quick else FULL
    workdir = BUILD / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, sizes, workdir)
        jobs, walls = Jobs(), []
        if args.trace:
            values, group = per_layer(args, wl, workdir, jobs, walls), "per_layer"
        else:
            values = end_to_end(args, wl, workdir, sizes, jobs, walls)
            group = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec[group]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not "
                           f"match the {group} list of BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "environment": environment(args, wl),
        "failed_ratio": jobs.failed / jobs.attempted,
        "errors": jobs.errors,
        "untraced_unit_walls_s": walls,
        "metrics": metrics,
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(record["environment"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_ratio = {record['failed_ratio']:.6g} fraction")
    print(f"record -> {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": jobs.failed == 0, "attempted": jobs.attempted,
                      "failed": jobs.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
