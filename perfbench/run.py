"""Retrieve-and-rerank benchmark for micerank: one workload, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-ce --seed 1 --seconds 15 --trace 0

The run generates its inputs from ``--seed``, builds the fixtures in a child
process, then repeats rounds of CLI commands for at least ``--seconds``
(and at least the workload's minimum item count), checks the outputs and
prints, as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
rounds untraced and then traced, and reports the per-layer metrics.
Everything it writes goes under ``.bench_work/``; all of it is removed at
exit except the span log of a traced run, ``spans-WORKLOAD-SEED.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread plus the CLI's --threads 1 keeps a run within two cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# A run stops starting rounds after this long, so it exits within 180 s.
MAX_SECONDS = 120.0
MB = 1 << 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_rounds(wl, boundary, run_command, seconds, min_items):
    rounds, items, t0 = [], 0, time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and items >= min_items) or elapsed >= MAX_SECONDS:
            return rounds
        r = wl.round(len(rounds), boundary, run_command)
        rounds.append(r)
        items += r.items
        if not r.ok:
            return rounds


def traced_pairs(wl, boundary, seconds):
    """Run each round twice, untraced and traced, in alternating order so that
    drift in the machine's speed reaches both. The first untraced round,
    round 0, only warms up and has no traced twin."""
    import spans
    import workloads
    from micerank import tensor

    tracer = spans.Tracer({text: qid for qid, text in workloads.read_jsonl(wl.queries)})
    untraced, traced = [], []

    def run_traced(k):
        patches = spans.Patches()
        tracer.install(patches)
        tensor.track_allocations(True)
        try:
            return wl.round(k, boundary, lambda argv: tracer.command(boundary, argv))
        finally:
            tracer.peak_alloc_bytes = max(tracer.peak_alloc_bytes,
                                          tensor.peak_allocated_bytes())
            tensor.track_allocations(False)
            patches.restore()

    def run_untraced(k):
        return wl.round(k, boundary, boundary.command)

    untraced.append(run_untraced(0))
    t0, k = time.perf_counter(), 1
    while True:
        elapsed = time.perf_counter() - t0
        done = elapsed >= seconds and sum(r.items for r in traced) >= wl.trace_items
        if done or elapsed >= MAX_SECONDS or not all(r.ok for r in untraced + traced):
            return untraced, traced, tracer
        for run in ((run_untraced, run_traced) if k % 2 else (run_traced, run_untraced)):
            (untraced if run is run_untraced else traced).append(run(k))
        k += 1


def end_to_end(rounds, peak_rss_mb, failed, attempted):
    # The central latency is the mean, not the median: where the host's speed
    # switches between two levels, the median of a run's items jumps between
    # them with the share of time spent at each (see README.md).
    import numpy as np

    # A run whose commands all failed has no latencies; report 0, not NaN,
    # so that the result stays valid JSON.
    latencies = np.array([x for r in rounds for x in r.latencies] or [0.0]) * 1e3
    busy = sum(r.wall - r.setup for r in rounds)
    return {
        "setup_s": (float(np.median([r.setup for r in rounds])), "s"),
        "item_ms_mean": (float(latencies.mean()), "ms"),
        "item_ms_p90": (float(np.percentile(latencies, 90)), "ms"),
        "items_per_s": (sum(r.items for r in rounds) / busy if busy > 0 else 0.0, "1/s"),
        "output_mb": (float(np.median([r.output_bytes for r in rounds])) / MB, "MB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }


def blas_info() -> dict:
    """BLAS library as numpy reports it, and the thread count it runs with."""
    import ctypes

    import numpy as np

    info = {"requested_threads": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "blas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["effective_threads"] = getattr(handle, symbol)()
                return info
    info["effective_threads"] = None
    return info


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=False).stdout.strip()

    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def manifest(args, wl, rounds) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **git_state(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "cli_threads": 1, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "precision": "f32",
        "rounds": len(rounds), "items": sum(r.items for r in rounds),
        "latency_samples": sum(len(r.latencies) for r in rounds),
        **wl.manifest(),
    }


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "micerank" / "__init__.py").is_file():
        print(f"error: the micerank sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(HERE / "fixtures.py"), args.workload,
                        str(args.seed), str(work)], check=True)
        return measure(args, workloads.WORKLOADS[args.workload](work, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl) -> int:
    import spans

    patches = spans.Patches()
    boundary = spans.Boundary(patches)
    if args.trace:
        untraced, rounds, tracer = traced_pairs(wl, boundary, args.seconds)
        patches.restore()
        items = sum(r.items for r in rounds)
        untraced_wall = sum(r.wall for r in untraced[1:])
        overhead = (sum(r.wall for r in rounds) / untraced_wall - 1.0 if untraced_wall
                    else 0.0)
        values = spans.per_layer_metrics(tracer, max(items, 1), overhead)
        metrics = {name: (values[name], unit) for name, unit, _ in spans.per_layer_schema()}
        print(f"== {wl.name}: traced pass, {len(rounds)} rounds, {items} items ==")
        print("\n".join(spans.report(tracer, items, wl.absent_spans)))
        log = ROOT / ".bench_work" / f"spans-{wl.name}-{args.seed}.jsonl"
        tracer.write(log)
        print(f"spans -> {log}")
        failed = wl.check(untraced[:1] + rounds) + sum(r.items for r in untraced[1:]
                                                        if not r.ok)
        attempted = items + sum(r.items for r in untraced)
    else:
        rounds = timed_rounds(wl, boundary, boundary.command, args.seconds, wl.min_items)
        patches.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = sum(r.items for r in rounds)
        failed = wl.check(rounds)
        metrics = end_to_end(rounds, peak_rss_mb, failed, attempted)
    print(f"== {wl.name}: {attempted} items attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}) ==")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40}{value:>16.6g} {unit}")
    print(json.dumps({"manifest": manifest(args, wl, rounds)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
