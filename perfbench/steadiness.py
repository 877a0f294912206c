"""Steadiness report: two sets of runs of the same checkout, compared.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10]

Runs ``BENCHMARK.json``'s command ``--runs`` times per workload in each of
two sets, each run with its own seed (1, 2, ... across both sets),
interleaving workloads so that a change in the machine's load reaches all
of them. For every workload and end-to-end metric it prints each set's
median and quartiles, the spread (quartile distance over median), the gap
between the set medians (set 2 over set 1, minus 1), and whether both
spreads and the gap's absolute value are inside the metric's bound.
The bounds in ``BENCHMARK.json`` are set from these numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(bench: dict, workload: str, seed: int) -> dict:
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed items")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    results = {}  # (set, workload) -> [{metric: value}]
    for s in range(SETS):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in names:
                run = run_once(bench, w, seed)
                results.setdefault((s, w), []).append(run)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      + " ".join(f"{name}={value:.5g}" for name, value in run.items()),
                      flush=True)
    print(f"{'workload':<16}{'metric':<14}{'bound':>6}  {'set':<4}{'median':>11}"
          f"{'q1':>11}{'q3':>11}{'spread':>8}  {'gap':>7}  verdict")
    steady = True
    for w in names:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [summarise([r[name] for r in results[(s, w)]]) for s in range(SETS)]
            for s, (med, q1, q3, spread) in enumerate(sets):
                print(f"{w:<16}{name:<14}{bound:>6.3f}  {s + 1:<4}{med:>11.5g}{q1:>11.5g}"
                      f"{q3:>11.5g}{spread:>8.4f}", end="\n" if s + 1 < SETS else "")
            gap = (sets[1][0] - sets[0][0]) / sets[0][0]
            worst = max(spread for *_, spread in sets)
            if abs(gap) > bound or worst > bound:
                verdict = "OUTSIDE"
            elif worst > bound / 3:
                verdict = "within bound, spread above a third of it"
            else:
                verdict = "ok"
            print(f"  {gap:>7.4f}  {verdict}")
            steady = steady and verdict != "OUTSIDE"
    print("every spread and gap is within its bound" if steady
          else "not steady: a spread or a gap exceeds its bound")
    return 0 if steady else 1

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
