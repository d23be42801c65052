#!/usr/bin/env python3
"""Run bench/run.py repeatedly and print each metric's median and quartiles.

    python3 bench/repeat.py --runs 10 --first-seed 100 --seconds 10 \
        [--workload commands ...]

Each run measures the end-to-end metrics (``--trace 0``) with its own
seed (first-seed, first-seed + 1, ...). For every workload and metric
the table gives the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json; a
metric whose spread is above its bound cannot be judged at that bound.
The share of failed operations is printed per run set, so a workload
whose failures vary from run to run shows it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    status = 0
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            results.append(result)
            print(f"{workload} seed {seed}: {took:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", file=sys.stderr, flush=True)
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, failed share {shares}")
        print(f"{'metric':<36}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            flag = " !" if spread > bounds[name] else ""
            print(f"{name:<36}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{bounds[name]:>7}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
