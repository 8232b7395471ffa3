#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints every metric.

    python3 e2ebench/summarize.py [--workloads batch,interactive]
        [--seeds 10] [--trace 0|1] [--seconds S]

Runs seeds 1..N. Each run is `run.py --workload W --seed N --seconds S --trace T` (S defaults
to BENCHMARK.json's run_seconds). For every workload and metric it prints
the metric's name and unit, n, the median, the quartiles, the highest
nearest-rank percentile with at least ten samples beyond it (none below
n = 11), and the spread: the interquartile range as a share of the median,
next to the metric's bound from BENCHMARK.json, flagged when over it.
Every ratio is printed with its base. Exits 1 when a run fails or reports
correct = false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer ratios and the figure each one divides by.
RATIO_BASES = {
    "index.load_mb_s": "index.load_s",
    "common.crc32_mb_s": "index.load_mb_s",
    "core.ns_per_hit": "core.hits",
    "core.ns_per_sorted_record": "core.hit_pairs",
    "core.ns_per_ungapped_ext": "core.extensions",
    "core.us_per_gapped_ext": "core.gapped_extensions",
    "core.prefilter_survival": "core.hits",
    "core.ungapped_yield": "core.extensions",
    "core.thread_s_inflation": "summed stage s at 1 thread",
    "cluster.shard_overhead": "single-index search_batch, same queries",
    "cluster.chain_overhead": "compacted single-index search, same queries",
    "trace.overhead": "median untraced CLI pass wall",
    "simd.int16_rerun_frac": "banded gapped halves",
    "simd.scalar_fallback_frac": "banded gapped halves",
    "simd.hit_tail_frac": "core.hits (posting entries scanned)",
}


def top_percentile(values):
    """Highest nearest-rank percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    pct = int(100 * (n - 10) / n)
    ordered = sorted(values)
    return pct, ordered[max(1, -(-pct * n // 100)) - 1]


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    header = next((json.loads(l[7:]) for l in lines
                   if l.startswith("header ")), {})
    return {"workload": workload, "seed": seed, "trace": trace,
            "header": header, "result": json.loads(lines[-1])}


def summarize(runs, bench):
    bounds = {m["name"]: m for m in bench.get("end_to_end", [])}
    ok = True
    for workload in sorted({r["workload"] for r in runs}):
        rs = [r for r in runs if r["workload"] == workload]
        bad = [r["seed"] for r in rs if not r["result"]["correct"]]
        attempted = sum(r["result"]["attempted"] for r in rs)
        failed = sum(r["result"]["failed"] for r in rs)
        ok = ok and not bad
        print(f"\n== {workload}: {len(rs)} runs, error_rate "
              f"{failed / max(1, attempted):.4g} ({failed} failed of "
              f"{attempted} attempted){', incorrect seeds ' + str(bad) if bad else ''}")
        h = rs[0]["header"]
        print(f"   nproc {h.get('nproc')}, kernel {h.get('kernel')}, build "
              f"{h.get('build_type')}, L3 {h.get('l3_bytes')} B, index "
              f"{h.get('index_bytes')} B = {h.get('index_over_l3') or 0:.3f}"
              " x L3 (base: L3 bytes)")
        print(f"   {'metric':34} {'unit':7} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'top pct':>16} {'IQR/median':>11}"
              f" {'bound':>6}")
        names = sorted(rs[0]["result"]["metrics"])
        for name in names:
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            unit = rs[0]["result"]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            pct, top = top_percentile(vals)
            top_s = f"p{pct}={top:.6g}" if pct else "-"
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = " OVER BOUND"
            bound_s = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"   {name:34} {unit:7} {len(vals):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {top_s:>16} {spread:11.4f}"
                  f" {bound_s}{flag}")
            if name in RATIO_BASES:
                print(f"   {'':34} base: {RATIO_BASES[name]}")
        print("   (IQR/median: base = the median of the same row)")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            run = run_one(workload, seed, seconds, args.trace)
            runs.append(run)
            print(f"[summarize] {workload} seed {seed}: "
                  f"{run['header'].get('run_s', 0):.1f}s",
                  file=sys.stderr, flush=True)
    sys.exit(0 if summarize(runs, bench) else 1)


if __name__ == "__main__":
    main()
