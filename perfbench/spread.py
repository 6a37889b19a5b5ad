#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed, and
reports every metric's median, quartiles and quartile spread (Q3 - Q1 over
the median) against the bound in BENCHMARK.json.

Run it from the repository root:

    python3 perfbench/spread.py --runs 10 --workloads fleet-tree serve-wal
    python3 perfbench/spread.py --runs 2 --trace 1 --out layers.json

With --out it also writes the medians and quartiles as JSON, the form
perfbench/baseline.json keeps.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {res}")
    host = [l for l in lines if l.startswith("# host ")]
    return res, wall, host[0][7:] if host else ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    defs = bench["per_layer"] if a.trace else bench["end_to_end"]
    bounds = {d["name"]: d.get("bound") for d in defs}
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    summary = {"host": "", "trace": a.trace, "runs": a.runs,
               "seeds": list(range(a.first_seed, a.first_seed + a.runs)), "workloads": {}}
    ok = True
    for w in names:
        values = {}
        walls = []
        for i in range(a.runs):
            seed = a.first_seed + i
            res, wall, host = run_once(bench["command"], w, seed, bench["run_seconds"], a.trace)
            summary["host"] = host
            walls.append(wall)
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr)
        print(f"\n{w}: {a.runs} runs, wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        rows = {}
        for k in sorted(values):
            v = values[k]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / abs(med) if med else float("inf")
            b = bounds.get(k)
            flag = ""
            if b is not None and k != "setup_s" and spread > b / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            unit = res["metrics"][k]["unit"]
            print(f"  {k:34s} median {med:14.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.4f} bound {b}{flag}")
            rows[k] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread}
        summary["workloads"][w] = {"wall_s_median": statistics.median(walls), "metrics": rows}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
