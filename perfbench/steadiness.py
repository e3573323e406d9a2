#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/steadiness.py --workloads ratio-cold,scan-jobs --seeds 1-10

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)), min and max, the quartile
spread as a share of the median, and the metric's bound from
BENCHMARK.json. A spread under a third of the bound is marked steady.
--json writes the raw values and the summary to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="ratio-cold,scan-jobs")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    raw, summary = {}, {}
    for w in args.workloads.split(","):
        raw[w] = []
        for seed in seeds_of(args.seeds):
            t0 = time.time()
            report, res = run(w, seed, seconds, args.trace)
            took = time.time() - t0
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']} {report.get('problems')}")
            raw[w].append({"seed": seed, "result": res, "tail": report.get("tail")})
            print(f"{w} seed {seed} ({took:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        summary[w] = {}
        print(f"\n{w}  ({len(raw[w])} runs of {seconds} s)")
        print(f"  {'metric':<34} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11} {'spread':>8} {'bound':>6}")
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in raw[w]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds[name]
            flag = "" if b is None else ("steady" if spread < b / 3 else "WIDE")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "min": min(vals), "max": max(vals),
                                "spread": spread, "bound": b}
            bs = "" if b is None else f"{b:.2f}"
            print(f"  {name:<34} {med:>11.4g} {q1:>11.4g} {q3:>11.4g} {min(vals):>11.4g} {max(vals):>11.4g} {spread:>8.2%} {bs:>6} {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seconds": seconds, "raw": raw, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
