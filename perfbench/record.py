#!/usr/bin/env python3
"""Run every workload in BENCHMARK.json over several seeds and record the numbers.

Run from the repository root:

    python3 perfbench/record.py --out perfbench/baseline.json

For each workload it makes one untraced run per seed (end-to-end metrics)
and one traced run with the first seed (per-layer metrics), then writes
the medians, quartiles and spreads (quartile distance over median) with
the host, CPU count and toolchain. Modeled device numbers are labelled
"simulated Titan V, unvalidated"; byte counts are labelled "computed".
Exits non-zero if any run fails or reports a wrong output.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODELED = "simulated Titan V, unvalidated"
COMPUTED = "computed by the device model"


def label(name, unit):
    if unit == "sim_ms":
        return MODELED
    if name in ("gpu-sim.dram_mb", "ntt-gpu.link_mb"):
        return COMPUTED
    if name.startswith("gpu-sim.") or name.startswith("ntt-gpu."):
        return "counted by the device model" if unit in ("count", "ratio") else "measured"
    return "measured"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            return next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or "unknown"


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}\n{p.stdout}{p.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: wrong output\n{p.stdout}")
    print(f"{workload} seed={seed} trace={trace} wall={wall:.1f}s attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr, flush=True)
    return result, lines[:-1]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"host": platform.node(), "cpu": cpu_model(), "nproc": os.cpu_count(),
           "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for w in names:
        e2e, attempted, failed = {}, 0, 0
        for s in seeds:
            r, _ = run(bench, w, s, 0)
            attempted += r["attempted"]
            failed += r["failed"]
            for k, v in r["metrics"].items():
                e2e.setdefault(k, []).append(v["value"])
        traced, text = run(bench, w, seeds[0], 1)
        env = next((l for l in text if l.startswith("env ")), "")
        out["rustc"] = env.split('rustc="')[-1].rstrip('"') if 'rustc="' in env else "unknown"
        rec = {"env": env, "attempted": attempted, "failed": failed, "end_to_end": {}, "per_layer": {}}
        for k, vals in e2e.items():
            rec["end_to_end"][k] = dict(summary(vals), unit=units[k], source=label(k, units[k]))
            spread = rec["end_to_end"][k]["spread"]
            note = ""
            if k != "setup_s" and spread is not None and spread > bounds[k] / 3:
                steady = False
                note = f"  above a third of its bound {bounds[k]}"
            print(f"{w} {k}: median={rec['end_to_end'][k]['median']:.6g} spread={spread:.4f}{note}")
        for k, v in traced["metrics"].items():
            rec["per_layer"][k] = {"value": v["value"], "unit": v["unit"], "source": label(k, v["unit"])}
        out["workloads"][w] = rec
    if args.out:
        with open(os.path.join(ROOT, args.out), "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")


if __name__ == "__main__":
    main()
