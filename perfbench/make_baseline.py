#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report its spread.

    python3 perfbench/make_baseline.py                       # 10 seeds x every workload
    python3 perfbench/make_baseline.py --workloads sparse-3d --count 5
    python3 perfbench/make_baseline.py --write               # also rewrite baseline.json

For each end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median, next
to the metric's bound in ``BENCHMARK.json``.  With ``--write`` it stores the
runs, those statistics and one traced run per workload in ``baseline.json``.
Runs are made one after another, never in parallel.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
TRACE_SEED = 7


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    return {"result": result, "saved": saved}


def spread(values) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / mid}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--first-seed", type=int, default=31)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--write", action="store_true", help="rewrite baseline.json with these runs")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {
        "note": f"{args.count} --trace 0 runs per workload (seeds {args.first_seed}-{args.first_seed + args.count - 1}, "
        f"--seconds {seconds}) and one --trace 1 run (seed {TRACE_SEED}), made with make_baseline.py.",
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.count):
            r = run(workload, seed, seconds, 0)
            saved = r["saved"]
            runs.append({
                "seed": seed,
                **{name: m["value"] for name, m in r["result"]["metrics"].items()},
                "passes": saved["passes"],
                "setup_samples": saved["setup_samples"],
                "attempted": r["result"]["attempted"],
                "failed": r["result"]["failed"],
                "loadavg_start": saved["env"]["loadavg_start"][0],
                "loadavg_end": saved["env"]["loadavg_end"][0],
            })
            print(f"{workload} seed {seed}: " + ", ".join(f"{n} {runs[-1][n]:.4g}" for n in bounds), flush=True)
        stats = {name: spread([r[name] for r in runs]) for name in bounds}
        for name, s in stats.items():
            print(f"{workload} {name}: median {s['median']:.4g}, spread {s['iqr_over_median']:.3f} "
                  f"(bound {bounds[name]}, a third of it {bounds[name] / 3:.3f})", flush=True)
        entry = {"env": {k: v for k, v in saved["env"].items() if not k.startswith("loadavg")},
                 "end_to_end": stats, "runs": runs}
        if args.write:
            traced = run(workload, TRACE_SEED, seconds, 1)
            entry[f"per_layer_seed{TRACE_SEED}"] = {
                name: m["value"] for name, m in traced["result"]["metrics"].items()
            }
        baseline["workloads"][workload] = entry
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
