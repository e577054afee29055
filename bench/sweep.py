"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --workloads query gb resolve --seeds 1-10
    python3 bench/sweep.py --workloads gb --seeds 1001-1005 --trace 1

Each (seed, workload) is one `bench/run.py` process of `run_seconds` from
BENCHMARK.json, run one after another, seeds in the outer loop. For every
metric the summary gives the median, the quartiles from
`statistics.quantiles(values, n=4)` and the quartile spread
(q3 - q1) / median, next to the bound from BENCHMARK.json. Raw results,
with each untraced run's output digest, go to `--out` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("output digest "):
            result["digest"] = line.split(": ", 1)[1].split()[0]
    return result


def summarise(results, bounds):
    rows = []
    for workload, runs in results.items():
        names = list(runs[0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows.append({"workload": workload, "metric": name, "unit": unit, "median": med,
                         "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name),
                         "values": values})
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["query", "gb", "resolve"])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out" / "sweep.json")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            result = run_once(workload, seed, seconds, args.trace)
            result["seed"] = seed
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    rows = summarise(results, bounds)
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps({"seconds": seconds, "trace": args.trace, "seeds": args.seeds,
                                    "runs": results, "summary": rows}, indent=1))
    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for r in rows:
        bound = "" if r["bound"] is None else f"{r['bound']:g}"
        print(f"| {r['workload']} | {r['metric']} | {r['unit']} | {r['median']:.6g} | "
              f"{r['q1']:.6g} | {r['q3']:.6g} | {r['spread']:.4f} | {bound} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
