#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds, and summarize the spread.

    python3 perfbench/sweep.py                       # every workload, seed 0
    python3 perfbench/sweep.py --seeds 0-9           # ten seeds each
    python3 perfbench/sweep.py --trace 1 --seeds 0,1 # per-layer metrics
    python3 perfbench/sweep.py --seeds 0-9 --out perfbench/baseline/x.json

Each (seed, workload) pair is one ``run.py`` process, run one after
another, seeds in the outer loop so slow phases of the machine spread
over every workload. For every metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. The exit code is 1 if any run failed or was incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[len("environment "):]) for l in lines if l.startswith("environment ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {
        "workload": workload,
        "seed": seed,
        "exit_code": proc.returncode,
        "elapsed_s": elapsed,
        "result": result,
        "environment": env,
        "calls": next((l for l in lines if l.startswith("calls ")), None),
        "digests": [l for l in lines if l.startswith("digests ")],
        "stderr": proc.stderr[-2000:],
    }


def summarize(runs: list, bounds: dict) -> dict:
    summary = {}
    for run in runs:
        if run["result"] is None:
            continue
        per = summary.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            per.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(
                metric["value"]
            )
    for per in summary.values():
        for name, entry in per.items():
            values = entry["values"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            entry.update(
                median=median,
                q1=q1,
                q3=q3,
                spread=(q3 - q1) / median if median else 0.0,
                bound=bounds.get(name),
            )
    return summary


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in spec["workloads"]),
        help="comma-separated workload names",
    )
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            res = run["result"] or {}
            print(
                f"{workload} seed {seed}: exit {run['exit_code']} "
                f"correct {res.get('correct')} failed {res.get('failed')}/"
                f"{res.get('attempted')} in {run['elapsed_s']:.1f} s",
                flush=True,
            )
            if run["exit_code"] != 0:
                print(run["stderr"], file=sys.stderr)

    summary = summarize(runs, bounds)
    for workload, per in summary.items():
        print(f"\n{workload}")
        for name, e in per.items():
            bound = e["bound"]
            verdict = ""
            if bound is not None and len(e["values"]) > 1:
                verdict = "steady" if e["spread"] < bound / 3 else "NOT steady"
                verdict = f"bound {bound}  {verdict}"
            print(
                f"  {name:<36} median {e['median']:.6g} {e['unit']}  "
                f"q1 {e['q1']:.6g}  q3 {e['q3']:.6g}  spread {e['spread']:.3f}  {verdict}"
            )
    if args.out:
        record = {
            "environment": next((r["environment"] for r in runs if r["environment"]), None),
            "settings": {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds},
            "summary": summary,
            "runs": runs,
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(r["exit_code"] == 0 and r["result"] and r["result"]["correct"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
