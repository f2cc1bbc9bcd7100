#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload's warm-up and reference inputs once and writes their
verdict flags, headline numbers and output digests to
``perfbench/reference.json``. Run it only at a commit whose outputs are
known good; a later commit is checked against what it recorded.

``pool_range`` is the band that the headline numbers of seeded pool
inputs must fall in. They are Monte Carlo means over a few replications,
so the band is statistical: over ``CALIBRATION_SEEDS`` x ``POOL_SIZE``
pool inputs it takes the observed [min, max] and widens it by its own
width on each side. That keeps a correct run inside it with a wide
margin while a policy, engine or reduction that is badly wrong falls out.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (pins BLAS threads before numpy loads)
import bench_inputs  # noqa: E402

CALIBRATION_SEEDS = range(1000, 1008)
NUMBERS = ("final_mean_regret", "potential_sum_mean")


def pool_range(pkg, wl, work: str) -> dict:
    seen = {name: [] for name in NUMBERS}
    for seed in CALIBRATION_SEEDS:
        inputs = bench_inputs.write_inputs(wl, seed, work)
        for inp in inputs.values():
            if inp.kind != "pool":
                continue
            code, text = bench_inputs.call_cli(pkg.cli.main, inp.argv)
            if code != 0:
                raise SystemExit(f"{wl.name} {inp.key}: exit code {code}: {text}")
            got = bench_inputs.headline(inp)
            for name in NUMBERS:
                seen[name].append(got[name])
    band = {}
    for name, values in seen.items():
        lo, hi = min(values), max(values)
        band[name] = [max(lo - (hi - lo), 0.0), hi + (hi - lo)]
    return band


def main() -> int:
    pkg = run.import_package()
    reference = {}
    for name, wl in bench_inputs.WORKLOADS.items():
        work = os.path.join(run.WORK_DIR, f"reference-{name}")
        inputs = bench_inputs.write_inputs(wl, 0, work)
        entry = bench_inputs.record_entry(pkg.cli.main, wl, inputs)
        if wl.regret:
            entry["pool_range"] = pool_range(pkg, wl, work)
        reference[name] = entry
        print(f"{name}: {json.dumps(entry, sort_keys=True)}")
    with open(bench_inputs.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
