"""Every workload over several seeds, with the run-to-run spread.

    python3 perfbench/suite.py --runs 10 [--workload NAME ...] [--out FILE]

For each workload, runs the BENCHMARK.json command with ``--trace 0``
once per seed and prints each run's report.  With two runs or more it
then prints, for every end-to-end metric, the median over the runs and
the distance between the first and third quartiles
(``statistics.quantiles(n=4)``) as a share of the median, next to the
metric's bound.  ``--out`` keeps every run's values and the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(spec: dict, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    print(proc.stdout, end="", flush=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="JSON file for the runs and their summary")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    doc = {"run_seconds": spec["run_seconds"], "seeds": list(seeds),
           "python": platform.python_version(), "cpus": os.cpu_count(), "workloads": {}}
    for workload in names:
        runs = [one_run(spec, workload, seed) for seed in seeds]
        if len(runs) < 2:
            continue
        summary = {k: summarize([r[k] for r in runs]) for k in bounds}
        doc["workloads"][workload] = {"runs": runs, "summary": summary}
        for k, s in summary.items():
            flag = "ok" if s["spread"] < bounds[k] / 3 else "WIDE"
            print(f"{workload} {k:<12} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[k]} ({flag})", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
