"""hammingdim benchmark: one run of one workload.

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload runs in a fresh process (``workloads.py``), so its peak RSS
is its own, under a wall-clock limit enforced from here: a workload that
hits the limit is killed with its process group and counts as failed.
Set-up time is sampled in several more fresh processes that stop once
their inputs exist, and reported as the median.

The times that BENCHMARK.json gates are in seconds of a reference host:
wall time divided by the host's slowdown over the same stretch, which
fixed kernels timed all through the run give (``workloads.HostSpeed``).
The wall times are printed and kept as well.

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Each metric is
printed by name and unit, and the last line of output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full figures, with the ``src/`` line count as an ungated info field,
go to ``perfbench/results/``.  Exit status: 0 when every op is correct,
1 when some op failed, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "hammingdim")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("verify-large", "oracle-sweep", "certify-n4")
SETUP_SAMPLES = 7  # fresh processes timed to the first request, the workload's own included
LIMIT_S = 170.0  # the whole run, set-up samples included

END_TO_END = {
    "setup_s": ("s", "median time from process start to the first request, "
                "in reference-host seconds"),
    "peak_rss_mb": ("MB", "peak RSS of the workload process"),
    "pass_s": ("s", "median pass over the workload's requests, in reference-host seconds"),
}
# Each workload's own figures: printed and kept in the results file, not gated.
FIGURE_UNITS = {"verify_s": "s", "scan_s": "s", "sweep_systems_per_s": "1/s",
                "sweep_system_p50_us": "us", "sweep_system_p99_us": "us", "certify_s": "s"}
PERCENTILES = ("sweep_system_p50_us", "sweep_system_p99_us")


class TimedOut(Exception):
    pass


def run_child(argv: list[str], deadline: float) -> dict:
    """Run workloads.py in a new process group; returns its JSON and set-up time."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "workloads.py"), *argv],
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the search pool's workers share the group
        proc.communicate()
        raise TimedOut from None
    if proc.returncode != 0:
        raise SystemExit(f"error: workload process exited with status {proc.returncode}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - t0
    return doc


def src_lines() -> dict[str, int]:
    counts = {}
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), encoding="utf-8") as fh:
                counts[name[:-3]] = sum(1 for _ in fh)
    counts["total"] = sum(counts.values())
    return counts


def measure(args, deadline: float) -> tuple[dict, dict]:
    """The child's figures and the result's metrics, ``{name: (value, unit)}``."""
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), "--profile", args.profile]
    if args.trace:
        os.makedirs(RESULTS, exist_ok=True)
        spans = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.json")
        doc = run_child(argv + ["--spans-out", spans], deadline)
        return doc, {k: tuple(v) for k, v in doc["per_layer"].items()}
    setups = [run_child(argv + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    doc = run_child(argv, deadline)
    setups.append(doc["setup_s"])
    doc["setup_samples"] = setups
    metrics = {"setup_s": (statistics.median(setups) / doc["host"]["slowdown"], "s")}
    for name, value in doc["end_to_end"].items():
        metrics[name] = (value, END_TO_END[name][0])
    return doc, metrics


def report(args, doc: dict, metrics: dict) -> None:
    """Human-readable lines, then the results file."""
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{doc['attempted']} ops attempted, {doc['failed']} failed")
    lines = [(name, value, unit) for name, (value, unit) in metrics.items()
             if value or not args.trace]
    if args.trace:
        print(f"  ({len(metrics) - len(lines)} per-layer metrics read 0: "
              "layers or inputs this workload does not touch)")
    else:
        lines.append(("failed_frac", doc["failed"] / doc["attempted"], "ratio"))
        lines += [(name, value, FIGURE_UNITS[name]) for name, value in doc["figures"].items()]
    for name, value, unit in lines:
        note = END_TO_END[name][1] if name in END_TO_END else ""
        if name in PERCENTILES:
            note += f"over {doc['samples']['ops']} requests"
        print(f"  {name:<58} {value:>14.6g} {unit:<6} {note}")
    if args.trace:
        print(f"  passes: {doc['samples']['untraced_passes']} untraced, "
              f"{doc['samples']['traced_passes']} traced")
    else:
        host = doc["host"]
        print(f"  host slowdown {host['slowdown']:.4f} over {host['samples']} samples; kernel "
              f"means (ms): {', '.join(f'{k} {v:.4f}' for k, v in host['kernel_ms'].items())}")
        print(f"  pass wall times (s): "
              f"{', '.join(f'{s:.4f}' for s in doc['samples']['pass_seconds'])}")
        print(f"  setup wall times (s): {', '.join(f'{s:.4f}' for s in doc['setup_samples'])}")
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "profile": args.profile,
            "attempted": doc["attempted"], "failed": doc["failed"], "samples": doc["samples"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "figures": doc.get("figures", {}),
            "setup_samples": doc.get("setup_samples", []), "host": doc.get("host", {}),
            "info": {"src_lines": src_lines(), "python": platform.python_version(),
                     "machine": platform.machine(), "cpus": os.cpu_count()},
        }, fh, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full",
                        help="smoke: every workload at tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"error: no hammingdim package under {os.path.relpath(SRC_PACKAGE)}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        doc, metrics = measure(args, time.monotonic() + LIMIT_S)
    except TimedOut:
        print(f"FAILED: {args.workload} hit the {LIMIT_S:.0f} s limit", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    report(args, doc, metrics)
    correct = doc["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
