"""Run the benchmark over several seeds and report each metric's median and
spread (inter-quartile distance as a share of the median).

Usage: python3 perfbench/spread.py --workload ml1m-pffn --seeds 1-10 [--seconds 30] [--trace 0]

Each run's JSON line is appended to .perfbench/results/<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import stats  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    log = os.path.join(results_dir, f"{args.workload}.jsonl")
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        for line in proc.stderr.splitlines():
            if "check failed" in line or "exited" in line:
                print(f"seed {seed}: {line}", file=sys.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    print(f"{args.workload}: {len(runs)} runs")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        line = f"  {name:40s} median {statistics.median(values):12.6g} {unit:7s}"
        if len(values) >= 2:
            line += f" spread {100 * stats.spread(values):6.2f}%"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
