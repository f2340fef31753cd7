"""Run one workload over several seeds and report each metric's spread.

From the repository root::

    python3 e2ebench/spread.py --workload warm_iter --seeds 1-10

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``.  A spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    seconds = args.seconds or manifest["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append(values)
        speed = next((ln for ln in lines if ln.startswith("host speed")), "")
        print(f"seed {seed}: {speed.split(';')[0]} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    if args.trace:
        return 0
    print(f"\n{'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for m in manifest["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        flag = "  <-- above bound/3" if spread > m["bound"] / 3 else ""
        print(f"{m['name']:24s} {median:12.5g} {spread:8.3f} {m['bound']:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
