"""Run one workload of the end-to-end benchmark and print its result.

From the repository root::

    python3 e2ebench/run.py --workload cold_pairs --seed 1 --seconds 24 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints every per-layer
metric.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Nothing
is built: the program is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 3
SETUP_PROBE_TIMEOUT_S = 120


def probe_setup(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: import the program, then build and warm
    the workload's program state; prints the seconds that took."""
    t0 = time.perf_counter()
    from e2ebench import workloads  # numpy and repro: import is set-up

    imported = time.perf_counter() - t0
    seconds = imported + workloads.setup_probe(workload, seed)
    print(json.dumps({"setup_s": seconds * workloads.HostSpeed().factor}))


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over ``SETUP_PROBES`` fresh interpreters."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, check=True,
            timeout=SETUP_PROBE_TIMEOUT_S,
        )
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def with_units(metrics: dict, declared: list) -> dict:
    """Attach each declared metric's unit; refuse missing or extra names."""
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise SystemExit(
            f"metric names disagree with BENCHMARK.json: missing "
            f"{sorted(names - set(metrics))}, extra {sorted(set(metrics) - names)}"
        )
    return {
        m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    # Import the package by name from the root, never its files by path.
    sys.path[:] = [SRC, ROOT] + [p for p in sys.path if os.path.abspath(p) != HERE]
    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0

    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    from e2ebench import workloads

    result = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace)
    )
    speed = result.pop("host_speed")
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    result["metrics"] = with_units(
        metrics, manifest["per_layer" if args.trace else "end_to_end"])
    print(f"host speed: {speed:.3f} x nominal (times are at nominal speed)")
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
