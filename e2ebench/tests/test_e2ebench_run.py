"""The command end to end: result format, and refusal without a program."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "e2ebench", "run.py")


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else os.path.join(cwd, "e2ebench", "run.py"),
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_short_run_prints_every_end_to_end_metric():
    proc = _run(ROOT, "--workload", "cold_pairs", "--seed", "4",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in manifest["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "e2ebench"), tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "cold_pairs", "--seed", "1",
                "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
