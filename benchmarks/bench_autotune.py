"""Online autotuning: steady-state gain over a frozen stale champion.

Scenario: a service restarts with a plan cache warm-started from
*stale* decisions — tiny tiles and a forced accumulator learned on some
earlier data distribution — for every signature in its traffic.  A
frozen service replays those champions forever.  The autotuned service
(`repro.autotune`) runs the same traffic, spends its exploration budget
on challenger plans, promotes the winners, and converges to the better
decision; its learned state is then persisted and reloaded across an
in-bench restart, which must start at the converged latency instead of
re-paying the exploration cost.

Three windows are reported per configuration (mean per-call seconds):

* ``early``  — the first quarter of the run (exploration tax visible);
* ``steady`` — the last quarter (converged behavior);
* ``restart`` — a fresh runtime warm-started from the persisted state.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import quick_mode  # noqa: E402

from repro.autotune import OnlineTuner, TunerConfig  # noqa: E402
from repro.data.random_tensors import random_coo  # noqa: E402
from repro.machine.specs import DESKTOP  # noqa: E402
from repro.runtime import ContractionRuntime  # noqa: E402
from repro.runtime.plan_cache import CachedPlan  # noqa: E402
from repro.runtime.signature import signature_for  # noqa: E402

#: Workload signatures: (left shape, right shape, nnz per operand).
WORKLOAD = [
    ((64, 56), (56, 60), 1600),
    ((80, 48), (48, 72), 2000),
    ((56, 64), (64, 48), 1200),
]

#: The stale decision every signature starts from: tiles this small
#: shatter the problem into hundreds of tasks of pure overhead.
STALE_TILE = 4


def _operands(seed: int = 0):
    out = []
    for k, (ls, rs, nnz) in enumerate(WORKLOAD):
        left = random_coo(ls, nnz=nnz, seed=seed + 2 * k)
        right = random_coo(rs, nnz=nnz, seed=seed + 2 * k + 1)
        out.append((left, right))
    return out


def _seed_stale(runtime, operands) -> None:
    """Install the stale champion for every workload signature."""
    for left, right in operands:
        sig = signature_for(left, right, [(1, 0)], runtime.machine)
        runtime.plan_cache.put_key(sig.key, CachedPlan(
            accumulator="sparse", tile_l=STALE_TILE, tile_r=STALE_TILE,
            machine_name=runtime.machine.name,
        ))


def _drive(runtime, operands, rounds: int) -> list[float]:
    """Round-robin the workload; per-call wall-clock seconds."""
    times = []
    for _ in range(rounds):
        for left, right in operands:
            t0 = time.perf_counter()
            runtime.contract(left, right, [(1, 0)])
            times.append(time.perf_counter() - t0)
    return times


def _window(times: list[float], which: str) -> float:
    q = max(1, len(times) // 4)
    part = times[:q] if which == "early" else times[-q:]
    return sum(part) / len(part)


def main() -> None:
    rounds = 24 if quick_mode() else 120
    operands = _operands()

    # Frozen: the stale champion is replayed forever.
    frozen_rt = ContractionRuntime(machine=DESKTOP)
    _seed_stale(frozen_rt, operands)
    frozen = _drive(frozen_rt, operands, rounds)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "autotune.json")

        # Autotuned: same stale start, exploration enabled.
        tuned_rt = ContractionRuntime(machine=DESKTOP)
        _seed_stale(tuned_rt, operands)
        tuner = OnlineTuner(DESKTOP, TunerConfig(
            explore_rate=0.30, min_trials=2, promote_margin=0.05,
            state_path=path, default_eligible=True,
        )).attach(tuned_rt)
        tuned = _drive(tuned_rt, operands, rounds)
        metrics = tuner.metrics()
        tuner.flush()

        # Restart: fresh runtime, stale seeds again, state warm-started
        # (attach replays the persisted promotions over the stale ones).
        restart_rt = ContractionRuntime(machine=DESKTOP)
        _seed_stale(restart_rt, operands)
        tuner2 = OnlineTuner(DESKTOP, TunerConfig(
            state_path=path, default_eligible=False,
        )).attach(restart_rt)
        restarted = _drive(restart_rt, operands, max(4, rounds // 4))
        warm = tuner2.state.summary()

    frozen_steady = _window(frozen, "steady")
    tuned_steady = _window(tuned, "steady")
    restart_mean = sum(restarted) / len(restarted)
    gain = frozen_steady / tuned_steady if tuned_steady > 0 else 0.0

    print("online autotuning vs frozen stale champion "
          f"({len(WORKLOAD)} signatures x {rounds} rounds):")
    print(f"{'config':<22} {'early':>12} {'steady':>12}")
    print(f"{'frozen (stale)':<22} {_window(frozen, 'early') * 1e3:>10.3f}ms "
          f"{frozen_steady * 1e3:>10.3f}ms")
    print(f"{'autotuned':<22} {_window(tuned, 'early') * 1e3:>10.3f}ms "
          f"{tuned_steady * 1e3:>10.3f}ms")
    print(f"{'restart (warm state)':<22} {restart_mean * 1e3:>10.3f}ms "
          f"{restart_mean * 1e3:>10.3f}ms")
    print()
    print(f"tuner: {metrics['explorations']} explorations over "
          f"{metrics['eligible_calls']} eligible calls, "
          f"{metrics['promotions']} promotions, "
          f"{metrics['rollbacks']} rollbacks")
    print(f"persisted state: {warm['samples']} samples, "
          f"{warm['champions']} champions")
    print(f"steady-state speedup over frozen: {gain:.2f}x; "
          f"restart starts at {restart_mean / max(tuned_steady, 1e-12):.2f}x "
          f"the converged latency")
    verdict = (
        "PASS" if tuned_steady < frozen_steady and warm["champions"] > 0
        else "FAIL"
    )
    print(f"verdict: {verdict} (autotuned steady-state "
          f"{'beats' if verdict == 'PASS' else 'does not beat'} the "
          f"frozen stale champion with promotions persisted)")


if __name__ == "__main__":
    main()
