"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``info``
    Print version, platform models, and the benchmark case registry.
``run CASE``
    Run one registry case (e.g. ``chic_01``, ``C-vvov``) with a chosen
    method and print the plan, timings and counters.
``plan``
    Evaluate Algorithm 7 for explicit problem parameters without
    running anything — the paper's Table 3 calculation as a calculator.
``contract FILE_A FILE_B``
    Contract two FROSTT ``.tns`` files over given mode pairs and write
    the result as ``.tns``.
``batch CASE [CASE ...]``
    Run a pipeline of registry cases through the adaptive runtime
    (``repro.runtime``): plans are cached by structural signature,
    tiled tables are reused across steps sharing an operand, and the
    aggregate hit-rate/speedup metrics are printed at the end.
``check``
    Static analysis (:mod:`repro.staticcheck`) without running any
    kernel.  The default audits every registry case under both paper
    machines and all three Table 3 accumulator columns, reporting
    predicted guard outcomes (the NIPS mode-2 dense DNF appears as
    ``FSTC010``); ``--expr``/``--shapes`` lints one einsum request;
    ``--self`` AST-lints the ``repro`` source tree and audits the FSTC
    code registry against its docs.  Exit status is 1 when any
    error-severity finding is reported.
``network EXPR``
    Plan a multi-operand tensor-network contraction through
    :mod:`repro.network` — ``--explain`` prints the chosen path, per-step
    subscripts, predicted nnz/cost and accumulator choices without
    executing; without it, random operands are drawn at the declared
    shapes/nnz and the plan runs through the network executor
    (``--repeat`` shows the warm plan-cache path).
``serve``
    Run a load generator against a live :mod:`repro.serve`
    :class:`~repro.serve.ContractionService`: a mixed-signature
    synthetic workload is submitted open-loop (Poisson arrivals at
    ``--rate``) or closed-loop (``--closed N`` clients), and the SLO
    metrics — per-stage latency percentiles, terminal status counts,
    queue stats, cache hit rates — are printed (``--json`` for the raw
    document).  ``--demo`` runs a canned capacity-then-overload
    sequence; with ``--quick`` it is the CI smoke configuration.
    ``--autotune`` turns on online bandit exploration
    (:mod:`repro.autotune`), with ``--autotune-state`` persisting the
    learned weights, measurements and promotions across restarts.
``autotune``
    Operate on learned autotune state: inspect a state file (default),
    ``--replay`` the promotion/rollback audit log, ``--reset`` the
    learned state in place, or run the end-to-end ``--self-check``
    (explore on live contractions, promote on synthetic skew, roll back
    on regression, round-trip persistence) — the CI smoke gate.
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_info(args) -> int:
    import repro
    from repro.data.registry import all_cases
    from repro.machine.specs import DESKTOP, SERVER

    from repro.backends import backend_status

    print(f"repro {repro.__version__} — FaSTCC reproduction (SC '25)")
    for m in (DESKTOP, SERVER):
        print(f"  machine {m.name}: {m.n_cores} cores, "
              f"L3 {m.l3_bytes >> 20} MiB, dense tile {m.dense_tile_size()}")
    print("\nkernel backends:")
    for name, (ok, reason) in backend_status().items():
        mark = "available" if ok else "unavailable"
        print(f"  {name:<10} {mark:<12} {reason}")
    print(f"\nregistered benchmark cases ({len(all_cases())}):")
    for name, case in all_cases().items():
        print(f"  {name:<10} [{case.family}]  paper model: {case.paper['model']}")
    return 0


def _cmd_run(args) -> int:
    from repro import Counters, contract
    from repro.data.registry import get_case
    from repro.machine.specs import DESKTOP, SERVER

    from repro.errors import WorkspaceLimitError

    case = get_case(args.case)
    machine = SERVER if args.machine == "server" else DESKTOP
    left, right, pairs = case.load()
    counters = Counters()
    t0 = time.perf_counter()
    try:
        out, stats = contract(
            left, right, pairs,
            method=args.method, machine=machine,
            accumulator=args.accumulator, tile_size=args.tile,
            n_workers=args.workers, counters=counters, return_stats=True,
            backend=args.backend,
        )
    except WorkspaceLimitError as exc:
        # The paper's DNF regime (Table 3, NIPS mode 2 with dense tiles).
        print(f"case {args.case}: DNF — {exc}")
        return 2
    dt = time.perf_counter() - t0
    plan = stats.plan
    print(f"case {args.case} [{case.family}] via {args.method}")
    print(f"  inputs: nnz_L={left.nnz}, nnz_R={right.nnz}; "
          f"L={plan.spec.L}, R={plan.spec.R}, C={plan.spec.C}")
    print(f"  plan: {plan.accumulator} accumulator, tile "
          f"{plan.tile_l}x{plan.tile_r} on {plan.machine_name}")
    print(f"  output: nnz={out.nnz} ({out.ndim} modes), time={dt:.4f}s")
    print(f"  phases: " + ", ".join(
        f"{k}={v:.4f}s" for k, v in stats.phase_seconds.items()))
    print(f"  counters: {counters.snapshot()}")
    return 0


def _cmd_plan(args) -> int:
    from repro.core.model import choose_accumulator
    from repro.machine.specs import DESKTOP, SERVER

    machine = SERVER if args.machine == "server" else DESKTOP
    choice = choose_accumulator(
        args.L, args.R, args.C, args.nnz_l, args.nnz_r, machine
    )
    print(f"Algorithm 7 on {machine.name}:")
    print(f"  p_L = {choice.p_l:.4e}, p_R = {choice.p_r:.4e}")
    print(f"  estimated output density = {choice.output_density:.4e}")
    print(f"  E_nnz(T^2) = {choice.expected_tile_nnz:.4e} "
          f"(probe tile T = {choice.dense_probe_tile})")
    print(f"  decision: {choice.accumulator} accumulator, "
          f"tile size {choice.tile_size}")
    return 0


def _cmd_contract(args) -> int:
    from repro import contract
    from repro.tensors.io import read_tns, write_tns

    left = read_tns(args.file_a)
    right = read_tns(args.file_b)
    pairs = []
    for token in args.pairs.split(","):
        a, b = token.split(":")
        pairs.append((int(a), int(b)))
    t0 = time.perf_counter()
    out = contract(left, right, pairs, method=args.method, backend=args.backend)
    dt = time.perf_counter() - t0
    write_tns(out, args.output)
    print(f"contracted {left.nnz} x {right.nnz} nonzeros over {pairs} "
          f"-> {out.nnz} nonzeros in {dt:.3f}s; wrote {args.output}")
    return 0


def _cmd_batch(args) -> int:
    from repro.analysis.counters import Counters
    from repro.machine.specs import DESKTOP, SERVER
    from repro.runtime import BatchReport, ContractionRuntime, CostCalibrator

    machine = SERVER if args.machine == "server" else DESKTOP
    runtime = ContractionRuntime(
        machine=machine,
        cache_path=args.cache_file,
        n_workers=args.workers,
        backend=args.backend,
        # Size the operand cache so a full pass over the distinct cases
        # fits — otherwise --repeat evicts every table before reuse.
        operand_cache_size=max(8, 2 * len(set(args.cases))),
    )
    operands = [_batch_operands(name) for name in args.cases]
    calibrator = CostCalibrator(machine=machine)
    records, outputs = [], []
    t0 = time.perf_counter()
    for _ in range(max(1, args.repeat)):
        for name, (left, right, pairs) in zip(args.cases, operands):
            call = Counters()
            out, stats, record = runtime.contract(
                left, right, pairs, name=name, counters=call,
                return_stats=True, return_record=True,
            )
            calibrator.observe(stats.plan, stats, call)
            records.append(record)
            outputs.append(out)
    dt = time.perf_counter() - t0
    report = BatchReport(records, runtime.metrics(), outputs)
    print(f"batch of {len(records)} contractions on {machine.name} "
          f"({dt:.4f}s wall):")
    print(report.summary())
    if calibrator.samples:
        calibrator.fit()
        before, after = calibrator.improvement()
        print(f"cost-model calibration over {len(calibrator.samples)} "
              f"runs: relative error {before:.2f} -> {after:.2f}")
    if args.cache_file:
        runtime.flush()
        print(f"plan cache persisted to {args.cache_file} "
              f"({len(runtime.plan_cache)} entries)")
    return 0


def _batch_operands(name: str):
    """Load one registry case, memoized so repeated steps share the
    *same* tensor objects (what makes table reuse kick in)."""
    from repro.data.registry import get_case

    cache = _batch_operands.__dict__.setdefault("cache", {})
    if name not in cache:
        cache[name] = get_case(name).load()
    return cache[name]


def _cmd_network(args) -> int:
    import json

    from repro.data.random_tensors import random_coo
    from repro.machine.specs import DESKTOP, SERVER
    from repro.network import NetworkExecutor, TensorNetwork, build_plan
    from repro.network.optimize import resolve_optimizer

    machine = SERVER if args.machine == "server" else DESKTOP
    shapes = _parse_shapes(args.shapes)
    nnz = [int(n) for n in args.nnz.split(",")] if args.nnz else None

    network = TensorNetwork.parse(args.expr, shapes, nnz=nnz)
    plan = build_plan(
        network, machine, resolve_optimizer(args.optimizer, network)
    )
    if args.json:
        print(json.dumps(plan.to_json(), indent=2))
    else:
        print(plan.explain())
    if args.explain:
        return 0

    # Execute mode: draw random operands at the declared shapes/nnz and
    # run the plan through a fresh executor, --repeat times (repeats
    # after the first replay cached plans at both levels).
    executor = NetworkExecutor(
        machine=machine, n_workers=args.workers, passes=args.passes,
    )
    operands = [
        random_coo(meta.shape, nnz=meta.nnz, seed=args.seed + k)
        for k, meta in enumerate(network.operands)
    ]
    print()
    for r in range(max(1, args.repeat)):
        out, report = executor.contract(
            args.expr, *operands,
            optimizer=args.optimizer, method=args.method,
            return_report=True, backend=args.backend,
        )
        print(f"run {r}:")
        print(report.summary())
    print()
    print("executor metrics:")
    for k, v in executor.metrics().items():
        print(f"  {k} = {v}")
    return 0


def _parse_shapes(text: str) -> list[tuple[int, ...]]:
    return [
        tuple(int(d) for d in token.split("x"))
        for token in text.split(",") if token
    ]


#: Hazard analysis materializes the occupied tile-pair list; past this
#: many *potential* pairs we only report the guard verdict (which the
#: plan lint already covers) instead of enumerating millions of tasks.
_HAZARD_PAIR_LIMIT = 1 << 18


def _emit_diagnostics(args, diags, extra: dict | None = None) -> int:
    """Print findings (text or ``--json``) and return the exit status."""
    from repro.staticcheck import (
        diagnostics_to_json,
        max_exit_status,
        render_diagnostics,
    )

    if getattr(args, "json", False):
        import json

        doc = diagnostics_to_json(diags)
        if extra:
            doc.update(extra)
        print(json.dumps(doc, indent=2))
    elif diags:
        print(render_diagnostics(diags))
    else:
        print("no findings")
    return max_exit_status(diags)


def _cmd_check(args) -> int:
    from repro.staticcheck import lint_expression

    if args.self_check:
        from repro.staticcheck import audit_code_registry, lint_tree

        diags = list(lint_tree())
        # The FSTC catalogue itself is part of the checked surface: the
        # registry and docs/staticcheck.md must agree code-for-code.
        diags.extend(audit_code_registry())
        return _emit_diagnostics(args, diags)

    if args.passes_check:
        from repro.staticcheck import self_test_passes

        diags, summary = self_test_passes()
        if not args.json:
            print(f"pass self-test: {summary['scenarios']} scenarios, "
                  f"{summary['clean_pipelines']} clean pipeline runs, "
                  f"{summary['corruptions_caught']} corruptions caught")
        return _emit_diagnostics(args, diags, extra={"summary": summary})

    if args.expr is not None:
        from repro.machine.specs import DESKTOP, SERVER

        if args.shapes is None:
            print("check --expr requires --shapes", file=sys.stderr)
            return 2
        machine = SERVER if args.machine == "server" else DESKTOP
        nnz = (
            [int(n) for n in args.nnz.split(",")] if args.nnz else None
        )
        report = lint_expression(
            args.expr, _parse_shapes(args.shapes),
            nnz=nnz, machine=machine,
            accumulator=(
                "auto" if args.accumulator == "all" else args.accumulator
            ),
            tile_size=args.tile,
            dtypes=args.dtypes.split(",") if args.dtypes else None,
            location=f"expr {args.expr!r}",
        )
        if not args.json:
            if report.prediction is not None:
                p = report.prediction
                print(f"predicted plan on {machine.name}: {p.accumulator} "
                      f"accumulator, tile {p.tile_l}x{p.tile_r}, grid "
                      f"{p.grid_l}x{p.grid_r} "
                      f"(<= {p.est_nonempty_pairs} tasks)")
            print(f"verdict: {report.verdict}")
        return _emit_diagnostics(
            args, report.diagnostics, extra={"verdict": report.verdict}
        )

    return _check_audit(args)


def _check_audit(args) -> int:
    """Registry-wide static audit (the Table 3 reproduction)."""
    from repro.staticcheck import audit_registry
    from repro.staticcheck.audit import occupied_tile_pairs
    from repro.staticcheck.graph_lint import (
        analyze_task_graph,
        write_sets_for_pairs,
    )

    machines = (
        ("desktop", "server") if args.machine == "both" else (args.machine,)
    )
    accumulators = (
        ("auto", "dense", "sparse") if args.accumulator == "all"
        else (args.accumulator,)
    )
    audits = audit_registry(
        cases=args.cases or None,
        machines=machines, accumulators=accumulators,
    )

    diags = []
    verdicts = {}
    header = f"{'case':<12}" + "".join(
        f"{m}/{a:<8}" for m in machines for a in accumulators
    )
    if not args.json:
        print(header)
    for audit in audits:
        cells = []
        for m in machines:
            for a in accumulators:
                v = audit.verdict(m, a)
                verdicts[f"{audit.case}/{m}/{a}"] = v
                cells.append("DNF" if v == "dnf" else v)
        if not args.json:
            print(f"{audit.case:<12}" + "".join(f"{c:<{len(m) + 9}}"
                  for c, m in zip(cells, [m for m in machines
                                          for _ in accumulators])))
        diags.extend(audit.diagnostics)
        if args.hazards:
            diags.extend(_audit_hazards(
                audit, machines, analyze_task_graph,
                write_sets_for_pairs, occupied_tile_pairs,
                n_workers=args.workers,
            ))

    if not args.json:
        print()
    return _emit_diagnostics(args, diags, extra={"verdicts": verdicts})


def _audit_hazards(
    audit, machines, analyze_task_graph, write_sets_for_pairs,
    occupied_tile_pairs, *, n_workers,
):
    """Hazard-check each machine's chosen (auto) dispatch list."""
    out = []
    for m in machines:
        report = audit.reports.get((m, "auto"))
        if report is None or report.prediction is None:
            continue
        p = report.prediction
        if p.est_nonempty_pairs > _HAZARD_PAIR_LIMIT:
            print(f"  [{audit.case}/{m}] skipping hazard enumeration: "
                  f"up to {p.est_nonempty_pairs} pairs (> "
                  f"{_HAZARD_PAIR_LIMIT}); guard verdicts above still apply")
            continue
        pairs = occupied_tile_pairs(audit.problem, p.tile_l, p.tile_r)
        found = analyze_task_graph(
            write_sets_for_pairs(pairs), n_workers=n_workers
        )
        out.extend(
            d.with_location(f"case {audit.case} [{m}] {d.location}")
            for d in found
        )
    return out


def _tuner_config(args):
    """The ``TunerConfig`` the ``--autotune*`` flags select, or ``None``."""
    if not args.autotune:
        return None
    from repro.autotune import TunerConfig

    return TunerConfig(
        explore_rate=args.autotune_rate, state_path=args.autotune_state
    )


def _serve_backend(args, machine, config):
    """The serving backend the CLI flags select.

    ``--shards 1`` (the default) runs the in-process
    :class:`~repro.serve.ContractionService`; ``--shards N`` fronts N
    spawned shard processes with the consistent-hash
    :class:`~repro.serve.ShardRouter`.  Both speak the same
    ``submit``/context-manager surface, so the load generators drive
    either.
    """
    from repro.serve import ContractionService, ShardedConfig, ShardRouter

    if args.shards > 1:
        sharded = ShardedConfig(
            n_shards=args.shards,
            service=config,
            cache_dir=getattr(args, "cache_dir", None),
        )
        return ShardRouter(machine=machine, config=sharded)
    return ContractionService(machine=machine, config=config)


def _render_service(service) -> str:
    """Human-readable metrics for either backend."""
    metrics = getattr(service, "metrics", None)
    if metrics is not None:
        return metrics.render()
    doc = service.metrics_json()
    router = doc["router"]
    agg = doc["aggregate"]
    lines = [
        f"sharded service: {router['live_shards']}/{router['n_shards']} "
        f"shards live, deaths={router['deaths']}, "
        f"requeued={router['requeued']}, respawns={router['respawns']}",
        f"  aggregate statuses: {agg['statuses']}",
        f"  aggregate plan hit rate: "
        f"{agg['runtime']['plan_hit_rate']:.1%}",
    ]
    for shard_id, shard in sorted(doc["shards"].items()):
        runtime = shard.get("runtime", {})
        lines.append(
            f"  shard {shard_id}: statuses {shard['statuses']}, "
            f"plan hit rate {runtime.get('plan_hit_rate', 0.0):.1%}"
        )
    return "\n".join(lines)


def _cmd_serve(args) -> int:
    import json

    from repro.machine.specs import DESKTOP, SERVER
    from repro.serve import (
        ServiceConfig,
        run_closed_loop,
        run_open_loop,
        synthetic_requests,
    )

    machine = SERVER if args.machine == "server" else DESKTOP
    if args.demo:
        return _serve_demo(args, machine)

    config = ServiceConfig(
        queue_capacity=args.capacity,
        policy=args.policy,
        n_workers=args.workers,
        max_batch=args.max_batch,
        default_deadline_s=args.deadline,
        backend=args.backend or "numpy",
        autotune=_tuner_config(args),
    )
    requests = synthetic_requests(
        args.requests,
        n_signatures=args.signatures,
        seed=args.seed,
        deadline_s=args.deadline,
    )
    # Not a ``with`` block: a KeyboardInterrupt would unwind the context
    # manager, but ``close()`` in ``finally`` also reaps shard processes
    # spawned before ``start()`` finished (see ShardRouter.close).
    service = _serve_backend(args, machine, config)
    try:
        service.start()
        if args.closed:
            report = run_closed_loop(
                service, requests, concurrency=args.closed, seed=args.seed
            )
        else:
            report = run_open_loop(
                service, requests, args.rate, seed=args.seed
            )
        if args.json:
            doc = {"load": report.to_json(), "service": service.metrics_json()}
            print(json.dumps(doc, indent=2))
        else:
            print(report.render())
            print()
            print(_render_service(service))
            tuner = getattr(service, "tuner", None)
            if tuner is not None:
                print(f"  autotune: {tuner.metrics()}")
    finally:
        service.close()
    return 0


def _serve_demo(args, machine) -> int:
    """Canned capacity-then-overload sequence (the CI smoke path).

    Phase 1 measures capacity closed-loop; phase 2 offers a multiple of
    it open-loop against a small bounded queue so the admission policy
    visibly sheds.  Exit is nonzero if any request fails outright or
    the queue ever exceeds its bound.  With ``--shards N`` the same
    two phases run against the process-sharded router instead.
    """
    from repro.serve import (
        ServiceConfig,
        run_closed_loop,
        run_open_loop,
        synthetic_requests,
    )
    from repro.serve.loadgen import _queue_stats

    n = 12 if args.quick else 60
    capacity = 4 if args.quick else 16
    config = ServiceConfig(
        queue_capacity=capacity, policy="shed_oldest",
        n_workers=args.workers, max_batch=args.max_batch,
        backend=args.backend or "numpy",
        autotune=_tuner_config(args),
    )
    requests = synthetic_requests(n, n_signatures=3, seed=args.seed)
    # try/finally rather than ``with``: Ctrl-C during the demo must
    # still reap any spawned shard processes (the old context-manager
    # form leaked them when the interrupt landed inside ``start()``).
    service = _serve_backend(args, machine, config)
    try:
        service.start()
        closed = run_closed_loop(
            service, requests, concurrency=2, seed=args.seed
        )
        print("phase 1 — capacity (closed loop):")
        print(closed.render())
        # Offer well above the measured capacity so shedding engages.
        rate = max(10.0, 4.0 * closed.achieved_rps)
        open_report = run_open_loop(
            service, requests, rate, seed=args.seed
        )
        print("\nphase 2 — overload (open loop):")
        print(open_report.render())
        queue_stats = _queue_stats(service)
        print()
        print(_render_service(service))
        tuner = getattr(service, "tuner", None)
        if tuner is not None:
            print(f"  autotune: {tuner.metrics()}")
        ok = (
            open_report.statuses.get("failed", 0) == 0
            and closed.statuses.get("failed", 0) == 0
            and queue_stats["high_water"] <= queue_stats["capacity"]
        )
    finally:
        service.close()
    if ok:
        print(f"\ndemo PASS: bounded queue high-water "
              f"{queue_stats['high_water']}/{queue_stats['capacity']}, "
              f"no failed requests")
    else:
        print(f"\ndemo FAIL: statuses {open_report.statuses}, "
              f"queue {queue_stats}")
    return 0 if ok else 1


def _cmd_autotune(args) -> int:
    import json

    if args.self_check:
        return _autotune_self_check(args)
    if args.state is None:
        print("repro autotune needs --state FILE (or --self-check)",
              file=sys.stderr)
        return 2

    from repro.autotune import AutotuneState

    # The machine name is embedded in the file; read it first so the
    # loader's machine-mismatch guard does not fight the inspector.
    try:
        with open(args.state, encoding="utf-8") as fh:
            machine_name = str(json.load(fh).get("machine", ""))
    except (OSError, ValueError) as exc:
        if args.reset:
            machine_name = "desktop-i7-11700F"
        else:
            print(f"cannot read {args.state}: {exc}", file=sys.stderr)
            return 1

    if args.reset:
        fresh = AutotuneState(machine_name)
        path = fresh.save(args.state)
        print(f"reset learned autotune state at {path} "
              f"(machine {machine_name})")
        return 0

    state = AutotuneState(machine_name)
    if not state.load(args.state):
        print(f"cannot load {args.state}: {state.load_error}",
              file=sys.stderr)
        return 1

    if args.replay:
        if args.json:
            print(json.dumps([e.to_json() for e in state.history], indent=2))
            return 0
        if not state.history:
            print("no promotion history")
            return 0
        for e in state.history:
            print(f"{e.timestamp:.3f} {e.event:<9} {e.arm_id:<16} "
                  f"challenger {e.challenger_mean:.3e}s vs champion "
                  f"{e.champion_mean:.3e}s  [{e.sig_key}]")
            if e.reason:
                print(f"    {e.reason}")
        return 0

    if args.json:
        print(json.dumps(state.summary(), indent=2))
        return 0
    s = state.summary()
    print(f"autotune state {args.state} (machine {s['machine']}):")
    print(f"  measurements: {s['samples']} samples over "
          f"{s['signatures']} signatures")
    print(f"  champions: {s['champions']} promoted "
          f"({s['promotions']} promotions, {s['rollbacks']} rollbacks "
          f"on record)")
    for sig_key, record in sorted(state.champions.items()):
        print(f"    {record.arm_id:<16} baseline "
              f"{record.baseline_mean:.3e}s  [{sig_key}]")
    return 0


def _autotune_self_check(args) -> int:
    """End-to-end tuner exercise on live contractions (the CI gate).

    Four assertions: exploration happens on eligible traffic; explored
    executions are numerically identical to the champion's; a
    synthetically skewed challenger is promoted and a synthetic
    regression rolls it back; flushed state round-trips into a fresh
    tuner (warm start).
    """
    import os
    import tempfile

    import numpy as np

    from repro.autotune import (
        CHAMPION_ARM,
        OnlineTuner,
        TunerConfig,
        pairwise_candidates,
    )
    from repro.data.random_tensors import random_coo
    from repro.machine.specs import DESKTOP
    from repro.runtime import ContractionRuntime
    from repro.runtime.signature import signature_for

    rounds = 24 if args.quick else 80
    failures: list[str] = []

    def check(ok: bool, label: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
        if not ok:
            failures.append(label)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "autotune.json")
        runtime = ContractionRuntime(machine=DESKTOP)
        tuner = OnlineTuner(DESKTOP, TunerConfig(
            explore_rate=0.25, min_trials=2, promote_margin=0.05,
            state_path=path, default_eligible=True,
            seed=args.seed,
        )).attach(runtime)

        left = random_coo((48, 40), nnz=320, seed=args.seed)
        right = random_coo((40, 44), nnz=320, seed=args.seed + 1)
        reference = runtime.contract(left, right, [(1, 0)]).to_dense()

        print("autotune self-check:")
        max_diff = 0.0
        for _ in range(rounds):
            out = runtime.contract(left, right, [(1, 0)])
            max_diff = max(
                max_diff, float(np.abs(out.to_dense() - reference).max())
            )
        metrics = tuner.metrics()
        check(metrics["explorations"] > 0,
              f"exploration under budget ({metrics['explorations']} of "
              f"{metrics['eligible_calls']} eligible calls)")
        check(max_diff <= 1e-8 * max(1.0, float(np.abs(reference).max())),
              f"explored results match champion (max diff {max_diff:.2e})")

        # Synthetic skew on a *fresh* signature (the live loop above may
        # already hold promotions or cooldowns on its own): a fast
        # challenger must be promoted, then a regression rolled back.
        sig = signature_for(
            random_coo((32, 28), nnz=200, seed=args.seed + 2),
            random_coo((28, 36), nnz=200, seed=args.seed + 3),
            [(1, 0)], DESKTOP,
        )
        arm = pairwise_candidates(sig, DESKTOP)[0].arm_id
        for _ in range(3):
            tuner.observe_pairwise(sig, CHAMPION_ARM, 10e-3)
            tuner.observe_pairwise(sig, arm, 1e-3)
        promoted = tuner.state.champion(sig.key)
        check(promoted is not None and promoted.arm_id == arm,
              f"synthetic skew promotes the fast challenger ({arm})")
        for _ in range(8):
            tuner.observe_pairwise(sig, None, 100e-3)
        check(tuner.state.champion(sig.key) is None and tuner.rollbacks >= 1,
              "synthetic regression rolls the promotion back")

        flushed = tuner.flush()
        samples_before = tuner.state.store.summary()["samples"]

        runtime2 = ContractionRuntime(machine=DESKTOP)
        tuner2 = OnlineTuner(DESKTOP, TunerConfig(
            state_path=path, default_eligible=True,
        )).attach(runtime2)
        samples_after = tuner2.state.store.summary()["samples"]
        check(flushed == path and tuner2.state.loaded_from == path
              and samples_after == samples_before,
              f"persisted state round-trips ({samples_after} samples "
              f"warm-started)")

    if failures:
        print(f"self-check FAIL: {len(failures)} of 5 checks failed")
        return 1
    print("self-check PASS")
    return 0


def _cmd_stream(args) -> int:
    if not args.demo:
        print("repro stream currently only supports --demo", file=sys.stderr)
        return 2
    return _stream_demo(args)


def _stream_demo(args) -> int:
    """End-to-end streaming exercise (the CI gate).

    Checks: a registered stream matches einsum; a small delta takes the
    incremental path and its patched output is *bit-identical* (same
    coordinates, same bytes of values) to a from-scratch contraction of
    the mutated tensor under the same plan; a sweeping delta falls back
    to full recompute; the stale-read guard fires between a bump and
    its refresh; and the ``stream`` request kind round-trips through a
    live :class:`~repro.serve.ContractionService`.
    """
    import time

    import numpy as np

    import repro
    from repro.data.random_tensors import random_coo
    from repro.errors import StaleReadError
    from repro.machine.specs import DESKTOP
    from repro.serve import ContractionService, Request, ServiceConfig
    from repro.streaming import DeltaBatch, IncrementalEngine

    failures: list[str] = []

    def check(ok: bool, label: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
        if not ok:
            failures.append(label)

    nnz = 1200 if args.quick else 6000
    left = random_coo((2048, 48), nnz=nnz, seed=args.seed)
    right = random_coo((48, 400), nnz=nnz // 2, seed=args.seed + 1)

    print("stream demo:")
    engine = IncrementalEngine(DESKTOP)
    out0 = engine.register("demo", left, right, [(1, 0)])
    expect0 = repro.einsum("ij,jk->ik", left, right)
    check(out0.allclose(expect0), "registered stream matches einsum")

    # A delta confined to one row block (insert, update and delete all
    # land on nearby rows): one touched tile, so the density model
    # prices the patch far below a full recompute.
    victim = left.coords[:, int(np.argmin(left.coords[0]))]
    delta = DeltaBatch.from_ops(
        [("insert", (int(victim[0]), j % left.shape[1]), 1.0 + j)
         for j in range(8)]
        + [("delete", tuple(victim), 0.0)],
        left.shape,
    )
    t0 = time.perf_counter()
    stats = engine.apply_delta("demo", delta)
    dt_inc = time.perf_counter() - t0
    mutated = delta.apply(left)
    check(
        stats.mode == "incremental",
        f"small delta takes the incremental path (modeled fraction "
        f"{stats.modeled_fraction:.3f}, {stats.tiles_touched} of "
        f"{stats.tiles_total} tiles)",
    )
    out1 = engine.result("demo")
    fresh = IncrementalEngine(DESKTOP)
    ref1 = fresh.register(
        "ref", mutated, right, [(1, 0)], plan=engine._state("demo").plan
    )
    check(
        np.array_equal(out1.coords, ref1.coords)
        and np.array_equal(out1.values, ref1.values),
        "patched output is bit-identical to a from-scratch contraction",
    )

    # A delta sweeping most row blocks must fall back to full recompute.
    rows = np.linspace(0, left.shape[0] - 1, 400).astype(int)
    wide = DeltaBatch.inserts(
        np.stack([rows, np.full(rows.size, 3)]),
        np.ones(rows.size), left.shape,
    )
    t0 = time.perf_counter()
    stats_full = engine.apply_delta("demo", wide)
    dt_full = time.perf_counter() - t0
    check(
        stats_full.mode == "full",
        f"sweeping delta falls back to full recompute (modeled fraction "
        f"{stats_full.modeled_fraction:.3f})",
    )
    check(
        engine.result("demo").allclose(
            repro.einsum("ij,jk->ik", wide.apply(mutated), right)
        ),
        "output stays correct across the incremental/full chain",
    )
    print(f"  (incremental delta {dt_inc * 1e3:.1f} ms, "
          f"full recompute {dt_full * 1e3:.1f} ms)")

    stale = False
    engine.tracker.bump("demo.left")
    try:
        engine.result("demo")
    except StaleReadError:
        stale = True
    check(stale, "stale-read guard fires between bump and refresh")
    engine.invalidate("demo")

    with ContractionService(config=ServiceConfig(n_workers=2)) as service:
        resp = service.call(Request.stream(
            "served", "register", left=left, right=right, pairs=[(1, 0)],
        ))
        resp_d = service.call(Request.stream("served", "delta", delta=delta))
        ok = (
            resp.status == "ok" and resp_d.status == "ok"
            and resp_d.result is not None
            and resp_d.result.allclose(
                repro.einsum("ij,jk->ik", mutated, right)
            )
        )
        check(ok, f"stream requests serve end-to-end (delta path "
                  f"{resp_d.plan_source!r})")

    if failures:
        print(f"stream demo FAIL: {len(failures)} of 6 checks failed")
        return 1
    print("stream demo PASS")
    return 0


def _add_backend_flag(subparser) -> None:
    """Shared ``--backend`` flag (kernel backend selection)."""
    subparser.add_argument(
        "--backend", default=None,
        choices=["numpy", "scipy", "arrayapi", "auto"],
        help="kernel backend (default: $REPRO_BACKEND or the numpy "
             "reference; 'auto' picks per problem)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FaSTCC sparse tensor contraction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show version, machines and cases")

    run = sub.add_parser("run", help="run a registry benchmark case")
    run.add_argument("case")
    run.add_argument("--method", default="fastcc",
                     choices=["fastcc", "sparta", "taco", "ci", "cm", "co"])
    run.add_argument("--machine", default="desktop",
                     choices=["desktop", "server"])
    run.add_argument("--accumulator", default="auto",
                     choices=["auto", "dense", "sparse"])
    run.add_argument("--tile", type=int, default=None)
    run.add_argument("--workers", type=int, default=1)
    _add_backend_flag(run)

    plan = sub.add_parser("plan", help="evaluate Algorithm 7 for parameters")
    plan.add_argument("--L", type=int, required=True)
    plan.add_argument("--R", type=int, required=True)
    plan.add_argument("--C", type=int, required=True)
    plan.add_argument("--nnz-l", type=int, required=True, dest="nnz_l")
    plan.add_argument("--nnz-r", type=int, required=True, dest="nnz_r")
    plan.add_argument("--machine", default="desktop",
                      choices=["desktop", "server"])

    batch = sub.add_parser(
        "batch", help="run registry cases through the adaptive runtime"
    )
    batch.add_argument("cases", nargs="+",
                       help="registry case names, executed in order")
    batch.add_argument("--repeat", type=int, default=1,
                       help="repeat the whole pipeline N times")
    batch.add_argument("--machine", default="desktop",
                       choices=["desktop", "server"])
    batch.add_argument("--workers", type=int, default=1)
    batch.add_argument("--cache-file", default=None,
                       help="JSON plan-cache file (loaded if present, "
                            "saved on exit)")
    _add_backend_flag(batch)

    check = sub.add_parser(
        "check", help="static analysis: audit cases, lint an expression, "
                      "or lint the source tree"
    )
    check.add_argument("cases", nargs="*",
                       help="registry cases to audit (default: all)")
    check.add_argument("--machine", default="both",
                       choices=["desktop", "server", "both"])
    check.add_argument("--accumulator", default="all",
                       choices=["auto", "dense", "sparse", "all"])
    check.add_argument("--hazards", action="store_true",
                       help="also hazard-check each case's tile-task "
                            "write sets")
    check.add_argument("--workers", type=int, default=1,
                       help="worker count assumed by the hazard analysis")
    check.add_argument("--expr", default=None,
                       help="einsum subscripts to lint (e.g. 'ij,jk->ik')")
    check.add_argument("--shapes", default=None,
                       help="per-operand shapes, e.g. '100x200,200x50'")
    check.add_argument("--nnz", default=None,
                       help="per-operand nonzero counts, e.g. '1000,2000'")
    check.add_argument("--dtypes", default=None,
                       help="per-operand dtypes, e.g. 'float64,float64'")
    check.add_argument("--tile", type=int, default=None,
                       help="tile-size override to lint")
    check.add_argument("--self", dest="self_check", action="store_true",
                       help="AST-lint the repro source tree")
    check.add_argument("--passes", dest="passes_check", action="store_true",
                       help="self-test the network optimizer-pass "
                            "pipeline and its verifier (FSTC5xx)")
    check.add_argument("--json", action="store_true",
                       help="machine-readable findings (code, severity, "
                            "location, message) instead of text")

    net = sub.add_parser(
        "network", help="plan (and optionally execute) a multi-operand "
                        "tensor-network contraction"
    )
    net.add_argument("expr",
                     help="einsum subscripts, e.g. 'ij,jk,kl->il'")
    net.add_argument("--shapes", required=True,
                     help="per-operand shapes, e.g. '100x200,200x50,50x30'")
    net.add_argument("--nnz", default=None,
                     help="per-operand nonzero counts (default 1%% density)")
    net.add_argument("--optimizer", default="auto",
                     choices=["auto", "left", "greedy", "dp", "sparsity"])
    net.add_argument("--machine", default="desktop",
                     choices=["desktop", "server"])
    net.add_argument("--explain", action="store_true",
                     help="print the plan only; do not execute")
    net.add_argument("--json", action="store_true",
                     help="print the plan as JSON instead of the table")
    net.add_argument("--method", default="fastcc",
                     choices=["fastcc", "sparta", "taco", "ci", "cm", "co"])
    net.add_argument("--seed", type=int, default=0,
                     help="seed for the randomly drawn operands")
    net.add_argument("--repeat", type=int, default=1,
                     help="execute the network N times (repeats hit the "
                          "plan caches)")
    net.add_argument("--passes", default="default",
                     help="optimizer pass pipeline: 'default', 'none', "
                          "or a comma-separated pass list")
    net.add_argument("--workers", type=int, default=1)
    _add_backend_flag(net)

    serve = sub.add_parser(
        "serve", help="run a load generator against a live contraction "
                      "service and report SLO metrics"
    )
    serve.add_argument("--demo", action="store_true",
                       help="canned capacity-then-overload sequence "
                            "(exit 1 if the bounded-queue invariant or "
                            "any request fails)")
    serve.add_argument("--quick", action="store_true",
                       help="shrink --demo to the CI smoke budget")
    serve.add_argument("--policy", default="reject",
                       choices=["reject", "shed_oldest", "block"])
    serve.add_argument("--capacity", type=int, default=64,
                       help="admission queue bound")
    serve.add_argument("--workers", type=int, default=2,
                       help="service worker threads")
    serve.add_argument("--max-batch", type=int, default=8, dest="max_batch",
                       help="micro-batch drain size")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds")
    serve.add_argument("--requests", type=int, default=40,
                       help="synthetic request count")
    serve.add_argument("--signatures", type=int, default=4,
                       help="distinct problem signatures in the stream")
    serve.add_argument("--rate", type=float, default=50.0,
                       help="open-loop offered rate (requests/second)")
    serve.add_argument("--closed", type=int, default=0, metavar="N",
                       help="use N closed-loop clients instead of the "
                            "open-loop Poisson generator")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--shards", type=int, default=1,
                       help="front N shard processes with the "
                            "consistent-hash router (1 = in-process)")
    serve.add_argument("--cache-dir", default=None, dest="cache_dir",
                       help="per-shard plan-cache directory for "
                            "warm-start across restarts")
    serve.add_argument("--machine", default="desktop",
                       choices=["desktop", "server"])
    serve.add_argument("--json", action="store_true",
                       help="print the load report and service metrics "
                            "as one JSON document")
    serve.add_argument("--autotune", action="store_true",
                       help="explore challenger plans on eligible live "
                            "traffic (bandit autotuning)")
    serve.add_argument("--autotune-rate", type=float, default=0.05,
                       dest="autotune_rate",
                       help="fraction of eligible calls that may run a "
                            "challenger (default 0.05)")
    serve.add_argument("--autotune-state", default=None,
                       dest="autotune_state",
                       help="JSON file persisting learned weights, "
                            "measurements and promotions across restarts "
                            "(sharded serving derives per-shard files "
                            "from --cache-dir instead)")
    _add_backend_flag(serve)

    tune = sub.add_parser(
        "autotune", help="inspect, replay, reset, or self-check learned "
                         "autotune state"
    )
    tune.add_argument("--state", default=None,
                      help="autotune state file to operate on")
    tune.add_argument("--replay", action="store_true",
                      help="print the promotion/rollback audit log")
    tune.add_argument("--reset", action="store_true",
                      help="clear the learned state in place")
    tune.add_argument("--self-check", dest="self_check", action="store_true",
                      help="run the end-to-end tuner exercise (explore, "
                           "promote, roll back, persist) and exit nonzero "
                           "on any failed check")
    tune.add_argument("--quick", action="store_true",
                      help="shrink --self-check to the CI smoke budget")
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--json", action="store_true",
                      help="machine-readable output")

    stream = sub.add_parser(
        "stream", help="exercise the streaming subsystem (delta "
                       "ingestion, incremental re-contraction)"
    )
    stream.add_argument("--demo", action="store_true",
                        help="canned register/delta/fallback sequence "
                             "(exit 1 if any bit-identity, pricing or "
                             "staleness check fails)")
    stream.add_argument("--quick", action="store_true",
                        help="shrink --demo to the CI smoke budget")
    stream.add_argument("--seed", type=int, default=0)

    con = sub.add_parser("contract", help="contract two .tns files")
    con.add_argument("file_a")
    con.add_argument("file_b")
    con.add_argument("--pairs", required=True,
                     help="mode pairs as 'a:b,c:d' (left:right)")
    con.add_argument("--output", default="out.tns")
    con.add_argument("--method", default="fastcc")
    _add_backend_flag(con)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "info": _cmd_info,
        "run": _cmd_run,
        "plan": _cmd_plan,
        "contract": _cmd_contract,
        "batch": _cmd_batch,
        "check": _cmd_check,
        "network": _cmd_network,
        "serve": _cmd_serve,
        "autotune": _cmd_autotune,
        "stream": _cmd_stream,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
