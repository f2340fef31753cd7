"""The three workloads: cold pairs, warm iteration and mixed serving.

Each is a closed loop: one caller runs rounds of ops, one op at a time.
Each workload function takes ``(seed, seconds, trace)`` and returns the
result ``run.py`` prints: ``correct``, ``attempted``, ``failed`` and
``metrics``, plus the run's median ``host_speed`` (its times are stated
at nominal host speed, see ``hostspeed.py``).  Untraced runs report
the end-to-end metrics.  Traced runs first run part of the loop
untraced, then the same ops with spans on, and report the per-layer
metrics (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro import ContractionRuntime, ContractionService, NetworkExecutor, Request
from repro.analysis.counters import Counters
from repro.streaming import DeltaBatch

from e2ebench import inputs
from e2ebench.check import mismatch, reference
from e2ebench.hostspeed import HostSpeed
from e2ebench.inputs import PairOp
from e2ebench.spans import Tracer, layer_metrics, per_op

#: Operand-cache capacity of the warm runtime: every fixed operand of
#: ``warm_iter`` plus the intermediates of one round stay resident.
WARM_OPERAND_CACHE = 32

#: Streams in the served mix.
N_STREAMS = 2

#: Per-request wait bound; a response slower than this is a failure.
RESPONSE_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------------
# shared bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """What one invocation accumulates: checked ops and host-speed probes."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)

    def note(self, why: str | None, label: str) -> None:
        """Count one checked op; ``why`` is its failure, if any."""
        self.attempted += 1
        if why is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {why}")

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted

    def result(self, metrics: dict) -> dict:
        for reason in self.reasons:
            print(f"FAILED {reason}", file=sys.stderr)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "host_speed": self.speed.factor,
        }


def digest(tensor) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(tensor.coords).tobytes())
    h.update(np.ascontiguousarray(tensor.values).tobytes())
    return h.digest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def rounds_per_s(times: list, per_round: int) -> float:
    """Ops per second at the median complete round (robust to stalls);
    a run too short for one round falls back to the mean."""
    n = len(times) // per_round
    if n == 0:
        return len(times) / sum(times)
    rounds = [sum(times[k * per_round:(k + 1) * per_round]) for k in range(n)]
    return per_round / float(np.median(rounds))


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def counter_delta(after: dict, before: dict) -> dict:
    out = {k: after[k] - before.get(k, 0) for k in after}
    out["workspace_cells"] = after["workspace_cells"]
    return out


def kernel_counts(counts: dict, n_ops: int) -> dict:
    """Kernel counters per op (``workspace_cells`` is a peak)."""
    per = max(n_ops, 1)
    return {
        "kernel.hash_queries": counts["hash_queries"] / per,
        "kernel.accum_updates": counts["accum_updates"] / per,
        "kernel.data_volume": counts["data_volume"] / per,
        "kernel.tasks": counts["tasks"] / per,
        "kernel.workspace_cells": float(counts["workspace_cells"]),
        "kernel.output_nnz": counts["output_nnz"] / per,
    }


def cache_rates(counts: dict, net_before: dict, net_after: dict) -> dict:
    """Runtime and network cache metrics over one traced window."""

    def net(key):
        return net_after[key] - net_before[key]

    return {
        "runtime.plan_hit_rate": ratio(
            counts["plan_cache_hits"], counts["plan_cache_misses"]),
        "runtime.table_reuse_rate": ratio(
            counts["table_reuse_hits"], counts["table_builds"]),
        "network.plan_hit_rate": ratio(
            net("network_plan_hits"), net("network_plan_misses")),
        "network.cse_hits": float(net("cse_hits")),
    }


def trace_metrics(spans, *, overhead: float, extra: dict, factor: float = 1.0) -> dict:
    """Every per-layer metric: the span-derived ones (self times scaled by
    ``factor``), then ``extra`` (metrics of layers a workload does not run
    stay 0)."""
    ops = per_op(spans)
    layers = layer_metrics(ops)
    builds = [op["calls"].get("build_tiled_tables", 0) for op in ops.values()]
    metrics = {
        f"{layer}.{kind}": layers[f"{layer}.{kind}"] * (factor if kind == "ms" else 1.0)
        for layer in ("linearize", "tables", "plan", "kernel", "delinearize")
        for kind in ("ms", "share")
    }
    metrics.update({
        "tables.builds": float(np.mean(builds)) if builds else 0.0,
        "runtime.ms": layers["runtime.ms"] * factor,
        "network.plan_ms": layers["network.plan.ms"] * factor,
        "network.ms": layers["network.ms"] * factor,
        "trace.overhead_frac": overhead,
        "trace.coverage": layers["coverage"],
    })
    for name in (
        "runtime.plan_hit_rate", "runtime.table_reuse_rate",
        "network.plan_hit_rate", "network.cse_hits",
        "serve.queue_wait_p95_ms", "serve.execute_p50_ms",
        "serve.queue_high_water", "serve.shed", "serve.timeout",
        "serve.batch_cse_hits", "streaming.delta_ms",
        "streaming.incremental_ratio", "streaming.invalidations",
    ):
        metrics[name] = 0.0
    metrics.update(extra)
    return metrics


# ---------------------------------------------------------------------------
# closed loops (cold_pairs, warm_iter)
# ---------------------------------------------------------------------------


def closed_loop(ops_at, run_op, refs_at, seconds: float, run: Run, per_round: int,
                *, tracer: Tracer | None = None, expect: list | None = None):
    """One caller, one op at a time, for whole rounds of ``per_round``
    ops until ``seconds`` of wall clock have passed.

    ``ops_at(k)`` gives the ``k``-th op, ``run_op(op)`` runs it and
    ``refs_at(k, op)`` its reference.  Checking, and a host-speed probe
    before every round, happen between ops, outside the timed call; each
    op time is stated at nominal speed by its round's probe.  With
    ``expect`` (the output digests of an earlier untraced pass) the loop
    stops after that many ops and each output must also be bit-identical
    to the earlier one.  Returns ``(op seconds, output digests)``.
    """
    times: list[float] = []
    digests: list[bytes] = []
    deadline = time.perf_counter() + seconds
    k = 0
    while expect is None or k < len(expect):
        if k % per_round == 0:
            if time.perf_counter() >= deadline:
                break
            factor = run.speed.probe()
        op = ops_at(k)
        t0 = time.perf_counter()
        out = tracer.call("op", run_op, op) if tracer else run_op(op)
        times.append((time.perf_counter() - t0) * factor)
        digests.append(digest(out))
        with tracer.paused() if tracer else contextlib.nullcontext():
            why = mismatch(out, refs_at(k, op))
        if why is None and expect is not None and digests[-1] != expect[k]:
            why = "traced output differs from the untraced output"
        run.note(why, f"op {k} ({op.name})")
        k += 1
    return times, digests


def closed_loop_metrics(times: list, per_round: int, run: Run) -> dict:
    """End-to-end metrics of a one-caller loop.  With one caller there is
    one load level, so the peak p95 is the p95 and the highest rate
    served is the rate the caller sustained."""
    rate = rounds_per_s(times, per_round)
    p95 = percentile_ms(times, 95)
    return {
        "ops_per_s": rate,
        "latency_p50_ms": percentile_ms(times, 50),
        "latency_p95_ms": p95,
        "latency_p95_ms_peak": p95,
        "max_rate_rps": rate,
        "ok_frac": run.ok_frac,
    }


def traced_closed_loop(ops_at, run_op, refs_at, seconds: float, run: Run,
                       per_round: int, counters_of):
    """Half the time untraced, then the same ops traced.  ``counters_of()``
    snapshots the counters the ops tally into.  Returns ``(spans, traced
    over untraced time, counter deltas, traced op count, host-speed
    factor of the traced half)``."""
    times_a, digests_a = closed_loop(
        ops_at, run_op, refs_at, seconds / 2, run, per_round)
    before = counters_of()
    probes_before = len(run.speed.samples)
    with Tracer() as tracer:
        times_b, _ = closed_loop(
            ops_at, run_op, refs_at, seconds / 2, run, per_round,
            tracer=tracer, expect=digests_a,
        )
    n = len(times_b)
    overhead = sum(times_b) / sum(times_a[:n])
    factor = float(np.median(run.speed.samples[probes_before:]))
    return tracer.spans, overhead, counter_delta(counters_of(), before), n, factor


# ---------------------------------------------------------------------------
# cold_pairs
# ---------------------------------------------------------------------------


def cold_setup(seed: int) -> float:
    """Program set-up for ``cold_pairs``: the first call of each shape."""
    ops = [inputs.cold_pair(seed, k, stream=9) for k in range(len(inputs.COLD_SHAPES))]
    t0 = time.perf_counter()
    for op in ops:
        repro.contract(op.left, op.right, op.pairs)
    return time.perf_counter() - t0


def cold_pairs(seed: int, seconds: float, trace: bool) -> dict:
    run = Run()
    per_round = len(inputs.COLD_SHAPES)
    counters = Counters()
    cold_setup(seed)  # lazy imports and first-call work, untimed

    def run_op(op):
        return repro.contract(op.left, op.right, op.pairs, counters=counters)

    ops_at = lambda k: inputs.cold_pair(seed, k)  # noqa: E731
    refs_at = lambda k, op: reference(op)  # noqa: E731
    if not trace:
        times, _ = closed_loop(ops_at, run_op, refs_at, seconds, run, per_round)
        return run.result(closed_loop_metrics(times, per_round, run))
    spans, overhead, counts, n, factor = traced_closed_loop(
        ops_at, run_op, refs_at, seconds, run, per_round, counters.snapshot)
    return run.result(trace_metrics(
        spans, overhead=overhead, extra=kernel_counts(counts, n), factor=factor))


# ---------------------------------------------------------------------------
# warm_iter
# ---------------------------------------------------------------------------


def warm_call(executor: NetworkExecutor, op):
    if isinstance(op, PairOp):
        return executor.runtime.contract(op.left, op.right, op.pairs)
    return executor.contract(op.subscripts, *op.operands)


def warm_setup(items) -> tuple[NetworkExecutor, float]:
    """Program set-up for ``warm_iter``: build the executor and run every
    item once, which plans it and fills the table caches."""
    t0 = time.perf_counter()
    runtime = ContractionRuntime(operand_cache_size=WARM_OPERAND_CACHE)
    executor = NetworkExecutor(runtime=runtime)
    for op in items:
        warm_call(executor, op)
    return executor, time.perf_counter() - t0


def warm_iter(seed: int, seconds: float, trace: bool) -> dict:
    run = Run()
    items = inputs.warm_items(seed)
    refs = [reference(op) for op in items]
    executor, _ = warm_setup(items)
    ops_at = lambda k: items[k % len(items)]  # noqa: E731
    refs_at = lambda k, op: refs[k % len(items)]  # noqa: E731
    run_op = lambda op: warm_call(executor, op)  # noqa: E731
    # A second untimed round, so the timed loop starts with warm caches.
    for op, ref in zip(items, refs):
        run.note(mismatch(run_op(op), ref), f"warm-up ({op.name})")
    if not trace:
        times, _ = closed_loop(ops_at, run_op, refs_at, seconds, run, len(items))
        return run.result(closed_loop_metrics(times, len(items), run))
    net_before = executor.metrics()
    spans, overhead, counts, n, factor = traced_closed_loop(
        ops_at, run_op, refs_at, seconds, run, len(items),
        executor.runtime.counters.snapshot)
    extra = kernel_counts(counts, n)
    extra.update(cache_rates(counts, net_before, executor.metrics()))
    return run.result(trace_metrics(
        spans, overhead=overhead, extra=extra, factor=factor))


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeOp:
    """One request of the served round: a template, or a stream op."""

    name: str
    template: int = -1  # index into the templates, or -1 for a stream op
    stream: int = -1
    write: bool = False


class ServeBench:
    """The served mix: one service, warm templates and two streams."""

    def __init__(self, seed: int):
        self.templates = inputs.serve_templates(seed)
        self.streams = [
            inputs.stream_inputs(f"s{k}", inputs.derive_seed(seed, 6, k))
            for k in range(N_STREAMS)
        ]
        self.service: ContractionService | None = None
        self.requests: list = []
        self.writes = [0] * N_STREAMS
        self.responses: list = []  # (status, timings) of every request
        # One round: every template, then per stream a full write cycle
        # (insert X1, insert X2, delete X1, delete X2), each write read
        # back by a query, so a round leaves every stream as it found it.
        self.round = [ServeOp(op.name, template=i) for i, op in enumerate(self.templates)]
        for k, s in enumerate(self.streams):
            for _ in range(4):
                self.round += [ServeOp(f"{s.name} delta", stream=k, write=True),
                               ServeOp(f"{s.name} query", stream=k)]

    def references(self) -> None:
        self.refs = [reference(op) for op in self.templates]
        self.stream_refs = [
            [reference(PairOp(s.name, s.state(n), s.right, s.pairs)) for n in range(4)]
            for s in self.streams
        ]

    def setup(self) -> float:
        """Program set-up: start the service, register every stream and
        serve each template once."""
        t0 = time.perf_counter()
        self.service = ContractionService().start()
        for s in self.streams:
            resp = self.service.call(
                Request.stream(s.name, "register", left=s.left, right=s.right,
                               pairs=s.pairs),
                timeout=RESPONSE_TIMEOUT_S,
            )
            if not resp.ok:
                raise RuntimeError(f"stream {s.name} did not register: {resp.detail}")
        self.requests = [
            Request.pairwise(op.left, op.right, op.pairs, name=op.name)
            if isinstance(op, PairOp)
            else Request.network(op.subscripts, *op.operands, name=op.name)
            for op in self.templates
        ]
        for req in self.requests:
            self.service.call(req, timeout=RESPONSE_TIMEOUT_S)
        return time.perf_counter() - t0

    def close(self) -> None:
        if self.service is not None:
            self.service.stop(drain=True, timeout=RESPONSE_TIMEOUT_S)

    def _request(self, op: ServeOp):
        if op.template >= 0:
            return self.requests[op.template]
        s = self.streams[op.stream]
        if not op.write:
            return Request.stream(s.name, "query")
        kind, block = s.delta_ops(self.writes[op.stream])
        coords = s.blocks[block].coords
        delta = (
            DeltaBatch.inserts(coords, s.blocks[block].values, s.left.shape)
            if kind == "insert" else DeltaBatch.deletes(coords, s.left.shape)
        )
        return Request.stream(s.name, "delta", delta=delta, side="left")

    def call(self, op: ServeOp):
        """Submit one request and wait for it; its result, or ``None``."""
        resp = self.service.call(self._request(op), timeout=RESPONSE_TIMEOUT_S)
        self.responses.append((resp.status, resp.timings))
        if not resp.ok:
            return None
        if op.write:
            self.writes[op.stream] += 1
        return resp.result

    def reference_of(self, op: ServeOp):
        if op.template >= 0:
            return self.refs[op.template]
        return self.stream_refs[op.stream][self.writes[op.stream] % 4]


def serve_setup(seed: int) -> float:
    bench = ServeBench(seed)
    try:
        return bench.setup()
    finally:
        bench.close()


def serve_mixed(seed: int, seconds: float, trace: bool) -> dict:
    run = Run()
    bench = ServeBench(seed)
    bench.references()
    per_round = len(bench.round)
    ops_at = lambda k: bench.round[k % per_round]  # noqa: E731
    refs_at = lambda k, op: bench.reference_of(op)  # noqa: E731
    try:
        bench.setup()
        if not trace:
            times, _ = closed_loop(ops_at, bench.call, refs_at, seconds, run, per_round)
            return run.result(closed_loop_metrics(times, per_round, run))
        service = bench.service
        net_before = service.executor.metrics()
        stream_before = service.metrics_json()["streaming"]
        spans, overhead, counts, n, factor = traced_closed_loop(
            ops_at, bench.call, refs_at, seconds, run, per_round,
            service.runtime.counters.snapshot)
        return run.result(trace_metrics(
            spans, overhead=overhead, factor=factor,
            extra=serve_extras(bench, spans, counts, n, factor, net_before,
                               stream_before)))
    finally:
        bench.close()


def serve_extras(bench, spans, counts, n, factor, net_before, stream_before) -> dict:
    """Serve and streaming metrics over the traced ops."""
    service = bench.service
    net_after = service.executor.metrics()
    stream_after = service.metrics_json()["streaming"]
    traced = bench.responses[-n:]

    def stream(key):
        return stream_after[key] - stream_before[key]

    def stage_ms(stage, q):
        return percentile_ms([timings.get(stage, 0.0) for _, timings in traced], q) * factor

    delta_ms = [
        (t1 - t0) * 1e3 * factor for _, _, _, name, t0, t1 in spans
        if name == "stream.apply_delta"
    ]
    extra = kernel_counts(counts, n)
    extra.update(cache_rates(counts, net_before, net_after))
    extra.update({
        "serve.queue_wait_p95_ms": stage_ms("queue_wait", 95),
        "serve.execute_p50_ms": stage_ms("execute", 50),
        "serve.queue_high_water": float(service.queue.stats()["high_water"]),
        "serve.shed": float(sum(status == "shed" for status, _ in traced)),
        "serve.timeout": float(sum(status == "timeout" for status, _ in traced)),
        "serve.batch_cse_hits": float(
            net_after["batch_cse_hits"] - net_before["batch_cse_hits"]),
        "streaming.delta_ms": float(np.median(delta_ms)) if delta_ms else 0.0,
        "streaming.incremental_ratio": ratio(
            stream("incremental"), stream("deltas_applied") - stream("incremental")),
        "streaming.invalidations": float(
            stream_after["tracker"]["invalidations"]
            - stream_before["tracker"]["invalidations"]),
    })
    return extra


WORKLOADS = {
    "cold_pairs": cold_pairs,
    "warm_iter": warm_iter,
    "serve_mixed": serve_mixed,
}


def setup_probe(workload: str, seed: int) -> float:
    """Seconds of program set-up after import, inputs excluded."""
    if workload == "cold_pairs":
        return cold_setup(seed)
    if workload == "warm_iter":
        return warm_setup(inputs.warm_items(seed))[1]
    return serve_setup(seed)
