"""The contraction service: admission, workers, deadlines, degradation.

:class:`ContractionService` fronts the adaptive runtime and the network
executor with the serving machinery the ROADMAP's traffic shape needs:

* **bounded admission** through an :class:`~repro.serve.queueing.AdmissionQueue`
  (policies ``reject`` / ``shed_oldest`` / ``block``) — overload becomes
  explicit ``shed`` responses or submitter backpressure, never unbounded
  queue growth;
* a **worker pool** draining the queue in micro-batches reordered by
  :func:`~repro.serve.batching.affinity_order`, so requests sharing a
  :class:`~repro.runtime.signature.ProblemSignature` (across users, not
  just within one caller) replay warm plans and tables through the one
  shared :class:`~repro.runtime.ContractionRuntime`;
* **deadline enforcement with a degradation ladder** — cooperative
  checks between pipeline stages, and when the remaining budget is
  smaller than :data:`DEGRADE_MARGIN` times the request's model-predicted
  cost floor, the worker steps down the ladder instead of running the
  full pipeline:

  1. *cached-plan*: replay the plan cache entry for the request's
     signature (numerically identical to the full path — only the
     planning work is skipped);
  2. *cheap-path*: no cached plan — pairwise requests run under the
     directly-chosen sparse accumulator (skipping Algorithm 7's dense
     probe estimate), network requests take the left-to-right path
     (skipping DP/greedy path search).

  Either rung marks the response ``degraded``; a deadline that expires
  before execution yields ``timeout`` without burning kernel time.
* **SLO metrics** (:class:`~repro.serve.slo.ServiceMetrics`): per-stage
  latency histograms, terminal status counts, queue stats and the
  runtime/network cache hit rates, exported as one JSON document.

Construction refuses the error-severity findings of
:meth:`ServiceConfig.diagnostics` (``FSTC301``, and with autotuning on
``FSTC601``/``FSTC603``), so an unbounded queue or a runaway
exploration rate can not reach production; warnings are kept on
``config_diagnostics``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError, ReproError, SchedulerError
from repro.machine.specs import DESKTOP, MachineSpec
from repro.network.executor import NetworkExecutor, StepResultCache
from repro.network.ir import TensorNetwork
from repro.network.optimize import resolve_optimizer
from repro.network.plan import NetworkSignature
from repro.runtime.executor import ContractionRuntime
from repro.runtime.signature import signature_for
from repro.serve.batching import affinity_order
from repro.serve.queueing import BLOCK, POLICIES, AdmissionQueue
from repro.serve.request import (
    NETWORK,
    PAIRWISE,
    STREAM,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    Job,
    Request,
    Response,
    Ticket,
)
from repro.serve.slo import ServiceMetrics
from repro.staticcheck.diagnostics import (
    Diagnostic,
    make_diagnostic,
    refuse_errors,
)

if TYPE_CHECKING:
    from repro.autotune.tuner import TunerConfig

__all__ = ["ServiceConfig", "ContractionService"]


#: A request enters the degradation ladder when its remaining budget is
#: below this multiple of its model-predicted cost floor.
DEGRADE_MARGIN = 1.5

#: How long an idle worker blocks on the queue before re-checking for
#: shutdown.
DRAIN_TIMEOUT_S = 0.05

#: Autotune exploration is eligible only at or below this queue depth
#: (exploring under pressure spends latency the backlog cannot afford).
AUTOTUNE_MAX_QUEUE_DEPTH = 4

#: Above this staleness threshold the density model prices the patch at
#: most of a full recompute — incremental bookkeeping stops paying.
MAX_SANE_STALENESS = 0.75

#: A mutation-log bound above this is unbounded for practical purposes.
MAX_SANE_LOG_MAXLEN = 1_000_000


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`ContractionService`.

    ``force_degraded`` pins every request to the degradation ladder
    regardless of budget — a test/bench knob for exercising the
    degraded paths deterministically.

    ``backend`` names the kernel backend the service's runtime executes
    on (``"numpy"`` reference, ``"scipy"``, ``"arrayapi"``, or
    ``"auto"`` for the per-signature policy; see
    :mod:`repro.backends`).  The default keeps served results
    bit-identical to direct ``contract()`` calls.

    ``cross_request_cse`` shares intermediate step results *across the
    network requests of one drained micro-batch*: each worker hands the
    batch a fresh :class:`~repro.network.executor.StepResultCache`, so
    two requests contracting the same subnetwork (verified by content
    digest) compute it once.  The cache dies with the batch — nothing
    leaks between batches or workers.

    ``autotune`` is a :class:`~repro.autotune.TunerConfig` enabling
    online bandit exploration (:mod:`repro.autotune`), or ``None``
    (off): a bounded fraction (``explore_rate``) of *eligible* requests
    — no deadline, not degraded, queue depth at most
    :data:`AUTOTUNE_MAX_QUEUE_DEPTH` — execute a challenger plan
    instead of the cached champion, and a challenger that wins by
    ``promote_margin`` over ``min_trials`` measured trials is promoted
    (with automatic rollback on regression).  Its ``state_path``
    persists the learned state across restarts; leaving it unset
    relearns from scratch every process (``FSTC602`` warns).

    ``stream_staleness_threshold`` and ``stream_log_maxlen`` configure
    the engine behind ``stream`` requests: the fraction of the modeled
    full recompute below which a delta is serviced by tile patching,
    and the per-stream mutation-log bound.

    Values no consumer could use raise :class:`ConfigError` here;
    values that are usable but unsafe to serve with are findings of
    :meth:`diagnostics`, which :class:`ContractionService` refuses
    (errors) or keeps (warnings).
    """

    queue_capacity: int = 64
    policy: str = "reject"
    n_workers: int = 2
    max_batch: int = 8
    default_deadline_s: float | None = None
    force_degraded: bool = False
    plan_cache_size: int = 128
    operand_cache_size: int = 16
    backend: str = "numpy"
    cross_request_cse: bool = True
    autotune: TunerConfig | None = None
    stream_staleness_threshold: float = 0.35
    stream_log_maxlen: int = 256

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigError(
                "default_deadline_s must be positive or None, got "
                f"{self.default_deadline_s}"
            )
        for name in ("plan_cache_size", "operand_cache_size"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        from repro.backends.registry import known_backends

        if self.backend != "auto" and self.backend not in known_backends():
            raise ConfigError(
                f"backend must be 'auto' or one of {known_backends()}, "
                f"got {self.backend!r}"
            )
        # The stream engine is built on the first stream request; refuse
        # the knobs it would refuse now, with the engine's own message.
        from repro.streaming.engine import check_stream_knobs

        check_stream_knobs(
            self.stream_staleness_threshold, self.stream_log_maxlen
        )

    def diagnostics(
        self, machine: MachineSpec, *, location: str = "service config"
    ) -> list[Diagnostic]:
        """``FSTC301``/``FSTC303``, the tuner's ``FSTC6xx`` and
        ``FSTC703``/``FSTC704`` findings against ``machine``.

        An unbounded or undrainable queue turns overload into unbounded
        memory growth instead of shedding (``FSTC301``, error); a pool
        wider than the machine's cores oversubscribes the CPU the cost
        model was calibrated against (``FSTC303``).  A staleness
        threshold above :data:`MAX_SANE_STALENESS` patches when a
        recompute is nearly as cheap (``FSTC703``), and a log bound
        above :data:`MAX_SANE_LOG_MAXLEN` is effectively unbounded
        (``FSTC704``).
        """
        out: list[Diagnostic] = []
        capacity = self.queue_capacity
        if capacity is None or int(capacity) < 1:
            out.append(make_diagnostic(
                "FSTC301",
                f"admission queue capacity {capacity!r} is unbounded or "
                "non-positive; overload would grow the queue without limit",
                hint="set queue_capacity to a positive bound sized for the "
                     "acceptable queueing delay",
                location=location,
            ))
        if self.n_workers < 1:
            out.append(make_diagnostic(
                "FSTC301",
                f"worker pool size {self.n_workers} cannot drain the queue",
                hint="use at least one worker",
                location=location,
            ))
        if self.max_batch < 1:
            out.append(make_diagnostic(
                "FSTC301",
                f"max_batch {self.max_batch} cannot form micro-batches",
                hint="use max_batch >= 1",
                location=location,
            ))
        if self.n_workers > machine.n_cores:
            out.append(make_diagnostic(
                "FSTC303",
                f"{self.n_workers} workers oversubscribe {machine.name}'s "
                f"{machine.n_cores} cores",
                hint="size the pool at or below the core count the cost "
                     "model was calibrated for",
                location=location,
            ))
        if self.autotune is not None:
            out += self.autotune.diagnostics(location=location)
        threshold = self.stream_staleness_threshold
        if threshold > MAX_SANE_STALENESS:
            out.append(make_diagnostic(
                "FSTC703",
                f"staleness threshold {threshold} patches even when the "
                "density model prices the patch at more than "
                f"{MAX_SANE_STALENESS:.0%} of a full recompute",
                hint=f"keep staleness_threshold at or below "
                     f"{MAX_SANE_STALENESS}",
                location=location,
            ))
        if self.stream_log_maxlen > MAX_SANE_LOG_MAXLEN:
            out.append(make_diagnostic(
                "FSTC704",
                f"mutation-log bound {self.stream_log_maxlen} is "
                f"effectively unbounded (> {MAX_SANE_LOG_MAXLEN})",
                hint="bound the log to what replay/audit actually needs",
                location=location,
            ))
        return out


class ContractionService:
    """Concurrent contraction serving over one shared runtime.

    Parameters
    ----------
    machine:
        Platform model for planning, affinity signatures and the cost
        floor.
    config:
        A :class:`ServiceConfig`; defaults when omitted.
    runtime:
        A shared :class:`ContractionRuntime` (built fresh from the
        config's cache sizes when omitted).
    executor:
        A shared :class:`NetworkExecutor`; when omitted, one is built
        *over the same runtime*, so network steps and pairwise requests
        hit the same plan/table caches.
    """

    def __init__(
        self,
        machine: MachineSpec = DESKTOP,
        config: ServiceConfig | None = None,
        *,
        runtime: ContractionRuntime | None = None,
        executor: NetworkExecutor | None = None,
    ):
        self.machine = machine
        self.config = config if config is not None else ServiceConfig()
        self.config_diagnostics = refuse_errors(
            self.config.diagnostics(machine), "service config"
        )
        self.runtime = runtime if runtime is not None else ContractionRuntime(
            machine=machine,
            cache_size=self.config.plan_cache_size,
            operand_cache_size=self.config.operand_cache_size,
            backend=self.config.backend,
        )
        self.executor = executor if executor is not None else NetworkExecutor(
            machine=machine, runtime=self.runtime
        )
        self.tuner = None
        if self.config.autotune is not None:
            from repro.autotune import OnlineTuner

            self.tuner = OnlineTuner(
                machine, self.config.autotune
            ).attach(self.runtime)
        # Streaming engine, created on first stream request.  One lock
        # serializes all stream operations: deltas against one stream
        # are order-sensitive, and the engine's state is shared across
        # the worker pool.
        self._stream_engine = None
        self._stream_lock = threading.Lock()
        self.queue = AdmissionQueue(
            self.config.queue_capacity, self.config.policy
        )
        self.metrics = ServiceMetrics()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._floors: dict[str, float] = {}
        self._floors_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._started = False
        self._stopped = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ContractionService":
        """Spawn the worker pool (idempotent until :meth:`stop`)."""
        if self._stopped:
            raise SchedulerError("a stopped service cannot be restarted")
        if not self._started:
            self._started = True
            for k in range(self.config.n_workers):
                t = threading.Thread(
                    target=self._worker_loop,
                    name=f"serve-worker-{k}",
                    daemon=True,
                )
                t.start()
                self._workers.append(t)
        return self

    def stop(self, *, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Close admission and wind the pool down.

        ``drain=True`` (default) lets workers finish every admitted
        request; ``drain=False`` sheds whatever is still queued.
        """
        if not self._started or self._stopped:
            self._stopped = True
            self.queue.close()
            return
        self._stopped = True
        self.queue.close()
        if not drain:
            for job in self.queue.drain_all():
                self._finish(job, Response(
                    name=job.request.name, status=STATUS_SHED,
                    detail="service stopped before execution",
                ), arrival=job.arrival)
        for t in self._workers:
            t.join(timeout)
        self._workers.clear()
        if self.tuner is not None:
            self.tuner.flush()

    def __enter__(self) -> "ContractionService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def close(self) -> None:
        """Tear down without draining (idempotent, interrupt-safe).

        The CLI calls this from a ``finally`` so a KeyboardInterrupt
        still sheds queued work and winds down worker threads; the
        sharded front end's :meth:`ShardRouter.close` additionally
        reaps shard processes.
        """
        self.stop(drain=False, timeout=5.0)

    @property
    def running(self) -> bool:
        return self._started and not self._stopped

    # -- client surface -------------------------------------------------

    def submit(self, request: Request) -> Ticket:
        """Admit one request; always returns a ticket that resolves.

        A refused admission (full queue under ``reject``, closed
        service, exhausted ``block`` wait) resolves the ticket as
        ``shed`` immediately; a ``shed_oldest`` eviction resolves the
        *victim's* ticket as ``shed``.
        """
        if not self._started:
            raise SchedulerError(
                "service is not running; use `with service:` or start()"
            )
        ticket = Ticket()
        now = time.monotonic()
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        job = Job(
            request=request,
            ticket=ticket,
            seq=self._next_seq(),
            arrival=now,
            deadline_at=None if deadline_s is None else now + deadline_s,
            affinity=request.affinity_key(self.machine),
        )
        self.metrics.note_submitted()
        block_timeout = deadline_s if self.config.policy == BLOCK else None
        admitted, evicted = self.queue.offer(job, timeout=block_timeout)
        if evicted is not None:
            self._finish(evicted, Response(
                name=evicted.request.name, status=STATUS_SHED,
                detail="evicted by a newer arrival (shed_oldest)",
            ), arrival=evicted.arrival)
        if not admitted:
            self._finish(job, Response(
                name=request.name, status=STATUS_SHED,
                detail=f"admission refused (policy {self.config.policy}, "
                       f"capacity {self.config.queue_capacity})",
            ), arrival=job.arrival)
        return ticket

    def call(
        self, request: Request, *, timeout: float | None = None
    ) -> Response:
        """Submit and block for the terminal response."""
        return self.submit(request).result(timeout)

    def invalidate_stream(self, name: str) -> int:
        """Drop one stream's cached state (idempotent, queue-bypassing).

        The sharded router fans this out to *every* shard: streams have
        shard affinity, but after a death/respawn or a ring rebalance a
        stream's state may survive on a shard that no longer owns it —
        broadcasting makes the invalidation reach any such orphan.
        Returns the number of tracked artifacts released (0 when this
        service holds no state for the stream).
        """
        with self._stream_lock:
            if self._stream_engine is None:
                return 0
            return self._stream_engine.invalidate(name)

    # -- metrics --------------------------------------------------------

    def metrics_json(self) -> dict:
        """One JSON document covering the whole serving stack."""
        payload = self.metrics.to_json()
        payload["queue"] = self.queue.stats()
        payload["runtime"] = self.runtime.metrics()
        payload["network"] = self.executor.metrics()
        payload["machine"] = self.machine.name
        if self.tuner is not None:
            payload["autotune"] = self.tuner.metrics()
        with self._stream_lock:
            if self._stream_engine is not None:
                payload["streaming"] = self._stream_engine.metrics()
        return payload

    # -- internals ------------------------------------------------------

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def _cost_floor(self, job: Job) -> float:
        """Memoized model cost floor per affinity key."""
        from repro.staticcheck import cost_floor_seconds

        with self._floors_lock:
            floor = self._floors.get(job.affinity)
        if floor is None:
            floor = cost_floor_seconds(job.request, self.machine)
            with self._floors_lock:
                self._floors[job.affinity] = floor
        return floor

    def _worker_loop(self) -> None:
        while True:
            jobs = self.queue.drain(
                self.config.max_batch, timeout=DRAIN_TIMEOUT_S
            )
            if jobs:
                batch_cache = (
                    StepResultCache() if self.config.cross_request_cse
                    else None
                )
                for job in affinity_order(jobs):
                    self._process(job, batch_cache=batch_cache)
                continue
            if self.queue.closed:
                return

    def _finish(
        self, job: Job, response: Response, *, arrival: float | None = None
    ) -> None:
        if arrival is not None and "total" not in response.timings:
            response.timings["total"] = time.monotonic() - arrival
        self.metrics.observe(response)
        job.ticket.resolve(response)

    def _process(
        self, job: Job, *, batch_cache: StepResultCache | None = None
    ) -> None:
        request = job.request
        now = time.monotonic()
        timings = {"queue_wait": now - job.arrival}

        # Stage check 1: a dead-on-arrival deadline skips execution.
        if job.deadline_at is not None and now >= job.deadline_at:
            self._finish(job, Response(
                name=request.name, status=STATUS_TIMEOUT,
                detail="deadline expired while queued",
                timings=timings,
            ), arrival=job.arrival)
            return

        # Stage check 2: decide full pipeline vs. degradation ladder.
        degrade = self.config.force_degraded
        if not degrade and job.deadline_at is not None:
            remaining = job.deadline_at - now
            degrade = (
                remaining < DEGRADE_MARGIN * self._cost_floor(job)
            )

        # Exploration eligibility: never on degraded or deadline-carrying
        # requests, and only while the queue is shallow (exploring under
        # pressure spends latency the backlog cannot afford).
        bracket = contextlib.nullcontext()
        if self.tuner is not None:
            eligible = (
                not degrade
                and job.deadline_at is None
                and self.queue.depth <= AUTOTUNE_MAX_QUEUE_DEPTH
            )
            bracket = self.tuner.serving(eligible=eligible)

        t0 = time.perf_counter()
        try:
            with bracket:
                if request.kind == PAIRWISE:
                    result, record, rung = self._run_pairwise(request, degrade)
                    plan_source = record.plan_source
                    accumulator, tile = record.accumulator, record.tile
                elif request.kind == NETWORK:
                    result, report, rung = self._run_network(
                        request, degrade, batch_cache=batch_cache
                    )
                    plan_source = report.plan_source
                    accumulator, tile = "", 0
                elif request.kind == STREAM:
                    result, plan_source, rung = self._run_stream(request)
                    accumulator, tile = "", 0
                else:
                    raise ConfigError(
                        f"unknown request kind {request.kind!r}"
                    )
        except ReproError as exc:
            timings["execute"] = time.perf_counter() - t0
            self._finish(job, Response(
                name=request.name, status=STATUS_FAILED,
                detail=f"{type(exc).__name__}: {exc}",
                timings=timings,
            ), arrival=job.arrival)
            return
        timings["execute"] = time.perf_counter() - t0

        # Stage check 3: work that outlived its budget reports timeout
        # (the late result stays attached for best-effort callers).
        status = STATUS_DEGRADED if rung else STATUS_OK
        detail = ""
        if job.deadline_at is not None and time.monotonic() > job.deadline_at:
            status = STATUS_TIMEOUT
            detail = "completed after the deadline (late result attached)"
        self._finish(job, Response(
            name=request.name, status=status, result=result, detail=detail,
            plan_source=plan_source, accumulator=accumulator, tile=tile,
            degrade_rung=rung, timings=timings,
        ), arrival=job.arrival)

    def _run_pairwise(self, request: Request, degrade: bool):
        """Execute a pairwise request, possibly down the ladder.

        Rung 1 replays the cached plan for the request's (auto)
        signature through the normal runtime path; rung 2 — no cached
        plan — directly selects the sparse accumulator, skipping the
        planner's dense-probe estimate.  The benign check-then-act race
        (an eviction between the lookup and the call) only costs one
        full planning pass.
        """
        rung = None
        kwargs: dict = {}
        if degrade:
            sig = signature_for(
                request.left, request.right, request.pairs, self.machine
            )
            if sig in self.runtime.plan_cache:
                rung = "cached-plan"
            else:
                rung = "cheap-path"
                kwargs["accumulator"] = "sparse"
        out, record = self.runtime.contract(
            request.left, request.right, request.pairs,
            name=request.name, return_record=True, **kwargs,
        )
        return out, record, rung

    def _run_stream(self, request: Request):
        """Execute one stream operation against the shared engine.

        Stream requests never enter the degradation ladder: a delta is
        already the cheap path when the staleness model allows it, and
        skipping a mutation (unlike skipping planning work) would
        change every later answer.  Returns ``(result, plan_source,
        rung)`` — ``plan_source`` reports ``incremental``/``full``/
        ``noop`` for deltas so callers can see which path serviced the
        mutation.
        """
        with self._stream_lock:
            engine = self._stream_engine
            if engine is None:
                from repro.streaming import IncrementalEngine

                engine = IncrementalEngine(
                    self.machine,
                    staleness_threshold=(
                        self.config.stream_staleness_threshold
                    ),
                    log_maxlen=self.config.stream_log_maxlen,
                    runtime=self.runtime,
                    backend=(
                        None if self.config.backend == "auto"
                        else self.config.backend
                    ),
                )
                self._stream_engine = engine
            op = request.stream_op
            if op == "register":
                out = engine.register(
                    request.stream_name, request.left, request.right,
                    request.pairs,
                )
                return out, "register", None
            if op == "delta":
                stats = engine.apply_delta(
                    request.stream_name, request.delta, side=request.side,
                )
                return engine.result(request.stream_name), stats.mode, None
            if op == "query":
                return engine.result(request.stream_name), "query", None
            # op == "invalidate" (Request.stream validated the op)
            dropped = engine.invalidate(request.stream_name)
            return None, f"invalidated:{dropped}", None

    def _run_network(
        self,
        request: Request,
        degrade: bool,
        *,
        batch_cache: StepResultCache | None = None,
    ):
        """Execute a network request, possibly down the ladder.

        Rung 1 replays a warm full-quality plan if one is cached for
        the auto optimizer; rung 2 takes the left-to-right path,
        skipping DP/greedy path search.  ``batch_cache`` shares
        digest-verified step results across the requests of one drained
        micro-batch (cross-request CSE).
        """
        rung = None
        optimizer = "auto"
        tune_key = None
        explored_arm = None
        if degrade:
            warm = self.executor.cached_plan(
                request.subscripts, request.operands, optimizer="auto"
            )
            if warm is not None:
                rung = "cached-plan"
            else:
                rung = "cheap-path"
                optimizer = "left"
        elif self.tuner is not None:
            network = TensorNetwork.parse(
                request.subscripts, request.operands
            )
            champion = resolve_optimizer("auto", network)
            tune_key = NetworkSignature.for_network(
                network, self.machine, champion,
                pipeline=self.executor.pipeline_key,
            ).key
            cand = self.tuner.route_network(tune_key, network, champion)
            if cand is not None:
                explored_arm = cand.arm_id
                optimizer = cand.optimizer
            else:
                preferred = self.tuner.preferred_network_optimizer(tune_key)
                if preferred is not None:
                    optimizer = preferred
        t0 = time.perf_counter()
        out, report = self.executor.contract(
            request.subscripts, *request.operands,
            optimizer=optimizer, return_report=True,
            cse_cache=batch_cache,
        )
        if tune_key is not None:
            self.tuner.observe_network(
                tune_key, explored_arm, time.perf_counter() - t0
            )
        return out, report, rung
