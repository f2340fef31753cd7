"""Shard worker process: one :class:`ContractionService` per process.

The router (:mod:`repro.serve.router`) spawns N of these; each runs a
private service — its own runtime, plan cache and admission queue — in
its own interpreter, so CPU-bound contraction work on different shards
executes on different cores instead of serializing on one GIL.

The process speaks a small picklable message protocol over two
``multiprocessing`` queues:

inbound (router → shard)
    ``("req", uid, Request)`` — admit and execute one request;
    ``("metrics", token)`` — reply with the shard's metrics document;
    ``("flush", token)`` — persist the plan cache (warm-start file);
    ``("invalidate", token, name)`` — drop cached streaming state for
    the named stream (the router fans this out to every shard);
    ``("stop",)`` — drain admitted work, flush, and exit.

outbound (shard → router, shared by all shards)
    ``("ready", shard_id, warm_entries)`` — service is up (with the
    number of plan-cache entries warm-started from disk);
    ``("resp", shard_id, uid, Response)`` — one terminal response;
    ``("metrics", shard_id, token, payload)`` — metrics reply;
    ``("flushed", shard_id, token, path)`` — flush reply;
    ``("invalidated", shard_id, token, released)`` — invalidation
    reply (how many tracked artifacts this shard released);
    ``("stopped", shard_id, payload)`` — final metrics, sent last.

Plan-cache **warm-start** rides on the existing JSON persistence: when
the spec carries a ``cache_path``, the shard's
:class:`~repro.runtime.ContractionRuntime` loads it at construction and
flushes back to it on ``flush``/``stop`` — a respawned or restarted
shard starts with the previous incarnation's Algorithm 7 decisions.

Responses are forwarded by a single in-process thread that resolves
tickets in admission order; ticket resolution order does not affect
correctness (every ticket resolves exactly once) and admission order
matches the service's own rough completion order.
"""

from __future__ import annotations

import queue as _queue
import threading
from dataclasses import dataclass, field

from repro.serve.request import Request
from repro.serve.service import ServiceConfig

__all__ = ["ShardSpec", "shard_main"]


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard process needs, picklable for ``spawn``.

    ``machine_name`` travels as a string and is resolved in the child
    (platform models are process-local singletons, not payload).
    """

    shard_id: int
    machine_name: str = "desktop"
    service: ServiceConfig = field(default_factory=ServiceConfig)
    cache_path: str | None = None
    #: Per-shard autotune state file (each shard must own its file —
    #: concurrent writers to one JSON would race; the router merges the
    #: per-shard states associatively instead).
    autotune_path: str | None = None


def _resolve_machine(name: str):
    from repro.machine.specs import DESKTOP, SERVER

    return SERVER if name == "server" else DESKTOP


def shard_main(spec: ShardSpec, inbox, outbox) -> None:
    """Run one shard to completion (the ``Process`` target).

    Never raises: a broken shard exits, and the router's liveness
    monitor turns the death into requeue/respawn — the failure story
    lives on the router side, not here.
    """
    from dataclasses import replace

    from repro.runtime.executor import ContractionRuntime
    from repro.serve.service import ContractionService

    machine = _resolve_machine(spec.machine_name)
    runtime = ContractionRuntime(
        machine=machine,
        cache_path=spec.cache_path,
        cache_size=spec.service.plan_cache_size,
        operand_cache_size=spec.service.operand_cache_size,
    )
    config = spec.service
    if spec.autotune_path is not None:
        config = replace(config, autotune=replace(
            config.autotune, state_path=spec.autotune_path
        ))
    service = ContractionService(
        machine=machine, config=config, runtime=runtime
    )
    service.start()
    outbox.put(("ready", spec.shard_id, len(runtime.plan_cache)))

    pending: _queue.Queue = _queue.Queue()

    def forward() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            uid, ticket = item
            response = ticket.result(None)
            outbox.put(("resp", spec.shard_id, uid, response))

    forwarder = threading.Thread(
        target=forward, name=f"shard-{spec.shard_id}-forward", daemon=True
    )
    forwarder.start()

    try:
        while True:
            message = inbox.get()
            kind = message[0]
            if kind == "req":
                _, uid, request = message
                assert isinstance(request, Request)
                pending.put((uid, service.submit(request)))
            elif kind == "metrics":
                outbox.put((
                    "metrics", spec.shard_id, message[1],
                    service.metrics_json(),
                ))
            elif kind == "flush":
                if service.tuner is not None:
                    service.tuner.flush()
                outbox.put((
                    "flushed", spec.shard_id, message[1], runtime.flush(),
                ))
            elif kind == "invalidate":
                outbox.put((
                    "invalidated", spec.shard_id, message[1],
                    service.invalidate_stream(message[2]),
                ))
            elif kind == "stop":
                break
    finally:
        # Drain admitted work so accepted requests always resolve, then
        # let the forwarder push the last responses out before the
        # terminal metrics message.
        service.stop(drain=True)
        pending.put(None)
        forwarder.join(timeout=30.0)
        runtime.flush()
        outbox.put(("stopped", spec.shard_id, service.metrics_json()))
