"""Spans around calls into each layer's public functions.

The traced run wraps the public entry points of every layer (see
``TARGETS``) and records one span per call: name, start, end, parent
and the id of the op (root span) it belongs to.  Spans stay in memory
and are reduced at the end.  Nothing in the program is edited: the
wrappers replace module and class attributes for the duration of the
traced phase and are removed afterwards.

A span's *self time* is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from repro.core import model as _model
from repro.core import tiled_co as _tiled_co
from repro.core.plan import ContractionSpec, LinearizedOperand
from repro.network.executor import NetworkExecutor
from repro.runtime.executor import ContractionRuntime
from repro.runtime.plan_cache import PlanCache
from repro.serve.service import ContractionService
from repro.streaming.engine import IncrementalEngine
from repro.tensors.coo import COOTensor

#: ``span name -> (owner, attribute, layer)``.  Module-level functions
#: are rebound in every ``repro`` module that imported them by name.
TARGETS = {
    "linearize_left": (ContractionSpec, "linearize_left", "linearize"),
    "linearize_right": (ContractionSpec, "linearize_right", "linearize"),
    "lin.sum_duplicates": (LinearizedOperand, "sum_duplicates", "linearize"),
    "choose_plan": (_model, "choose_plan", "plan"),
    "plan_cache.get": (PlanCache, "get", "plan"),
    "build_tiled_tables_pair": (_tiled_co, "build_tiled_tables_pair", "tables"),
    "build_tiled_tables": (_tiled_co, "build_tiled_tables", "tables"),
    "tiled_co_contract": (_tiled_co, "tiled_co_contract", "kernel"),
    "delinearize_output": (ContractionSpec, "delinearize_output", "delinearize"),
    "coo.sum_duplicates": (COOTensor, "sum_duplicates", None),
    "runtime.contract": (ContractionRuntime, "contract", "runtime"),
    "network.plan": (NetworkExecutor, "plan", "network.plan"),
    "network.execute": (NetworkExecutor, "execute", "network"),
    "network.contract": (NetworkExecutor, "contract", "network"),
    "service.submit": (ContractionService, "submit", "serve"),
    "stream.register": (IncrementalEngine, "register", "streaming"),
    "stream.apply_delta": (IncrementalEngine, "apply_delta", "streaming"),
    "stream.result": (IncrementalEngine, "result", "streaming"),
}

#: Layers reported per op, in report order.  ``op`` is the benchmark's
#: own root span: its self time is glue outside every layer.
LAYERS = (
    "linearize", "tables", "plan", "kernel", "delinearize",
    "runtime", "network.plan", "network", "serve", "streaming",
)

#: The share of op time the named layers must cover for the breakdown to
#: describe the op; the rest is glue outside every wrapped function.
MIN_COVERAGE = 0.85

#: Output canonicalization is the tail of postprocessing when the
#: one-call paths run it; elsewhere it belongs to its caller's layer.
_CANONICAL_OUTPUT_PARENTS = ("op", "runtime.contract")


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self):
        self.spans: list[tuple] = []  # (sid, parent, root, name, t0, t1)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if getattr(self._local, "paused", False):
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent, root = stack[-1] if stack else (0, sid)
        stack.append((sid, root))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, root, name, t0, t1))

    @contextlib.contextmanager
    def paused(self):
        """Record nothing from this thread (the benchmark's own checks)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> "Tracer":
        """Wrap every target; undone by :meth:`uninstall`."""
        for name, (owner, attr, _) in TARGETS.items():
            original = owner.__dict__[attr]
            traced = self.wrap(name, original)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, traced)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_of(name: str, parent_name: str | None, parent_layer: str | None) -> str:
    if name == "op":
        return "op"
    layer = TARGETS[name][2]
    if layer is not None:
        return layer
    if parent_name in _CANONICAL_OUTPUT_PARENTS:
        return "delinearize"
    return parent_layer or "op"


def adopt_by_time(spans) -> list:
    """Reparent root spans that ran inside a benchmark ``op`` span on
    another thread (a service worker serving the op's request) to that
    op, so the op's breakdown includes the work done on its behalf."""
    ops = sorted((s for s in spans if s[3] == "op"), key=lambda s: s[4])
    starts = [s[4] for s in ops]
    out = []
    for span in spans:
        sid, parent, root, name, t0, t1 = span
        k = bisect.bisect_right(starts, t0) - 1
        if parent == 0 and name != "op" and k >= 0 and t1 <= ops[k][5]:
            span = (sid, ops[k][0], ops[k][0], name, t0, t1)
        out.append(span)
    roots = {s[0]: s[2] for s in out}
    # Descendants of an adopted root follow it to the op.
    return [(sid, p, roots.get(r, r), n, t0, t1) for sid, p, r, n, t0, t1 in out]


def per_op(spans) -> dict:
    """``root id -> {"op_s", "layers": {layer: self seconds}, "calls"}``.

    ``calls`` counts spans per name inside the op.
    """
    spans = adopt_by_time(spans)
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, root, name, t0, t1 in spans:
        if parent:
            child_time[parent] += t1 - t0
    layer_cache: dict[int, str] = {}

    def layer(sid: int) -> str:
        if sid in layer_cache:
            return layer_cache[sid]
        _, parent, _, name, _, _ = by_id[sid]
        p = by_id.get(parent)
        result = layer_of(
            name, p[3] if p else None, layer(parent) if p else None
        )
        layer_cache[sid] = result
        return result

    ops: dict[int, dict] = {}
    for sid, parent, root, name, t0, t1 in sorted(spans, key=lambda s: s[0]):
        op = ops.setdefault(
            root, {"op_s": 0.0, "layers": defaultdict(float), "calls": defaultdict(int)}
        )
        if sid == root:
            op["op_s"] = t1 - t0
        op["layers"][layer(sid)] += (t1 - t0) - child_time[sid]
        op["calls"][name] += 1
    return ops


def layer_metrics(ops: dict) -> dict:
    """Per-layer ``.ms`` (median per-op self time over the ops the layer
    ran in), ``.share`` (self time / op time over all ops) and the
    covered fraction of op time (``coverage``)."""
    total = sum(op["op_s"] for op in ops.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        selfs = [op["layers"][layer] for op in ops.values() if layer in op["layers"]]
        out[f"{layer}.ms"] = float(np.median(selfs)) * 1e3 if selfs else 0.0
        out[f"{layer}.share"] = sum(selfs) / total if total else 0.0
    covered = sum(
        sum(v for k, v in op["layers"].items() if k != "op") for op in ops.values()
    )
    out["coverage"] = covered / total if total else 0.0
    if out["coverage"] < MIN_COVERAGE:
        print(f"warning: layers cover {out['coverage']:.1%} of op time, "
              f"below {MIN_COVERAGE:.0%}: the breakdown misses work", file=sys.stderr)
    return out
