"""LRU plan cache with optional JSON persistence.

Maps :class:`~repro.runtime.signature.ProblemSignature` keys to frozen
Algorithm 7 decisions.  A hit skips planning entirely; entries survive
across processes through :meth:`PlanCache.save` / the ``path`` argument
(a serving process warms from the previous run's decisions on startup).

A cache file that fails to parse — truncated write, hand-edit, version
skew — must never take the service down: loading falls back to an empty
(cold) cache and records the problem in :attr:`PlanCache.load_error`.

The entries live in a :class:`~repro.util.cache.BoundedCache`, which
holds the lock the serve worker pool relies on and the drift index.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Callable

from repro.core.plan import ContractionSpec, Plan
from repro.runtime.signature import ProblemSignature
from repro.util.cache import BoundedCache, DriftKey
from repro.util.jsonstore import load_json_versioned, save_json_atomic

__all__ = ["CachedPlan", "PlanCache"]

_FORMAT_VERSION = 1


def _drift_key(signature) -> DriftKey | None:
    # Signature-like objects that carry only ``.key`` are split from it.
    if isinstance(signature, ProblemSignature):
        return signature.drift_key
    return ProblemSignature.split_key(signature.key)


@dataclass(frozen=True)
class CachedPlan:
    """The spec-independent part of a :class:`~repro.core.plan.Plan`.

    Everything Algorithm 7 decided, minus the ``ContractionSpec`` (which
    is rebuilt from the live operands on every call — specs hold mode
    linearizers, not decisions).
    """

    accumulator: str
    tile_l: int
    tile_r: int
    machine_name: str
    p_l: float = 0.0
    p_r: float = 0.0
    est_output_density: float = 0.0
    expected_tile_nnz: float = 0.0

    @classmethod
    def from_plan(cls, plan: Plan) -> "CachedPlan":
        return cls(
            accumulator=plan.accumulator,
            tile_l=int(plan.tile_l),
            tile_r=int(plan.tile_r),
            machine_name=plan.machine_name,
            p_l=float(plan.p_l),
            p_r=float(plan.p_r),
            est_output_density=float(plan.est_output_density),
            expected_tile_nnz=float(plan.expected_tile_nnz),
        )

    def materialize(self, spec: ContractionSpec) -> Plan:
        """Attach a live spec, yielding an executable :class:`Plan`."""
        return Plan(
            spec=spec,
            accumulator=self.accumulator,
            tile_l=self.tile_l,
            tile_r=self.tile_r,
            machine_name=self.machine_name,
            p_l=self.p_l,
            p_r=self.p_r,
            est_output_density=self.est_output_density,
            expected_tile_nnz=self.expected_tile_nnz,
            notes={"source": "plan_cache"},
        )


class PlanCache:
    """LRU map from problem signatures to cached plan decisions.

    Parameters
    ----------
    maxsize:
        Entry capacity; the least-recently-*used* entry is evicted first
        (both hits and inserts refresh recency).
    path:
        Optional JSON file.  When given, the cache warms itself from the
        file at construction (silently starting cold if the file is
        missing or corrupt) and :meth:`flush` writes back to it.

    A lookup that misses exactly may still hit an entry for the *same
    structure* at a different nnz (the persisted key embeds the operand
    nnz at save time, so warm-started entries carry their provenance).
    Within :data:`~repro.util.cache.DRIFT_RTOL` the entry is reused and
    re-keyed under the live signature (``drift_hits``); beyond it the
    lookup misses so the caller re-prices through Algorithm 7 instead of
    blindly replaying a decision made for a tensor that has since
    drifted (``drift_repriced``).
    """

    def __init__(
        self,
        maxsize: int = 128,
        path: str | os.PathLike | None = None,
    ):
        self._cache: BoundedCache[str, CachedPlan] = BoundedCache(maxsize)
        self.maxsize = self._cache.maxsize
        self.path = os.fspath(path) if path is not None else None
        self.load_error: str | None = None
        if self.path is not None and os.path.exists(self.path):
            self.load(self.path)

    hits = property(lambda self: self._cache.hits)
    misses = property(lambda self: self._cache.misses)
    evictions = property(lambda self: self._cache.evictions)
    invalidated = property(lambda self: self._cache.invalidated)
    drift_hits = property(lambda self: self._cache.drift_hits)
    drift_repriced = property(lambda self: self._cache.drift_repriced)

    # -- core mapping ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, signature: ProblemSignature) -> bool:
        return signature.key in self._cache

    def keys(self) -> list[str]:
        """Cached keys, least recently used first."""
        return self._cache.keys()

    def get(self, signature: ProblemSignature) -> CachedPlan | None:
        """Look up a cached decision; refreshes LRU recency on hit.

        An exact-key miss falls through to the structural drift probe
        (see the class doc): the same structure cached at a nearby nnz
        is reused and re-keyed; one cached beyond the tolerance stays a
        miss so the caller re-prices the plan for the drifted operands.
        """
        return self._cache.get(signature.key, _drift_key(signature))

    def put(self, signature: ProblemSignature, plan: Plan | CachedPlan) -> CachedPlan:
        """Insert (or refresh) a decision, evicting LRU entries at capacity."""
        cached = plan if isinstance(plan, CachedPlan) else CachedPlan.from_plan(plan)
        return self._cache.put(signature.key, cached, _drift_key(signature))

    def peek_key(self, key: str) -> CachedPlan | None:
        """Look up by raw key without touching recency or hit counters.

        Used by the autotuner to snapshot the entry a promotion is about
        to displace; a peek must not make a cold entry look hot.
        """
        return self._cache.peek(key)

    def put_key(self, key: str, plan: Plan | CachedPlan) -> CachedPlan:
        """Insert (or refresh) a decision under a raw signature key.

        Same LRU semantics as :meth:`put`; the autotuner promotes and
        rolls back by key because it stores keys, not live signatures.
        """
        cached = plan if isinstance(plan, CachedPlan) else CachedPlan.from_plan(plan)
        return self._cache.put(key, cached, ProblemSignature.split_key(key))

    # -- invalidation ---------------------------------------------------

    def invalidate(self, signature: ProblemSignature) -> bool:
        """Drop one signature's entry; returns whether it existed."""
        return self.invalidate_key(signature.key)

    def invalidate_key(self, key: str) -> bool:
        """Drop one entry by raw key (streaming invalidation hook)."""
        return self._cache.invalidate(lambda k: k == key) > 0

    def invalidate_where(self, predicate: Callable[[str], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        The fan-out form: a stream that knows its operands' shapes can
        drop every cached decision mentioning them without holding live
        signatures.  Returns the number of entries dropped.
        """
        return self._cache.invalidate(predicate)

    @property
    def hit_rate(self) -> float:
        return self._cache.stats()["hit_rate"]

    def stats(self) -> dict:
        return {
            **self._cache.stats(),
            "drift_hits": self.drift_hits,
            "drift_repriced": self.drift_repriced,
        }

    # -- persistence ----------------------------------------------------

    def save(self, path: str | os.PathLike | None = None) -> str:
        """Write the cache to JSON (atomic rename); returns the path."""
        target = os.fspath(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and the cache has no default path")
        return save_json_atomic(
            target,
            lambda: {
                "version": _FORMAT_VERSION,
                "entries": [[k, asdict(v)] for k, v in self._cache.items()],
            },
            self._cache.lock,
        )

    def flush(self) -> str | None:
        """Persist to the default path, if one was configured."""
        return self.save() if self.path is not None else None

    def load(self, path: str | os.PathLike, *, replace: bool = False) -> int:
        """Warm-start from a JSON cache file; returns entries loaded.

        By default loaded entries *merge under* the live ones: an entry
        already decided in this process wins over the persisted copy (it
        is at least as fresh), and loaded entries take the least
        recently used end, so trimming to ``maxsize`` evicts them
        (counted in ``evictions``) before any live entry.
        ``replace=True`` drops the live entries first.  Corrupt files
        degrade to a no-op with the problem recorded on
        :attr:`load_error`, same as construction.
        """
        entries, error = load_json_versioned(
            os.fspath(path), _FORMAT_VERSION,
            lambda payload: [
                (str(key), CachedPlan(**fields))
                for key, fields in payload["entries"]
            ],
        )
        if entries is None:
            self.load_error = error
            return 0
        if replace:
            self._cache.invalidate()
        self._cache.merge_under(
            (key, cached, ProblemSignature.split_key(key))
            for key, cached in entries
        )
        return len(entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache(entries={len(self)}, maxsize={self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
