"""One bounded, thread-safe LRU for every cache in the stack.

Plans, operand tables, network plans, step results and autotune
measurements are all held in a :class:`BoundedCache`: LRU order,
refcounted pins exempt from eviction, one invalidation entry point, and
one ``stats()`` shape.

A FaSTCC plan depends only on a problem's structure and its nonzero
counts, so plan caches may also reuse an entry across small nnz
drift.  An entry put with a drift key ``(structure_key, nnz_tuple)``
joins a structure index; a later exact miss that carries a drift key
for the same structure reuses the most recently inserted entry when
every operand's nnz moved by at most :data:`DRIFT_RTOL`, re-keying it
under the new key (``drift_hits``).  Beyond the tolerance the lookup
stays a miss so the caller re-prices (``drift_repriced``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterable, TypeVar

__all__ = ["DRIFT_RTOL", "BoundedCache", "DriftKey", "split_nnz_segment"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: ``(structure_key, per-operand nnz)`` — the drift-reuse identity.
DriftKey = tuple[str, tuple[int, ...]]

#: Max per-operand relative nnz change a cached plan may absorb.
DRIFT_RTOL = 0.25


def relative_drift(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """Max per-operand relative nnz change from ``b`` to ``a``."""
    if len(a) != len(b):
        return float("inf")
    return max((abs(x - y) / max(y, 1) for x, y in zip(a, b)), default=0.0)


def split_nnz_segment(key: str, index: int) -> DriftKey | None:
    """Split a ``|``-separated signature key whose ``index``-th segment is
    ``n<nnz>,<nnz>,...`` into ``(key with that segment as n*, nnz)``."""
    parts = key.split("|")
    if len(parts) <= index or not parts[index].startswith("n"):
        return None
    try:
        nnz = tuple(int(n) for n in parts[index][1:].split(","))
    except ValueError:
        return None
    parts[index] = "n*"
    return "|".join(parts), nnz


class BoundedCache(Generic[K, V]):
    """LRU map with pins, drift reuse and uniform counters.

    Every method takes :attr:`lock` (reentrant), so one cache may be
    shared by the serve worker pool; owners hold it across compound
    operations such as a consistent snapshot for a file write.  ``get``
    counts a hit or miss and refreshes recency; ``peek`` does neither.
    Pinned keys (see :meth:`pin`) are never evicted and may carry the
    cache above ``maxsize``; eviction resumes once they unpin.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._pins: dict[K, int] = {}
        self._drift: dict[K, DriftKey] = {}
        # structure key -> most recently inserted key of that structure
        self._latest: dict[str, K] = {}
        self.lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self.drift_hits = 0
        self.drift_repriced = 0

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self.lock:
            return key in self._entries

    def keys(self) -> list[K]:
        """Keys, least recently used first."""
        with self.lock:
            return list(self._entries)

    def items(self) -> list[tuple[K, V]]:
        """``(key, value)`` pairs, least recently used first."""
        with self.lock:
            return list(self._entries.items())

    # -- lookup ---------------------------------------------------------

    def get(self, key: K, drift: DriftKey | None = None) -> V | None:
        """The value under ``key`` (refreshing recency), else a drift
        reuse of the same structure (see the module doc), else ``None``."""
        with self.lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            latest = None if drift is None else self._latest.get(drift[0])
            if drift is not None and latest is not None:
                if relative_drift(drift[1], self._drift[latest][1]) <= DRIFT_RTOL:
                    value = self._entries[latest]
                    self._insert_locked(key, value, drift)
                    self.drift_hits += 1
                    self.hits += 1
                    return value
                self.drift_repriced += 1
            self.misses += 1
            return None

    def peek(self, key: K) -> V | None:
        """The value under ``key``; touches neither recency nor counters."""
        with self.lock:
            return self._entries.get(key)

    def get_or_put(self, key: K, make: Callable[[], V]) -> V:
        """The value under ``key`` (a counted hit), else ``make()`` inserted."""
        with self.lock:
            value = self.get(key)
            if value is None:
                value = make()
                self._insert_locked(key, value, None)
            return value

    # -- insertion ------------------------------------------------------

    def put(self, key: K, value: V, drift: DriftKey | None = None) -> V:
        """Insert or refresh ``key`` as most recently used, then evict."""
        with self.lock:
            self._insert_locked(key, value, drift)
        return value

    def merge_under(self, entries: Iterable[tuple[K, V, DriftKey | None]]) -> None:
        """Insert absent keys on the *least* recently used side.

        Live entries win and stay hottest; ``entries`` (oldest first)
        keep their relative order below them, so a trim to ``maxsize``
        evicts the merged entries before any live one.
        """
        with self.lock:
            for key, value, drift in reversed(list(entries)):
                if key in self._entries:
                    continue
                self._entries[key] = value
                self._entries.move_to_end(key, last=False)
                if drift is not None:
                    self._drift[key] = drift
                    self._latest.setdefault(drift[0], key)
            self._evict_locked()

    def _insert_locked(self, key: K, value: V, drift: DriftKey | None) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if drift is not None:
            self._drift[key] = drift
            self._latest[drift[0]] = key
        self._evict_locked()

    def _evict_locked(self) -> None:
        excess = len(self._entries) - self.maxsize
        if excess <= 0:
            return
        victims: list[K] = []
        for key in self._entries:
            if key not in self._pins:
                victims.append(key)
                if len(victims) == excess:
                    break
        for key in victims:
            self._drop_locked(key)
        self.evictions += len(victims)

    def _drop_locked(self, key: K) -> None:
        del self._entries[key]
        self._pins.pop(key, None)
        drift = self._drift.pop(key, None)
        if drift is not None and self._latest.get(drift[0]) == key:
            del self._latest[drift[0]]

    # -- pins -----------------------------------------------------------

    def pin(self, key: K, make: Callable[[], V]) -> V:
        """Fetch (or insert ``make()``) and raise ``key``'s pin count."""
        with self.lock:
            value = self._entries.get(key)
            if value is None:
                value = make()
                self._entries[key] = value
            self._entries.move_to_end(key)
            self._pins[key] = self._pins.get(key, 0) + 1
            return value

    def unpin(self, key: K) -> None:
        """Drop one pin; at zero the key rejoins normal LRU eviction."""
        with self.lock:
            count = self._pins.get(key, 0)
            if count > 1:
                self._pins[key] = count - 1
                return
            self._pins.pop(key, None)
            self._evict_locked()

    def pinned_count(self) -> int:
        with self.lock:
            return len(self._pins)

    # -- invalidation and stats -----------------------------------------

    def invalidate(self, where: Callable[[K], bool] | None = None) -> int:
        """Drop every key ``where`` accepts (all when ``None``), pinned
        or not, together with its drift index; returns how many."""
        with self.lock:
            victims = [k for k in self._entries if where is None or where(k)]
            for key in victims:
                self._drop_locked(key)
            self.invalidated += len(victims)
            return len(victims)

    def stats(self) -> dict:
        with self.lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidated": self.invalidated,
                "hit_rate": self.hits / total if total else 0.0,
            }
