"""BoundedCache: LRU order, peek, pins, drift index, invalidation, stats;
and the signature keys' ``split_key`` round trip."""

import pytest

from repro.machine.specs import DESKTOP
from repro.network.plan import NetworkSignature
from repro.runtime.signature import ProblemSignature, _machine_token
from repro.util.cache import BoundedCache


def filled(maxsize=3, n=3):
    cache = BoundedCache(maxsize)
    for k in range(n):
        cache.put(f"k{k}", k)
    return cache


class TestLRU:
    def test_get_refreshes_and_eviction_takes_least_recent(self):
        cache = filled()
        assert cache.get("k0") == 0
        cache.put("k3", 3)
        assert cache.keys() == ["k2", "k0", "k3"]
        assert cache.evictions == 1

    def test_put_existing_key_refreshes_without_evicting(self):
        cache = filled()
        cache.put("k0", 10)
        assert cache.keys() == ["k1", "k2", "k0"]
        assert cache.peek("k0") == 10
        assert cache.evictions == 0

    def test_peek_touches_neither_recency_nor_counters(self):
        cache = filled()
        assert cache.peek("k0") == 0
        assert cache.peek("absent") is None
        assert cache.hits == cache.misses == 0
        cache.put("k3", 3)
        assert "k0" not in cache

    def test_get_or_put_inserts_once(self):
        cache = BoundedCache(2)
        made = []
        for _ in range(3):
            cache.get_or_put("a", lambda: made.append(1) or "value")
        assert made == [1]
        assert cache.stats()["hits"] == 2

    def test_merge_under_keeps_live_entries_hottest(self):
        cache = filled()
        cache.merge_under([("k1", 99, None), ("f0", 0, None), ("f1", 1, None)])
        assert cache.peek("k1") == 1  # the live value wins
        assert cache.keys() == ["k0", "k1", "k2"]
        assert cache.evictions == 2

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            BoundedCache(0)


class TestPins:
    def test_pins_carry_cache_above_maxsize_until_unpinned(self):
        cache = BoundedCache(2)
        for key in "abc":
            cache.pin(key, key.upper)
        cache.pin("b", lambda: "unused")  # refcount 2, now most recent
        cache.put("d", "D")  # the only unpinned entry is the victim
        assert cache.keys() == ["a", "c", "b"]
        assert cache.peek("b") == "B"

        cache.unpin("a")  # eviction resumes: a is the oldest unpinned
        assert cache.keys() == ["c", "b"]
        cache.unpin("b")  # one pin left
        cache.unpin("c")
        cache.put("e", "E")
        assert cache.keys() == ["b", "e"]
        assert cache.pinned_count() == 1
        cache.unpin("b")
        cache.put("f", "F")
        assert cache.keys() == ["e", "f"]

    def test_invalidate_drops_pinned_entries(self):
        cache = BoundedCache(2)
        cache.pin("a", lambda: "A")
        assert cache.invalidate(lambda k: k == "a") == 1
        assert "a" not in cache and cache.pinned_count() == 0


class TestDrift:
    def test_drift_hit_rekeys_within_tolerance(self):
        cache = BoundedCache(4)
        cache.put("s@100", "plan", ("s", (100,)))
        assert cache.get("s@110", ("s", (110,))) == "plan"
        assert cache.drift_hits == 1 and cache.hits == 1
        assert "s@110" in cache
        assert cache.get("s@300", ("s", (300,))) is None
        assert cache.drift_repriced == 1 and cache.misses == 1

    def test_no_drift_key_means_exact_only(self):
        cache = BoundedCache(4)
        cache.put("s@100", "plan", ("s", (100,)))
        assert cache.get("s@101") is None
        assert cache.drift_hits == 0

    def test_invalidation_updates_drift_index(self):
        cache = BoundedCache(4)
        cache.put("s@100", "old", ("s", (100,)))
        cache.put("s@105", "new", ("s", (105,)))
        # Dropping a non-latest key keeps the structure reachable...
        assert cache.invalidate(lambda k: k == "s@100") == 1
        assert cache.get("s@102", ("s", (102,))) == "new"
        # ...dropping every key of the structure severs drift reuse.
        assert cache.invalidate(lambda k: k.startswith("s@")) == 2
        assert cache.get("s@101", ("s", (101,))) is None
        assert cache.drift_repriced == 0

    def test_eviction_updates_drift_index(self):
        cache = BoundedCache(1)
        cache.put("s@100", "plan", ("s", (100,)))
        cache.put("t@100", "other", ("t", (100,)))
        assert cache.get("s@101", ("s", (101,))) is None
        assert cache.drift_hits == 0


def test_stats_shape_and_tallies():
    cache = filled(maxsize=2, n=3)
    cache.get("k2")
    cache.get("absent")
    cache.invalidate(lambda k: k == "k1")
    assert cache.stats() == {
        "entries": 1, "hits": 1, "misses": 1, "evictions": 1,
        "invalidated": 1, "hit_rate": 0.5,
    }


def problem(nnz_l, nnz_r):
    return ProblemSignature(
        left_shape=(64, 16), right_shape=(16, 32), pairs=((1, 0),),
        nnz_l=nnz_l, nnz_r=nnz_r, machine=_machine_token(DESKTOP),
    )


def network(nnzs, shapes, subscripts, pipeline=""):
    return NetworkSignature(
        subscripts=subscripts, shapes=shapes, nnzs=nnzs,
        machine=_machine_token(DESKTOP), pipeline=pipeline,
    )


@pytest.mark.parametrize("sig", [
    problem(500, 100),
    problem(0, 0),
    network((40, 30), ((8, 9), (9, 7)), "ij,jk->ik"),
    network((40, 30), ((8, 9), (9, 7)), "ij,jk->ik", pipeline="cse,dead"),
    network((12,), ((8, 9),), "ij->i"),
    network((0, 5), ((8, 9), (9, 7)), "ij,jk->ik", pipeline="cse"),
])
def test_split_key_inverts_key(sig):
    nnz = (sig.nnz_l, sig.nnz_r) if isinstance(sig, ProblemSignature) else sig.nnzs
    assert type(sig).split_key(sig.key) == (sig.structure_key, nnz)
    assert sig.drift_key == (sig.structure_key, nnz)


def test_split_key_rejects_non_signature_strings():
    assert ProblemSignature.split_key("t0/p1") is None
    assert NetworkSignature.split_key("E|S|nx,y|M") is None
