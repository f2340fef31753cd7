"""Persistent autotune state: round-trip, guards, associative merge."""

import json

import pytest

from repro.autotune.candidates import Candidate
from repro.autotune.measurements import MeasurementStore
from repro.autotune.state import AutotuneState, ChampionRecord, PromotionEvent
from repro.autotune.tuner import OnlineTuner, TunerConfig
from repro.machine.specs import DESKTOP
from repro.runtime import ContractionRuntime
from repro.runtime.signature import ProblemSignature, _machine_token

V1_KEY = (
    "L64x16|R16x32|P1:0|n500,100|Mdesktop-i7-11700F;8;16777216;524288;8"
    "|Aauto|T0"
)

V1_STATE_FILE = """{
 "version": 1,
 "machine": "desktop-i7-11700F",
 "saved_at": 1792214746.9447138,
 "weights": null,
 "store": {
  "max_signatures": 256,
  "max_arms": 16,
  "signatures": {
   "%(key)s": {
    "acc=dense": {
     "count": 1,
     "mean": 0.01,
     "m2": 0.0,
     "best": 0.01,
     "recent": [
      0.01
     ]
    }
   }
  }
 },
 "champions": {
  "%(key)s": {
   "arm_id": "acc=dense",
   "candidate": {
    "arm_id": "acc=dense",
    "kind": "pairwise",
    "accumulator": "dense",
    "tile_size": null,
    "backend": null,
    "optimizer": null
   },
   "baseline_mean": 0.02,
   "plan": {
    "accumulator": "dense",
    "tile_l": 64,
    "tile_r": 32,
    "machine_name": "desktop-i7-11700F"
   },
   "prev_plan": null
  }
 },
 "history": []
}""" % {"key": V1_KEY}


V1_WEIGHTS = """"weights": {
  "query_cost": 90.0,
  "element_cost": 3.0,
  "update_hit_cost": 6.0,
  "update_miss_cost": 180.0,
  "ghz": 3.0
 }"""

V1_HISTORY = """"history": [
  {
   "event": "promote",
   "sig_key": "%(key)s",
   "arm_id": "acc=dense",
   "reason": "beat champion",
   "challenger_mean": 0.01,
   "champion_mean": 0.02,
   "timestamp": 1792214746.5
  }
 ]""" % {"key": V1_KEY}


def record(arm_id="acc=sparse", baseline=1.0):
    return ChampionRecord(
        arm_id=arm_id,
        candidate=Candidate(arm_id=arm_id, kind="pairwise",
                            accumulator="sparse"),
        baseline_mean=baseline,
        plan={"accumulator": "sparse", "tile_l": 32, "tile_r": 32,
              "machine_name": "desktop-i7-11700F"},
        prev_plan=None,
    )


def event(ts, kind="promote"):
    return PromotionEvent(event=kind, sig_key="s", arm_id="acc=sparse",
                          reason="test", timestamp=ts)


class TestRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        path = tmp_path / "state.json"
        state = AutotuneState("desktop-i7-11700F", path=str(path))
        state.store.observe("sig", "acc=sparse", 0.01)
        state.store.observe("sig", "model", 0.02)
        state.set_champion("sig", record())
        state.record_event(event(1.0))
        assert state.flush() == str(path)

        fresh = AutotuneState("desktop-i7-11700F")
        assert fresh.load(path)
        assert fresh.store.trials("sig", "acc=sparse") == 1
        assert fresh.champion("sig").arm_id == "acc=sparse"
        assert fresh.champion("sig").plan["tile_l"] == 32
        assert len(fresh.history) == 1
        assert fresh.loaded_from == str(path)

    def test_constructor_warm_starts_from_existing_file(self, tmp_path):
        path = tmp_path / "state.json"
        state = AutotuneState("m", path=str(path))
        state.store.observe("sig", "a", 0.5)
        state.flush()
        warm = AutotuneState("m", path=str(path))
        assert warm.store.trials("sig", "a") == 1

    def test_save_requires_some_path(self):
        with pytest.raises(ValueError):
            AutotuneState("m").save()
        assert AutotuneState("m").flush() is None


class TestGuards:
    def test_machine_mismatch_refused(self, tmp_path):
        path = tmp_path / "state.json"
        AutotuneState("desktop-i7-11700F", path=str(path)).save()
        other = AutotuneState("server-xeon-6330")
        assert not other.load(path)
        assert "desktop-i7-11700F" in other.load_error

    def test_corrupt_file_degrades_cold(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{not json")
        state = AutotuneState("m", path=str(path))
        assert state.load_error is not None
        assert len(state.champions) == 0

    def test_version_skew_refused(self, tmp_path):
        path = tmp_path / "state.json"
        doc = AutotuneState("m").to_json()
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        state = AutotuneState("m")
        assert not state.load(path)
        assert "version" in state.load_error

    def test_parent_format_file_loads_and_drift_hits(self, tmp_path):
        # A version-1 file exactly as earlier releases wrote it; its
        # champion replays into the plan cache and serves a drifted nnz.
        path = tmp_path / "state.json"
        path.write_text(V1_STATE_FILE)
        runtime = ContractionRuntime(machine=DESKTOP)
        tuner = OnlineTuner(DESKTOP, TunerConfig(state_path=str(path)))
        assert tuner.state.load_error is None
        assert tuner.state.store.trials(V1_KEY, "acc=dense") == 1
        tuner.attach(runtime)
        drifted = ProblemSignature(
            left_shape=(64, 16), right_shape=(16, 32), pairs=((1, 0),),
            nnz_l=520, nnz_r=110, machine=_machine_token(DESKTOP),
        )
        hit = runtime.plan_cache.get(drifted)
        assert hit is not None and hit.accumulator == "dense"
        assert runtime.plan_cache.drift_hits == 1


    def test_parent_format_file_with_weights_loads(self, tmp_path):
        # Earlier releases also wrote fitted cost weights; the key is
        # ignored and the store, champions and history still load.
        path = tmp_path / "state.json"
        path.write_text(
            V1_STATE_FILE.replace('"weights": null', V1_WEIGHTS)
            .replace('"history": []', V1_HISTORY)
        )
        state = AutotuneState("desktop-i7-11700F")
        assert state.load(path), state.load_error
        assert state.store.trials(V1_KEY, "acc=dense") == 1
        assert state.champion(V1_KEY).plan["tile_l"] == 64
        assert [(e.event, e.arm_id) for e in state.history] == [
            ("promote", "acc=dense")
        ]
        assert "weights" not in state.to_json()


class TestMerge:
    def _shard(self, samples, champion=None, events=()):
        state = AutotuneState("m", store=MeasurementStore())
        for sig, arm_id, secs in samples:
            state.store.observe(sig, arm_id, secs)
        if champion is not None:
            state.set_champion(*champion)
        for e in events:
            state.record_event(e)
        return state

    def test_stores_merge_associatively(self):
        shards = [
            self._shard([("s", "a", 0.1 * (k + 1)), ("s", "b", 0.2)])
            for k in range(3)
        ]
        left = self._shard([])
        left.merge(shards[0])
        left.merge(shards[1])
        left.merge(shards[2])

        tail = self._shard([])
        tail.merge(shards[1])
        tail.merge(shards[2])
        right = self._shard([])
        right.merge(shards[0])
        right.merge(tail)

        ls = left.store.stats_for("s", "a")
        rs = right.store.stats_for("s", "a")
        assert ls.count == rs.count == 3
        assert ls.mean == pytest.approx(rs.mean)
        assert ls.m2 == pytest.approx(rs.m2)

    def test_local_champion_wins_merge(self):
        mine = self._shard([], champion=("s", record("acc=sparse")))
        theirs = self._shard([], champion=("s", record("tile=16")))
        mine.merge(theirs)
        assert mine.champion("s").arm_id == "acc=sparse"
        # A signature only the peer promoted is adopted.
        theirs.set_champion("t", record("tile=16"))
        mine.merge(theirs)
        assert mine.champion("t").arm_id == "tile=16"

    def test_histories_interleave_by_timestamp(self):
        a = self._shard([], events=[event(1.0), event(3.0)])
        b = self._shard([], events=[event(2.0, "rollback")])
        a.merge(b)
        assert [e.timestamp for e in a.history] == [1.0, 2.0, 3.0]

    def test_summary_counts(self):
        state = self._shard(
            [("s", "a", 0.1)], champion=("s", record()),
            events=[event(1.0), event(2.0, "rollback")],
        )
        s = state.summary()
        assert s["champions"] == 1
        assert s["promotions"] == 1 and s["rollbacks"] == 1
        assert s["samples"] == 1
