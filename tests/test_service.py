"""Tests for the live cache service core and the remove() protocol."""

import gc
import weakref

import pytest

from repro.cache.registry import create_policy
from repro.obs import MetricsRegistry
from repro.obs.policy import InstrumentedPolicy
from repro.service import CacheService, RemovalUnsupportedError
from repro.sim.request import Request
from repro.sim.simulator import simulate
from repro.traces.synthetic import zipf_trace

REMOVABLE = ["fifo", "lru", "lru-fast", "s3fifo", "s3fifo-fast"]


class TestRemoveProtocol:
    @pytest.mark.parametrize("name", REMOVABLE)
    def test_remove_resident_key(self, name):
        policy = create_policy(name, capacity=10)
        assert policy.supports_removal
        for key in range(5):
            policy.request(Request(key))
        assert policy.remove(3)
        assert 3 not in policy
        assert len(policy) == 4
        assert policy.used == 4

    @pytest.mark.parametrize("name", REMOVABLE)
    def test_remove_absent_key(self, name):
        policy = create_policy(name, capacity=10)
        policy.request(Request("a"))
        assert not policy.remove("nope")
        assert policy.remove("a")
        assert not policy.remove("a")  # second remove: already gone
        assert len(policy) == 0

    @pytest.mark.parametrize("name", REMOVABLE)
    def test_remove_fires_no_eviction_event(self, name):
        policy = create_policy(name, capacity=10)
        events = []
        policy.add_eviction_listener(events.append)
        for key in range(5):
            policy.request(Request(key))
        policy.remove(2)
        assert events == []
        assert policy.stats.evictions == 0

    def test_remove_does_not_feed_ghost(self):
        policy = create_policy("s3fifo", capacity=10)
        policy.request(Request("a"))
        assert policy.in_small("a")
        policy.remove("a")
        # A deleted key re-enters through S like a brand-new key; an
        # evicted key would have re-entered M via the ghost queue.
        policy.request(Request("a"))
        assert policy.in_small("a")

    def test_unsupported_policy_raises(self):
        policy = create_policy("arc", capacity=10)
        assert not policy.supports_removal
        policy.request(Request("a"))
        with pytest.raises(NotImplementedError):
            policy.remove("a")

    def test_fast_s3fifo_matches_reference_under_removal(self):
        """Interleave requests and removes; the twins must stay
        bit-identical (the removal path must preserve queue order)."""
        import random

        rng = random.Random(7)
        ref = create_policy("s3fifo", capacity=50)
        fast = create_policy("s3fifo-fast", capacity=50)
        keys = zipf_trace(num_objects=300, num_requests=4000, seed=7)
        for i, key in enumerate(keys):
            assert ref.request(Request(key)) == fast.request(Request(key))
            if i % 7 == 0:
                victim = rng.randrange(300)
                assert ref.remove(victim) == fast.remove(victim)
        assert len(ref) == len(fast)
        assert ref.used == fast.used


class TestCacheService:
    def test_get_set_roundtrip(self):
        svc = CacheService(10)
        assert svc.get("a") is None
        assert svc.get("a", default=-1) == -1
        assert svc.set("a", 1)
        assert svc.get("a") == 1
        assert "a" in svc
        assert len(svc) == 1

    def test_counters(self):
        svc = CacheService(10)
        svc.get("a")
        svc.set("a", 1)
        svc.get("a")
        c = svc.counters
        assert (c.gets, c.hits, c.misses, c.sets) == (2, 1, 1, 1)
        assert c.hit_ratio == 0.5

    def test_delete(self):
        svc = CacheService(10)
        svc.set("a", 1)
        assert svc.delete("a")
        assert not svc.delete("a")
        assert svc.get("a") is None
        assert len(svc) == 0
        svc.check()

    def test_eviction_drops_value(self):
        svc = CacheService(4, policy="fifo")
        for key in range(6):
            svc.set(key, key)
        assert len(svc) == 4
        assert svc.counters.evictions == 2
        assert svc.get(0) is None  # FIFO evicted the oldest
        svc.check()

    def test_dropped_service_is_freed_without_gc(self):
        """The policy's eviction listener must not keep its service
        alive: a dropped service frees its values by refcount alone."""
        svc = CacheService(4, policy="s3fifo")
        for key in range(10):
            svc.set(key, key)
        assert svc.counters.evictions > 0
        ref = weakref.ref(svc)
        gc.disable()
        try:
            del svc
            assert ref() is None
        finally:
            gc.enable()

    def test_policy_outlives_its_dropped_service(self):
        """A caller keeping ``service.policy`` can keep driving it after
        the service is gone: the dead listener does nothing."""
        svc = CacheService(4, policy="s3fifo")
        for key in range(10):
            svc.set(key, key)
        policy = svc.policy
        del svc
        evicted = policy.stats.evictions
        for key in range(10, 30):
            policy.access(key)
        assert policy.stats.evictions > evicted

    def test_dropped_instrumented_policy_is_freed_without_gc(self):
        """InstrumentedPolicy's listeners must not keep the wrapper and
        its registry alive through the policy they observe; a caller
        that keeps the raw policy can still drive it afterwards."""
        policy = create_policy("s3fifo", capacity=4)
        registry = MetricsRegistry()
        wrapper = InstrumentedPolicy(policy, registry)
        for key in range(10):
            wrapper.access(key)
        refs = [weakref.ref(wrapper), weakref.ref(registry)]
        evicted = policy.stats.evictions
        gc.disable()
        try:
            del wrapper, registry
            assert [ref() for ref in refs] == [None, None]
            for key in range(10, 30):
                policy.access(key)
        finally:
            gc.enable()
        assert policy.stats.evictions > evicted

    def test_overwrite_updates_value(self):
        svc = CacheService(10)
        svc.set("a", 1)
        svc.set("a", 2)
        assert svc.get("a") == 2
        assert len(svc) == 1

    def test_sized_entries(self):
        svc = CacheService(100, policy="lru")
        svc.set("big", "x", size=60)
        svc.set("small", "y", size=30)
        assert svc.stats()["used"] == 90
        # Re-set with a different size replaces the residency charge.
        svc.set("big", "x2", size=10)
        assert svc.get("big") == "x2"
        assert svc.stats()["used"] == 40
        svc.check()

    def test_oversized_set_rejected(self):
        svc = CacheService(10)
        assert not svc.set("huge", "x", size=11)
        assert svc.counters.rejected == 1
        assert "huge" not in svc
        svc.check()

    def test_invalid_sizes_and_ttls(self):
        svc = CacheService(10)
        with pytest.raises(ValueError):
            svc.set("a", 1, size=0)
        with pytest.raises(ValueError):
            svc.set("a", 1, ttl=-1)
        with pytest.raises(ValueError):
            CacheService(10, default_ttl=-1)

    def test_removal_gates(self):
        svc = CacheService(10, policy="arc")
        assert not svc.supports_removal
        svc.set("a", 1)
        with pytest.raises(RemovalUnsupportedError):
            svc.delete("a")
        with pytest.raises(RemovalUnsupportedError):
            svc.set("b", 2, ttl=5)
        with pytest.raises(RemovalUnsupportedError):
            CacheService(10, policy="arc", default_ttl=5)
        # ttl=None is always fine.
        assert svc.set("c", 3, ttl=None)

    def test_stats_snapshot(self):
        svc = CacheService(10)
        svc.set("a", 1)
        svc.get("a")
        svc.get("b")
        stats = svc.stats()
        assert stats["policy"] == "s3fifo"
        assert stats["capacity"] == 10
        assert stats["objects"] == 1
        assert stats["hit_ratio"] == 0.5
        assert stats["policy_requests"] == 2  # set + hit get; missed get: 0

    def test_miss_does_not_touch_policy(self):
        """A get on an absent key must not admit it (read-through caches
        admit on set, not on lookup)."""
        svc = CacheService(10)
        svc.get("ghost")
        assert svc.policy.stats.requests == 0
        assert len(svc.policy) == 0

    @pytest.mark.parametrize("policy", ["s3fifo", "s3fifo-fast"])
    def test_single_shard_offline_parity_exact(self, policy):
        """Read-through replay == offline simulation, request for
        request: identical miss ratio, not merely close."""
        trace = zipf_trace(num_objects=2000, num_requests=30000, seed=42)
        capacity = 200
        svc = CacheService(capacity, policy)
        for key in trace:
            if svc.get(key) is None:
                svc.set(key, key)
        offline = simulate(create_policy(policy, capacity=capacity), trace)
        live_miss = 1.0 - svc.counters.hit_ratio
        assert live_miss == pytest.approx(offline.miss_ratio, abs=1e-12)
        svc.check()

    def test_checked_mode_runs_sanitizer(self):
        svc = CacheService(50, checked=True)
        trace = zipf_trace(num_objects=500, num_requests=5000, seed=1)
        for key in trace:
            if svc.get(key) is None:
                svc.set(key, key)
        svc.check()
        assert svc.policy.checks_run > 0
