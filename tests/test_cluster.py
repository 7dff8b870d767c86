"""Cluster tier: placement, replication, failover, and rebalance.

Everything here spawns real node processes, so the module carries the
``cluster`` marker and runs via ``make cluster``, outside tier-1 (a
tiny deterministic smoke lives in ``tests/test_cluster_smoke.py``).
The load is deliberately small: these are correctness claims — R-way
placement on the ring, zero client-visible errors through a WORKER_CRASH
when R >= 2, deterministic degradation when R == 1, bounded key
movement on membership change — not throughput claims.
"""

import multiprocessing
import time

import pytest

from repro.cluster import ClusterCacheService, HashRing
from repro.resilience import WORKER_CRASH, FaultPlan
from repro.service import RemovalUnsupportedError, ServiceClosedError

pytestmark = pytest.mark.cluster


def assert_no_orphans():
    """Every node this test spawned must be gone."""
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert multiprocessing.active_children() == []


def workload(n=400, span=120, seed=3):
    keys = []
    state = seed
    for _ in range(n):
        state = (state * 1103515245 + 12345) % (2 ** 31)
        keys.append(state % span)
    return keys


def read_through(svc, keys):
    """Drive a read-through loop; returns (results, hits)."""
    results = []
    hits = 0
    for k in keys:
        value = svc.get(k)
        if value is None:
            svc.set(k, k)
            results.append(("miss", k))
        else:
            hits += 1
            results.append(("hit", k, value))
    return results, hits


class TestRoundtrip:
    def test_basic_ops(self):
        with ClusterCacheService(60, "s3fifo", num_nodes=3) as svc:
            assert svc.set("a", {"rich": [1, 2]}) is True
            assert svc.get("a") == {"rich": [1, 2]}
            assert svc.get("missing", default="d") == "d"
            assert "a" in svc and "missing" not in svc
            assert len(svc) >= 1  # replicas may each hold a copy
            assert svc.delete("a") is True
            assert svc.get("a") is None
        assert_no_orphans()

    def test_handshake_surface(self):
        with ClusterCacheService(60, "s3fifo", num_nodes=3,
                                 replication=2, vnodes=32) as svc:
            assert svc.policy_name == "s3fifo"
            assert svc.supports_removal is True
            assert svc.node_ids == [0, 1, 2]
            stats = svc.stats()
            assert stats["backend"] == "cluster"
            assert stats["num_nodes"] == stats["nodes_up"] == 3
            assert stats["replication"] == 2 and stats["vnodes"] == 32

    def test_values_land_on_all_replicas(self):
        with ClusterCacheService(90, "s3fifo", num_nodes=3,
                                 replication=2) as svc:
            keys = list(range(40))
            svc.set_many([(k, k) for k in keys])
            for k in keys:
                owners = svc.owners_for(k)
                assert len(owners) == 2 and len(set(owners)) == 2
            # Each key is stored once per replica.
            assert len(svc) == 2 * len(keys)
        assert_no_orphans()

    def test_remote_errors_keep_the_nodes_in_lockstep(self):
        """A remote application error is not a node death: it must not
        mark a node down, count a failover, or desync a channel."""
        with ClusterCacheService(60, "s3fifo", num_nodes=2,
                                 replication=2) as svc:
            svc.set("k", 1)
            before = svc.stats()
            for _ in range(3):
                with pytest.raises(ValueError):
                    svc.set("k", 1, size=0)
            after = svc.stats()
            for field in ("nodes_up", "failovers", "degraded_ops"):
                assert after[field] == before[field], field
            assert svc.set("k", 2) is True
            assert svc.get("k") == 2
        with ClusterCacheService(60, "blru", num_nodes=2,
                                 replication=2) as svc:
            assert svc.supports_removal is False
            before = svc.stats()
            with pytest.raises(RemovalUnsupportedError):
                svc.delete("q")
            with pytest.raises(RemovalUnsupportedError):
                svc.delete_many([1, 2])
            after = svc.stats()
            for field in ("nodes_up", "failovers", "degraded_ops"):
                assert after[field] == before[field], field
            # blru admits a key on its second sighting.
            assert svc.set("k", 1) is False
            assert svc.set("k", 1) is True
            assert svc.get("k") == 1
        assert_no_orphans()

    def test_replication_bounds_validated(self):
        with pytest.raises(ValueError):
            ClusterCacheService(60, "s3fifo", num_nodes=2, replication=3)
        with pytest.raises(ValueError):
            ClusterCacheService(60, "s3fifo", num_nodes=2, replication=0)
        assert_no_orphans()


class TestFailover:
    def crash_plan(self, at):
        return {1: FaultPlan().add(WORKER_CRASH, at, at + 1)}

    def run_with_crash(self, replication, at=30):
        svc = ClusterCacheService(
            120, "s3fifo", num_nodes=3, replication=replication,
            fault_plans=self.crash_plan(at),
        )
        try:
            keys = workload(n=120, span=60)
            svc.set_many([(k, k) for k in set(keys)])
            results, hits = read_through(svc, keys)
            stats = svc.stats()
        finally:
            svc.close()
        assert_no_orphans()
        return results, hits, stats

    def test_r2_zero_errors_and_deterministic(self):
        first, hits1, stats1 = self.run_with_crash(replication=2)
        second, hits2, stats2 = self.run_with_crash(replication=2)
        # The crash is absorbed: every read served, all from replicas.
        assert hits1 == len(first)
        assert stats1["nodes_up"] == 2
        assert stats1["failovers"] > 0
        assert stats1["degraded_ops"] == 0
        # Byte-identical across runs for a fixed seed and plan.
        assert first == second
        assert (hits1, stats1["failovers"]) == (hits2, stats2["failovers"])

    def test_r1_degrades_to_misses_never_hangs(self):
        first, hits1, stats1 = self.run_with_crash(replication=1)
        second, hits2, stats2 = self.run_with_crash(replication=1)
        # Without replicas, the dead node's keys are deterministic
        # misses — never stale reads, never an exception.
        assert hits1 < len(first)
        assert stats1["degraded_ops"] > 0
        assert first == second
        assert (hits1, stats1["degraded_ops"]) == (
            hits2, stats2["degraded_ops"]
        )

    def test_writes_survive_on_remaining_replica(self):
        # Capacity is sized for 60 keys x 2 replicas landing on the two
        # survivors — roomy enough that nothing is evicted.
        svc = ClusterCacheService(
            360, "s3fifo", num_nodes=3, replication=2,
            fault_plans=self.crash_plan(at=5),
        )
        try:
            for i in range(60):
                svc.set(f"k{i}", i)
            assert svc.stats()["nodes_up"] == 2
            # Every write is still readable from a surviving replica.
            for i in range(60):
                assert svc.get(f"k{i}") == i
        finally:
            svc.close()
        assert_no_orphans()

    def test_node_health_reports_the_dead_node(self):
        svc = ClusterCacheService(
            120, "s3fifo", num_nodes=3, replication=2,
            fault_plans=self.crash_plan(at=2),
        )
        try:
            for i in range(30):
                svc.set(f"k{i}", i)
            health = svc.node_health()
            assert health == {0: True, 1: False, 2: True}
        finally:
            svc.close()
        assert_no_orphans()


class TestReadRepair:
    def test_restarted_node_is_repaired_on_read(self):
        # Batched ops are ONE message per node, so the victim's logical
        # clock advances slowly; crash early so single-key reads (one
        # message per primary hit) reach the window.
        svc = ClusterCacheService(
            240, "s3fifo", num_nodes=3, replication=2,
            fault_plans={1: FaultPlan().add(WORKER_CRASH, 3, 4)},
        )
        try:
            keys = [f"k{i}" for i in range(40)]
            svc.set_many([(k, k) for k in keys])
            # Burn messages until the crash fires, then restart empty.
            for k in keys:
                svc.get(k)
            assert svc.stats()["nodes_up"] == 2
            svc.restart_node(1)
            assert svc.stats()["nodes_up"] == 3
            before = svc.stats()["read_repairs"]
            for k in keys:
                assert svc.get(k) == k
            repaired = svc.stats()["read_repairs"] - before
            # Keys whose primary is the empty node miss there, hit the
            # replica, and are copied back.
            assert repaired > 0
        finally:
            svc.close()
        assert_no_orphans()


class TestMembership:
    def test_rebalance_steady_state_moves_nothing(self):
        with ClusterCacheService(120, "s3fifo", num_nodes=3,
                                 replication=2) as svc:
            svc.set_many([(k, k) for k in range(40)])
            assert svc.rebalance() == 0

    def test_join_moves_bounded_fraction(self):
        # 120 keys x 2 replicas = 240 entries; capacity leaves headroom
        # so movement, not eviction, explains every relocation.
        with ClusterCacheService(480, "s3fifo", num_nodes=3,
                                 replication=2) as svc:
            keys = [f"k{i}" for i in range(120)]
            svc.set_many([(k, k) for k in keys])
            new_id = svc.join_node()
            assert new_id == 3
            moved = svc.rebalance()
            # ~R/(N+1) of keys gain the joiner as an owner; allow slack
            # for a small ring but reject wholesale reshuffles.
            assert 0 < moved < len(keys)
            assert moved / len(keys) < 0.5 + 0.25
            for k in keys:
                assert svc.get(k) == k
        assert_no_orphans()

    def test_remove_rehomes_and_keeps_serving(self):
        # After the removal two nodes hold every replica: 60 keys x 2
        # must fit in 2/3 of the cluster capacity.
        with ClusterCacheService(360, "s3fifo", num_nodes=3,
                                 replication=2) as svc:
            keys = [f"k{i}" for i in range(60)]
            svc.set_many([(k, k) for k in keys])
            svc.remove_node(2)
            assert svc.node_ids == [0, 1]
            for k in keys:
                assert svc.get(k) == k
        assert_no_orphans()

    def test_restart_requires_dead_node(self):
        with ClusterCacheService(120, "s3fifo", num_nodes=3) as svc:
            with pytest.raises(ValueError):
                svc.restart_node(0)  # still alive
            with pytest.raises(ValueError):
                svc.restart_node(99)  # never existed


class TestLifecycle:
    def test_close_is_idempotent(self):
        svc = ClusterCacheService(60, "s3fifo", num_nodes=2)
        svc.set("a", 1)
        svc.close()
        svc.close()
        assert_no_orphans()

    def test_ops_after_close_raise(self):
        svc = ClusterCacheService(60, "s3fifo", num_nodes=2)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.get("a")
        with pytest.raises(ServiceClosedError):
            svc.stats()

    def test_constructor_failure_leaves_no_nodes(self):
        with pytest.raises(Exception):
            ClusterCacheService(60, "definitely-not-a-policy", num_nodes=2)
        assert_no_orphans()

    def test_drain_then_close(self):
        svc = ClusterCacheService(60, "s3fifo", num_nodes=2, replication=2)
        try:
            svc.set_many([(k, k) for k in range(20)], ttl=0.01)
            time.sleep(0.03)
            stats = svc.drain()
            assert stats["expired"] == 40  # both replicas swept
        finally:
            svc.close()
        assert_no_orphans()


class _Stall:
    """A payload whose *deserialization* blocks for 30 s in the node,
    wedging the request/response ping-pong mid-exchange."""

    def __reduce__(self):
        return (time.sleep, (30.0,))


class TestWedgedNode:
    """Regression: close() once took a node's channel lock with no
    timeout, so a node wedged mid-exchange stalled it for the whole
    wedge."""

    def test_close_terminates_wedged_node(self):
        import threading

        svc = ClusterCacheService(60, "s3fifo", num_nodes=2,
                                  replication=2)
        svc.set("a", 1)

        def wedge():
            try:
                svc.set("stall", _Stall())  # wedges both replicas
            except Exception:
                pass  # teardown may surface as an error here

        t = threading.Thread(target=wedge, daemon=True)
        t.start()
        time.sleep(0.3)  # let the nodes start sleeping inside loads()
        start = time.monotonic()
        svc.close(timeout=1.0)
        elapsed = time.monotonic() - start
        # Bounded: lock acquire 0.1s per node + join 1s + terminate
        # grace, never the nodes' 30s nap.
        assert elapsed < 10.0
        svc.close()  # still idempotent after the hard path
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert_no_orphans()


class TestPlacementParity:
    def test_owners_match_a_standalone_ring(self):
        with ClusterCacheService(90, "s3fifo", num_nodes=3,
                                 replication=2, vnodes=32) as svc:
            ring = HashRing(range(3), vnodes=32)
            for k in workload(n=100):
                assert svc.owners_for(k) == ring.nodes_for(k, 2)


class TestMetrics:
    def test_cluster_metrics_exported(self):
        from repro.obs import MetricsRegistry, to_prometheus

        registry = MetricsRegistry()
        svc = ClusterCacheService(
            120, "s3fifo", num_nodes=3, replication=2, metrics=registry,
            fault_plans={1: FaultPlan().add(WORKER_CRASH, 10, 11)},
        )
        try:
            keys = workload(n=80, span=40)
            svc.set_many([(k, k) for k in set(keys)])
            read_through(svc, keys)
            text = to_prometheus(registry)
            assert "repro_cluster_nodes_up 2" in text
            assert 'repro_cluster_node_up{node="1"} 0' in text
            failovers = registry.get("repro_cluster_failovers")
            assert failovers.collect_value() == svc.stats()["failovers"]
            assert failovers.collect_value() > 0
        finally:
            svc.close()
        assert_no_orphans()


class TestLoadgenIntegration:
    def test_cluster_scenario_row(self):
        from repro.service.loadgen import run_scenario
        from repro.traces.synthetic import zipf_trace

        trace = zipf_trace(
            num_objects=300, num_requests=3000, alpha=1.0, seed=11
        )
        row = run_scenario(
            trace, capacity=30, num_shards=3, num_threads=1,
            backend="cluster", batch_size=16, replication=2,
        )
        assert row["backend"] == "cluster"
        assert row["workers"] == 3 and row["replication"] == 2
        assert row["ops"] == 3000
        assert row["errors"] == 0 and row["error_rate"] == 0.0
        assert row["nodes_up"] == 3
        assert_no_orphans()

    def test_cluster_scenario_tolerates_crash(self):
        from repro.service.loadgen import run_scenario
        from repro.traces.synthetic import zipf_trace

        trace = zipf_trace(
            num_objects=300, num_requests=3000, alpha=1.0, seed=11
        )
        row = run_scenario(
            trace, capacity=30, num_shards=3, num_threads=1,
            backend="cluster", batch_size=16, replication=2,
            fault_plans={1: FaultPlan().add(WORKER_CRASH, 50, 51)},
        )
        # R=2 absorbs the crash: the run completes with zero errors.
        assert row["error_rate"] == 0.0
        assert row["nodes_up"] == 2
        assert row["failovers"] > 0
        assert_no_orphans()
