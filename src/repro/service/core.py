"""A live, thread-safe, TTL-aware cache service over any registered policy.

Everything else in this repository *simulates* caches — it replays a
trace through an eviction policy and reports miss ratios.
:class:`CacheService` is the first layer that *is* a cache: it stores
values, answers ``get``/``set``/``delete`` under a lock, expires
entries, and keeps service-level statistics, while delegating every
admission/eviction decision to a registered
:class:`~repro.cache.base.EvictionPolicy` (S3-FIFO and its ``-fast``
twin first-class).

Design notes
------------

* **Policy mapping.**  ``get`` on a live entry issues one policy
  request (a hit — bumps S3-FIFO's frequency bits); ``get`` on an
  absent or expired key touches the policy *not at all* (there is no
  value to admit); ``set`` issues one policy request (a hit refreshes
  an overwrite, a miss admits and may evict).  A single-shard service
  replaying a read-through workload therefore drives the policy with
  exactly the same request sequence as the offline simulator — the
  parity tests pin this equivalence.
* **Residency.**  The value map only ever holds keys the policy is
  tracking.  A policy may decline to keep a key the service just
  offered it — admission filters (``blru``'s Bloom doorkeeper) reject
  first-touch keys outright, and a pathological policy could pick the
  in-flight key as its eviction victim — so ``set`` re-checks
  residency after the policy request and reports such sets as
  *rejected* instead of storing an orphaned value.
* **TTL.**  ``expires_at = clock() + ttl``; an entry is expired once
  ``clock() >= expires_at`` (*at* the deadline counts as expired).
  Expired entries never count as hits and never feed frequency bits:
  they are purged from the policy before it sees the access.  Expiry is
  lazy on access plus an incremental sweeper
  (:meth:`CacheService.sweep`) that callers or the service itself
  (every ``sweep_interval`` operations) run in small bounded batches.
  The sweeper tracks *only* keys that carry a TTL, in a FIFO queue fed
  as deadlines are assigned: a freshly TTL'd key is visited within
  ``ceil(queue_len / batch)`` sweeps no matter how many immortal
  entries share the cache, and still-live keys recycle to the tail.
  ``ttl=0`` means "expires immediately": the set is acknowledged but
  nothing is admitted.
* **Deletion.**  Real deletion needs policy support
  (:attr:`~repro.cache.base.EvictionPolicy.supports_removal`); the
  service refuses TTLs and deletes on policies without it rather than
  corrupt their queues with tombstones.
* **Locking.**  One re-entrant lock per service instance guards the
  value map and the policy (policies are single-threaded by design —
  the paper's lock-free claims are about its C implementations).
  :class:`~repro.service.sharded.ShardedCacheService` multiplies this
  into per-shard locks.
* **Observability.**  Pass a
  :class:`~repro.obs.metrics.MetricsRegistry` to export every counter
  in :class:`ServiceCounters` plus occupancy gauges (all read at
  collect time — zero hot-path cost) and per-op latency histograms
  (the one per-operation write); pass an
  :class:`~repro.obs.tracer.EventTracer` to sample individual
  decisions.  Without either, operations run exactly the pre-existing
  code path.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.cache.base import weak_listener
from repro.cache.registry import create_policy, removal_capable_policies
from repro.sim.request import Request

_UNSET = object()


class RemovalUnsupportedError(TypeError):
    """The backing policy cannot delete entries (no ``remove()``)."""

    def __init__(self, policy_name: str, operation: str) -> None:
        self.policy_name = policy_name
        self.operation = operation
        capable = ", ".join(removal_capable_policies())
        super().__init__(
            f"policy {policy_name!r} does not support remove(), which "
            f"{operation} requires; use a removal-capable policy: {capable}"
        )

    def __reduce__(self):
        # args holds the formatted message, not the constructor inputs,
        # so default pickling would re-call __init__ with the wrong
        # arity; the mp backend ships this exception across pipes.
        return (type(self), (self.policy_name, self.operation))


class ServiceCounters:
    """Operation-level counters for one :class:`CacheService`.

    Distinct from the policy's :class:`~repro.cache.base.CacheStats`:
    these count *service operations* (a ``get`` that misses never
    reaches the policy), the policy's stats count *policy requests*.
    """

    __slots__ = (
        "gets",
        "hits",
        "misses",
        "sets",
        "deletes",
        "expired",
        "evictions",
        "rejected",
        "sweeps",
        "sweep_checks",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def hit_ratio(self) -> float:
        """Fraction of gets served from cache (expired gets are misses)."""
        return self.hits / self.gets if self.gets else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"ServiceCounters(gets={self.gets}, hit_ratio={self.hit_ratio:.4f},"
            f" sets={self.sets}, expired={self.expired})"
        )


#: Help strings for the exported ``repro_service_<counter>_total``
#: family, one per :class:`ServiceCounters` slot (pinned by tests).
_COUNTER_HELP: Dict[str, str] = {
    "gets": "Service get operations.",
    "hits": "Gets served from cache.",
    "misses": "Gets that found no live value (absent or expired).",
    "sets": "Service set operations.",
    "deletes": "Service delete operations.",
    "expired": "Entries that died of TTL (lazy or swept).",
    "evictions": "Entries evicted by policy decision.",
    "rejected": "Sets refused residency (oversized or policy-declined).",
    "sweeps": "Incremental sweeper batches run.",
    "sweep_checks": "Keys examined by the sweeper.",
}


class _Entry:
    """A stored value plus its expiry deadline and charged size."""

    __slots__ = ("value", "expires_at", "size")

    def __init__(self, value: Any, expires_at: Optional[float], size: int) -> None:
        self.value = value
        self.expires_at = expires_at
        self.size = size


class CacheService:
    """An in-process cache service: ``get``/``set``/``delete``/``stats``.

    Parameters
    ----------
    capacity:
        Policy capacity (objects for unit-size values, bytes when sets
        pass explicit sizes).
    policy:
        Registry name of the backing eviction policy.
    default_ttl:
        TTL in seconds applied to sets that don't pass one explicitly;
        ``None`` (default) stores entries without expiry.
    clock:
        Monotonic time source; injectable so TTL tests are exact.
    checked:
        Wrap the policy in the
        :class:`~repro.resilience.sanitizer.CheckedPolicy` invariant
        sanitizer — every access cross-checked, as in the concurrent
        hammer tests.
    sweep_interval / sweep_batch:
        Run one incremental expiry sweep of ``sweep_batch`` entries
        every ``sweep_interval`` operations (only while the sweeper has
        TTL'd keys queued).  ``sweep_interval=0`` disables the
        automatic sweeps; :meth:`sweep` remains available.
    policy_kwargs:
        Extra keyword arguments for the policy constructor.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to publish into;
        ``None`` (default) disables metrics entirely.
    tracer:
        An :class:`~repro.obs.tracer.EventTracer` sampling individual
        operations; ``None`` (default) disables tracing.
    instrument_policy:
        Also wrap the policy in
        :class:`~repro.obs.policy.InstrumentedPolicy` (queue depths,
        ghost hits, demotions).  Requires ``metrics``.
    metrics_labels:
        Extra labels stamped on every metric this service registers
        (:class:`~repro.service.sharded.ShardedCacheService` passes
        ``{"shard": i}``).
    shard_id:
        Recorded on trace events so multi-shard traces stay legible.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "s3fifo",
        *,
        default_ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        checked: bool = False,
        sweep_interval: int = 256,
        sweep_batch: int = 64,
        policy_kwargs: Optional[Dict[str, Any]] = None,
        metrics=None,
        tracer=None,
        instrument_policy: bool = False,
        metrics_labels: Optional[Dict[str, str]] = None,
        shard_id: Optional[int] = None,
    ) -> None:
        if default_ttl is not None and default_ttl < 0:
            raise ValueError(f"default_ttl must be >= 0, got {default_ttl}")
        if sweep_interval < 0:
            raise ValueError(f"sweep_interval must be >= 0, got {sweep_interval}")
        if sweep_batch < 1:
            raise ValueError(f"sweep_batch must be >= 1, got {sweep_batch}")
        if instrument_policy and metrics is None:
            raise ValueError("instrument_policy=True requires a metrics registry")
        backing = create_policy(policy, capacity=capacity, **(policy_kwargs or {}))
        if checked:
            from repro.resilience.sanitizer import CheckedPolicy

            self._policy = CheckedPolicy(backing)
        else:
            self._policy = backing
        self.policy_name = backing.name
        self.capacity = capacity
        self.checked = checked
        self.supports_removal = bool(getattr(backing, "supports_removal", False))
        if default_ttl is not None and not self.supports_removal:
            raise RemovalUnsupportedError(self.policy_name, "default_ttl")
        self.default_ttl = default_ttl
        self.counters = ServiceCounters()
        self._clock = clock
        self._lock = threading.RLock()
        self._values: Dict[Hashable, _Entry] = {}
        self._ttl_entries = 0
        self._sweep_interval = sweep_interval
        self._sweep_batch = sweep_batch
        self._sweep_queue: Deque[Hashable] = deque()
        self._sweep_enqueued: Set[Hashable] = set()
        self._ops_since_sweep = 0
        self._tracer = tracer
        self._shard_id = shard_id
        self._lat: Optional[Dict[str, Any]] = None
        if instrument_policy:
            from repro.obs.policy import InstrumentedPolicy

            self._policy = InstrumentedPolicy(
                self._policy, metrics, metrics_labels
            )
        if metrics is not None:
            self._wire_metrics(metrics, dict(metrics_labels or {}))
        self._observed = metrics is not None or tracer is not None
        # Weak, or a dropped service and every value it stores would
        # wait for a full GC pass (service -> policy -> listener cycle).
        backing.add_eviction_listener(weak_listener(self._on_evict))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """The live value for ``key``, or ``default``.

        A hit refreshes the policy's metadata for the key (for S3-FIFO:
        bumps the 2-bit counter).  Misses — absent *or expired* — do not
        touch the policy.
        """
        observed = self._observed
        t0 = time.perf_counter_ns() if observed else 0
        with self._lock:
            return self._get_locked(key, default, observed, t0)

    def set(
        self,
        key: Hashable,
        value: Any,
        ttl: Any = _UNSET,
        size: int = 1,
    ) -> bool:
        """Store ``value`` under ``key``; True when the value is resident.

        ``ttl`` seconds override the service's ``default_ttl``
        (``None`` = never expires, ``0`` = expires immediately — the
        set is a no-op beyond purging any live predecessor).  ``size``
        charges the entry against the policy capacity; an entry larger
        than the whole cache is rejected, as is any set whose key the
        policy declines to retain (admission-filter policies reject
        first-touch keys).  Re-setting a live key refreshes its value,
        size, and deadline.
        """
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if ttl is _UNSET:
            ttl = self.default_ttl
        if ttl is not None:
            if ttl < 0:
                raise ValueError(f"ttl must be >= 0, got {ttl}")
            if not self.supports_removal:
                raise RemovalUnsupportedError(self.policy_name, "ttl")
        observed = self._observed
        t0 = time.perf_counter_ns() if observed else 0
        with self._lock:
            stored, outcome = self._set_locked(key, value, ttl, size)
            self._tick()
            if observed:
                self._record("set", key, outcome, t0)
            return stored

    def delete(self, key: Hashable) -> bool:
        """Remove ``key``; True when a live entry was removed."""
        if not self.supports_removal:
            raise RemovalUnsupportedError(self.policy_name, "delete()")
        observed = self._observed
        t0 = time.perf_counter_ns() if observed else 0
        with self._lock:
            return self._delete_locked(key, observed, t0)

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------
    def get_many(self, keys: Iterable[Hashable],
                 default: Any = None) -> List[Any]:
        """The live values for ``keys``, aligned with the input order.

        Semantically identical to ``[self.get(k, default) for k in
        keys]`` — same counter increments, same policy requests, same
        sweeper cadence, in the same per-key order — but the lock is
        acquired once for the whole batch instead of once per key.  The
        batch-parity tests pin the stats equivalence byte-for-byte.
        """
        observed = self._observed
        results = []
        with self._lock:
            for key in keys:
                t0 = time.perf_counter_ns() if observed else 0
                results.append(self._get_locked(key, default, observed, t0))
        return results

    def set_many(
        self,
        items: Iterable[Tuple[Hashable, Any]],
        ttl: Any = _UNSET,
        size: int = 1,
    ) -> List[bool]:
        """Store ``(key, value)`` pairs; one residency bool per pair.

        Equivalent to ``[self.set(k, v, ttl, size) for k, v in items]``
        under a single lock acquisition; ``ttl`` and ``size`` apply to
        every pair.  Stats parity with the per-key loop is pinned by
        the batch-parity tests.
        """
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if ttl is _UNSET:
            ttl = self.default_ttl
        if ttl is not None:
            if ttl < 0:
                raise ValueError(f"ttl must be >= 0, got {ttl}")
            if not self.supports_removal:
                raise RemovalUnsupportedError(self.policy_name, "ttl")
        observed = self._observed
        results = []
        with self._lock:
            for key, value in items:
                t0 = time.perf_counter_ns() if observed else 0
                stored, outcome = self._set_locked(key, value, ttl, size)
                self._tick()
                if observed:
                    self._record("set", key, outcome, t0)
                results.append(stored)
        return results

    def delete_many(self, keys: Iterable[Hashable]) -> List[bool]:
        """Remove ``keys``; one was-live bool per key (single lock hold)."""
        if not self.supports_removal:
            raise RemovalUnsupportedError(self.policy_name, "delete_many()")
        observed = self._observed
        results = []
        with self._lock:
            for key in keys:
                t0 = time.perf_counter_ns() if observed else 0
                results.append(self._delete_locked(key, observed, t0))
        return results

    def sweep(self, max_checks: Optional[int] = None) -> int:
        """Expire up to ``max_checks`` entries; returns how many died.

        One incremental step of the background sweeper.  The sweeper's
        queue holds exactly the keys that were ever given a TTL (plus
        since-departed stragglers, dropped on sight), so a batch never
        wastes checks on immortal entries and a key with a deadline is
        guaranteed a visit within ``ceil(queue_len / batch)`` sweeps of
        being queued — the starvation bound the TTL tests pin.  Keys
        still alive when visited recycle to the tail.
        """
        if max_checks is None:
            max_checks = self._sweep_batch
        with self._lock:
            self.counters.sweeps += 1
            queue = self._sweep_queue
            if not queue:
                return 0
            expired = 0
            # len() is taken once: tail recycles queued this batch are
            # not revisited, so every iteration retires one old slot.
            for _ in range(min(max_checks, len(queue))):
                key = queue.popleft()
                self.counters.sweep_checks += 1
                entry = self._values.get(key)
                if entry is None or entry.expires_at is None:
                    # Evicted, deleted, already expired, or re-set
                    # without a TTL since it was queued: stop tracking.
                    self._sweep_enqueued.discard(key)
                elif self._expired(entry):
                    self._sweep_enqueued.discard(key)
                    self._purge(key, entry)
                    self.counters.expired += 1
                    expired += 1
                else:
                    queue.append(key)
            return expired

    # ------------------------------------------------------------------
    # Migration (cluster rebalancing)
    # ------------------------------------------------------------------
    def export_entries(self) -> List[Tuple[Hashable, Any, Optional[float], int]]:
        """Snapshot every live entry as ``(key, value, ttl, size)``.

        ``ttl`` is the *remaining* lifetime (``None`` for immortal
        entries), so an entry imported elsewhere keeps roughly its
        original deadline even though the two services run on
        different clocks.  Pure read: no counters move, no policy
        state is touched, expired-but-unswept entries are skipped.
        Used by the cluster tier to rebalance keys between nodes.
        """
        with self._lock:
            now = self._clock()
            out: List[Tuple[Hashable, Any, Optional[float], int]] = []
            for key, entry in self._values.items():
                if entry.expires_at is not None and now >= entry.expires_at:
                    continue
                ttl = (
                    None if entry.expires_at is None
                    else entry.expires_at - now
                )
                out.append((key, entry.value, ttl, entry.size))
            return out

    def import_entries(
        self, entries: Iterable[Tuple[Hashable, Any, Optional[float], int]]
    ) -> int:
        """Admit exported entries; returns how many became resident.

        Each entry goes through the normal set path — it counts as a
        set, charges its original size, and the policy may decline it
        (admission filters apply to migrated keys exactly as to fresh
        ones); declined entries are dropped, not retried.  TTL'd
        entries require a removal-capable policy, as everywhere else.
        """
        stored_count = 0
        with self._lock:
            for key, value, ttl, size in entries:
                if ttl is not None:
                    if not self.supports_removal:
                        raise RemovalUnsupportedError(
                            self.policy_name, "import_entries() with ttl"
                        )
                    if ttl < 0:
                        # Died in transit: ttl=0 is the acknowledged
                        # expires-immediately path (nothing admitted).
                        ttl = 0
                stored, _ = self._set_locked(key, value, ttl, size)
                self._tick()
                if stored:
                    stored_count += 1
        return stored_count

    def stats(self) -> Dict[str, Any]:
        """A consistent snapshot of service and policy statistics."""
        with self._lock:
            counters = self.counters.as_dict()
            policy = self._policy
            return {
                "policy": self.policy_name,
                "capacity": self.capacity,
                "objects": len(self._values),
                "used": policy.used,
                "hit_ratio": self.counters.hit_ratio,
                "ttl_entries": self._ttl_entries,
                "sweep_backlog": len(self._sweep_queue),
                "policy_requests": policy.stats.requests,
                "policy_miss_ratio": policy.stats.miss_ratio,
                **counters,
            }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def policy(self):
        """The backing policy (the outermost wrapper when decorated)."""
        return self._policy

    def __contains__(self, key: Hashable) -> bool:
        """Live membership; non-mutating (an expired entry reads absent)."""
        with self._lock:
            entry = self._values.get(key)
            return entry is not None and not self._expired(entry)

    def __len__(self) -> int:
        """Resident entries, expired-but-unswept included."""
        with self._lock:
            return len(self._values)

    def check(self) -> None:
        """Run the sanitizer's full invariant suite (checked mode only)."""
        with self._lock:
            if self.checked:
                self._policy.check()
            used = sum(e.size for e in self._values.values())
            if used != self._policy.used:
                raise AssertionError(
                    f"service value map holds {used} bytes but policy "
                    f"reports used={self._policy.used}"
                )
            if len(self._sweep_enqueued) != len(self._sweep_queue):
                raise AssertionError(
                    f"sweep queue ({len(self._sweep_queue)}) and its "
                    f"membership set ({len(self._sweep_enqueued)}) diverged"
                )

    def __repr__(self) -> str:
        return (
            f"CacheService({self.policy_name}, capacity={self.capacity}, "
            f"objects={len(self._values)})"
        )

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _get_locked(self, key: Hashable, default: Any, observed: bool,
                    t0: int) -> Any:
        """The body of :meth:`get` (shared with :meth:`get_many`)."""
        self.counters.gets += 1
        entry = self._values.get(key)
        outcome = "miss"
        if entry is not None and self._expired(entry):
            self._purge(key, entry)
            self.counters.expired += 1
            entry = None
            outcome = "expired"
        if entry is None:
            self.counters.misses += 1
            self._tick()
            if observed:
                self._record("get", key, outcome, t0)
            return default
        hit = self._policy.request(Request(key, size=entry.size))
        assert hit, f"resident key {key!r} missed in the policy"
        self.counters.hits += 1
        self._tick()
        if observed:
            self._record("get", key, "hit", t0)
        return entry.value

    def _delete_locked(self, key: Hashable, observed: bool, t0: int) -> bool:
        """The body of :meth:`delete` (shared with :meth:`delete_many`)."""
        self.counters.deletes += 1
        entry = self._values.get(key)
        if entry is None:
            if observed:
                self._record("delete", key, "absent", t0)
            return False
        was_live = not self._expired(entry)
        self._purge(key, entry)
        if not was_live:
            self.counters.expired += 1
        self._tick()
        if observed:
            self._record(
                "delete", key, "deleted" if was_live else "expired", t0
            )
        return was_live

    def _set_locked(self, key: Hashable, value: Any, ttl: Optional[float],
                    size: int):
        """The body of :meth:`set`; returns ``(stored, outcome)``."""
        self.counters.sets += 1
        entry = self._values.get(key)
        if entry is not None and self._expired(entry):
            # The predecessor died before this set: purge it first so
            # the policy sees a fresh admission (frequency bits must
            # not survive expiry).
            self._purge(key, entry)
            self.counters.expired += 1
            entry = None
        if ttl == 0:
            if entry is not None:
                self._purge(key, entry)
            return False, "expired"
        if size > self.capacity:
            if entry is not None:
                self._purge(key, entry)
            self.counters.rejected += 1
            return False, "rejected"
        if entry is not None and entry.size != size:
            # Policies cannot resize a resident entry in place.
            self._purge(key, entry)
            entry = None
        refreshed = entry is not None
        self._policy.request(Request(key, size=size))
        if key not in self._policy:
            # The policy did not retain the key: admission was refused
            # (blru's Bloom doorkeeper rejects first touches) or the
            # in-flight key was picked as the eviction victim.  Storing
            # the value anyway would orphan it in the map and the next
            # get would trip the residency assertion.
            dropped = self._values.pop(key, None)
            if dropped is not None and dropped.expires_at is not None:
                self._ttl_entries -= 1
            self.counters.rejected += 1
            return False, "rejected"
        expires_at = None if ttl is None else self._clock() + ttl
        if key not in self._values:
            self._values[key] = _Entry(value, expires_at, size)
            if expires_at is not None:
                self._track_ttl(key)
        else:
            existing = self._values[key]
            had_ttl = existing.expires_at is not None
            existing.value = value
            existing.expires_at = expires_at
            if expires_at is not None and not had_ttl:
                self._track_ttl(key)
            elif had_ttl and expires_at is None:
                self._ttl_entries -= 1
        return True, ("refreshed" if refreshed else "stored")

    def _track_ttl(self, key: Hashable) -> None:
        """A key just gained a TTL: count it and queue it for the sweeper.

        A key already queued (a purged predecessor's slot, or a live
        entry whose deadline moved) keeps its existing slot — the queue
        and its membership set always agree.
        """
        self._ttl_entries += 1
        if key not in self._sweep_enqueued:
            self._sweep_enqueued.add(key)
            self._sweep_queue.append(key)

    def _expired(self, entry: _Entry) -> bool:
        return entry.expires_at is not None and self._clock() >= entry.expires_at

    def _purge(self, key: Hashable, entry: _Entry) -> None:
        """Drop an entry from the value map and the policy (no event)."""
        del self._values[key]
        if entry.expires_at is not None:
            self._ttl_entries -= 1
        self._policy.remove(key)

    def _on_evict(self, event) -> None:
        """Policy evicted a key: the stored value goes with it."""
        entry = self._values.pop(event.key, None)
        if entry is not None and entry.expires_at is not None:
            self._ttl_entries -= 1
        self.counters.evictions += 1

    def _tick(self) -> None:
        """Operation bookkeeping: trigger an incremental sweep on cadence."""
        if not self._sweep_interval or not self._sweep_queue:
            return
        self._ops_since_sweep += 1
        if self._ops_since_sweep >= self._sweep_interval:
            self._ops_since_sweep = 0
            self.sweep(self._sweep_batch)

    def _wire_metrics(self, registry, labels: Dict[str, str]) -> None:
        """Publish service state into ``registry``.

        Counters and gauges read existing state through collect-time
        callbacks — zero hot-path cost.  The per-op latency histograms
        are the only metrics written per operation, and only exist
        because a registry was injected at all.
        """
        counters = self.counters
        for field, help_text in _COUNTER_HELP.items():
            registry.counter(
                f"repro_service_{field}", help_text, labels
            ).set_function(lambda c=counters, f=field: getattr(c, f))
        for name, help_text, fn in (
            ("repro_service_objects",
             "Entries resident in the value map (unswept expired included).",
             lambda: len(self._values)),
            ("repro_service_used",
             "Capacity units occupied per the policy.",
             lambda: self._policy.used),
            ("repro_service_capacity",
             "Configured capacity of this service (or shard).",
             lambda: self.capacity),
            ("repro_service_ttl_entries",
             "Live entries carrying a TTL.",
             lambda: self._ttl_entries),
            ("repro_service_sweep_backlog",
             "Keys queued for the incremental expiry sweeper.",
             lambda: len(self._sweep_queue)),
            ("repro_service_hit_ratio",
             "Fraction of gets served from cache.",
             lambda: self.counters.hit_ratio),
        ):
            registry.gauge(name, help_text, labels).set_function(fn)
        self._lat = {
            op: registry.histogram(
                "repro_service_op_latency_us",
                "Service operation latency in microseconds.",
                {**labels, "op": op},
            )
            for op in ("get", "set", "delete")
        }

    def _record(self, op: str, key: Hashable, outcome: str, t0: int) -> None:
        """Feed one finished operation to the histograms and tracer."""
        latency_us = (time.perf_counter_ns() - t0) / 1000.0
        if self._lat is not None:
            self._lat[op].observe(latency_us)
        if self._tracer is not None:
            self._tracer.record(op, key, outcome, latency_us, self._shard_id)
