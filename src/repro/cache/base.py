"""Common interface for cache eviction policies.

The contract mirrors libCacheSim's: a policy is constructed with a
capacity (in abstract units — objects for the paper's main evaluation,
bytes for the byte-miss-ratio evaluation) and consumes a stream of
:class:`~repro.sim.request.Request` objects, reporting hit/miss per
request.  Policies emit :class:`EvictionEvent` notifications so that
analyses such as frequency-at-eviction (Fig. 4) and quick-demotion
speed/precision (Fig. 10) can observe them without modifying the
policy.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import Callable, ClassVar, Hashable, List, Optional

from repro.sim.request import Request


class CacheStats:
    """Hit/miss accounting for one policy run."""

    __slots__ = (
        "requests",
        "hits",
        "misses",
        "bytes_requested",
        "bytes_missed",
        "evictions",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.bytes_requested = 0
        self.bytes_missed = 0
        self.evictions = 0

    def record(self, req: Request, hit: bool) -> None:
        self.requests += 1
        self.bytes_requested += req.size
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            self.bytes_missed += req.size

    def as_dict(self) -> dict:
        """All counters as a plain dict (snapshot / sanitizer interchange)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, counters: dict) -> "CacheStats":
        stats = cls()
        for name in cls.__slots__:
            setattr(stats, name, int(counters.get(name, 0)))
        return stats

    def checksum(self) -> str:
        """A stable hex digest of the counters.

        Two stats objects with identical counters — e.g. a snapshot and
        its warm-restarted twin, or two runs of the same fault plan —
        have equal checksums, so tests can compare runs without poking
        ``__slots__`` field by field.
        """
        import zlib

        canonical = ",".join(
            f"{name}={getattr(self, name)}" for name in self.__slots__
        )
        return f"{zlib.crc32(canonical.encode()) & 0xFFFFFFFF:08x}"

    @property
    def miss_ratio(self) -> float:
        """Fraction of requests that missed (the paper's main metric)."""
        return self.misses / self.requests if self.requests else 0.0

    @property
    def byte_miss_ratio(self) -> float:
        """Fraction of requested bytes that missed (Section 5.2.3)."""
        if self.bytes_requested == 0:
            return 0.0
        return self.bytes_missed / self.bytes_requested

    def __repr__(self) -> str:
        return (
            f"CacheStats(requests={self.requests}, hits={self.hits}, "
            f"misses={self.misses}, miss_ratio={self.miss_ratio:.4f})"
        )


class CacheEntry:
    """A resident object's metadata.

    ``freq`` counts accesses *after* insertion, capped by the policy if
    it chooses (S3-FIFO caps at 3 to model two bits).
    """

    __slots__ = ("key", "size", "freq", "insert_time", "last_access")

    def __init__(self, key: Hashable, size: int, insert_time: int) -> None:
        self.key = key
        self.size = size
        self.freq = 0
        self.insert_time = insert_time
        self.last_access = insert_time

    def __repr__(self) -> str:
        return f"CacheEntry({self.key!r}, size={self.size}, freq={self.freq})"


class EvictionEvent:
    """Emitted whenever a policy removes an object from the cache."""

    __slots__ = ("key", "size", "freq", "insert_time", "evict_time")

    def __init__(
        self,
        key: Hashable,
        size: int,
        freq: int,
        insert_time: int,
        evict_time: int,
    ) -> None:
        self.key = key
        self.size = size
        self.freq = freq
        self.insert_time = insert_time
        self.evict_time = evict_time

    @property
    def age(self) -> int:
        """Logical time the object spent in the cache."""
        return self.evict_time - self.insert_time

    def __repr__(self) -> str:
        return (
            f"EvictionEvent({self.key!r}, freq={self.freq}, age={self.age})"
        )


EvictionListener = Callable[[EvictionEvent], None]


class DemotionEvent:
    """Emitted when an object leaves a policy's probationary region.

    ``promoted`` distinguishes objects that graduated to the main
    region from objects that were demoted out of the cache.  Only
    policies with an explicit probationary structure (S3-FIFO's S,
    TinyLFU's window, ARC's T1, ...) emit these; Section 6.1's quick
    demotion speed/precision analysis is built on them.
    """

    __slots__ = ("key", "size", "insert_time", "demote_time", "promoted")

    def __init__(
        self,
        key: Hashable,
        size: int,
        insert_time: int,
        demote_time: int,
        promoted: bool,
    ) -> None:
        self.key = key
        self.size = size
        self.insert_time = insert_time
        self.demote_time = demote_time
        self.promoted = promoted

    @property
    def time_in_probation(self) -> int:
        return self.demote_time - self.insert_time

    def __repr__(self) -> str:
        return (
            f"DemotionEvent({self.key!r}, time={self.time_in_probation}, "
            f"promoted={self.promoted})"
        )


DemotionListener = Callable[[DemotionEvent], None]


def weak_listener(method: Callable) -> Callable:
    """A listener that calls bound ``method`` while its object lives.

    A policy holds its listeners, so registering a bound method ties the
    method's object to the policy's lifetime (and, when that object holds
    the policy, forms a cycle only a full GC pass frees).  Once the
    object is gone this listener does nothing, so the policy stays
    usable.
    """
    ref = weakref.WeakMethod(method)

    def listener(event) -> None:
        bound = ref()
        if bound is not None:
            bound(event)

    return listener


class EvictionPolicy(ABC):
    """Abstract base class for all eviction policies.

    Subclasses implement :meth:`_access`, returning whether the request
    hit.  The base class maintains the logical clock, statistics, and
    eviction listeners.
    """

    #: Registry / display name ("s3fifo", "lru", ...).
    name: ClassVar[str] = "abstract"

    #: Whether :meth:`remove` is implemented.  Live deletion is not part
    #: of the paper's trace-replay contract, so only the policies the
    #: service layer (:mod:`repro.service`) builds on opt in.
    supports_removal: ClassVar[bool] = False

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self.clock = 0
        self.used = 0
        self._evict_listeners: List[EvictionListener] = []
        self._demote_listeners: List[DemotionListener] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def request(self, req: Request) -> bool:
        """Process one request; returns True on a cache hit."""
        if req.size > self.capacity:
            # An object larger than the whole cache can never be cached;
            # count the miss but do not admit (libCacheSim behaviour).
            self.clock += 1
            self.stats.record(req, False)
            return False
        self.clock += 1
        if req.time == 0:
            req.time = self.clock
        hit = self._access(req)
        self.stats.record(req, hit)
        return hit

    def access(self, key: Hashable, size: int = 1) -> bool:
        """Convenience wrapper building a :class:`Request` for ``key``."""
        return self.request(Request(key, size=size))

    def remove(self, key: Hashable) -> bool:
        """Remove ``key`` from the cache if resident; True when removed.

        Deletion is *not* an eviction: no :class:`EvictionEvent` fires
        and ``stats.evictions`` does not move, because eviction-stream
        analyses (Fig. 4, Fig. 10) must only see policy decisions, not
        external deletes.  Policies that support live deletion set
        ``supports_removal = True`` and override this; the default
        raises so callers can fail loudly rather than corrupt state.
        """
        raise NotImplementedError(
            f"policy {self.name!r} does not support remove(); "
            "see EvictionPolicy.supports_removal"
        )

    def add_eviction_listener(self, listener: EvictionListener) -> None:
        """Register a callback invoked for every eviction."""
        self._evict_listeners.append(listener)

    def add_demotion_listener(self, listener: DemotionListener) -> None:
        """Register a callback for probationary-region exits (if any)."""
        self._demote_listeners.append(listener)

    def instrumented(self, registry, labels=None):
        """This policy wrapped in a metrics-publishing proxy.

        Convenience for
        :class:`~repro.obs.policy.InstrumentedPolicy`: queue depths,
        ghost hits, demotion and eviction streams land in ``registry``
        while the wrapper stays a drop-in replacement for the policy.
        """
        from repro.obs.policy import InstrumentedPolicy

        return InstrumentedPolicy(self, registry, labels)

    @property
    def miss_ratio(self) -> float:
        return self.stats.miss_ratio

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    @abstractmethod
    def _access(self, req: Request) -> bool:
        """Handle one request (admission, promotion, eviction)."""

    @abstractmethod
    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` is currently resident (ghost entries excluded)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of resident objects."""

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _notify_evict(self, entry: CacheEntry) -> None:
        self.stats.evictions += 1
        if self._evict_listeners:
            event = EvictionEvent(
                key=entry.key,
                size=entry.size,
                freq=entry.freq,
                insert_time=entry.insert_time,
                evict_time=self.clock,
            )
            for listener in self._evict_listeners:
                listener(event)

    def _notify_demote(self, entry: CacheEntry, promoted: bool) -> None:
        if self._demote_listeners:
            event = DemotionEvent(
                key=entry.key,
                size=entry.size,
                insert_time=entry.insert_time,
                demote_time=self.clock,
                promoted=promoted,
            )
            for listener in self._demote_listeners:
                listener(event)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"used={self.used}, objects={len(self)})"
        )
