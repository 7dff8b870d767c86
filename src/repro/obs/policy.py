"""Opt-in instrumentation wrapper for eviction policies.

:class:`InstrumentedPolicy` stands between a component (usually
:class:`~repro.service.core.CacheService`) and its policy, exactly
like the resilience sanitizer does, and publishes the policy's
internal dynamics into a :class:`~repro.obs.metrics.MetricsRegistry`:

* **queue depths** — for S3-FIFO-shaped policies (anything exposing
  ``small_used`` / ``main_used``), collect-time gauges for the S and M
  queues and the ghost queue G, so shard dashboards show the
  probationary/main split the paper's Fig. 11 sweeps statically;
* **ghost hit rate** — admissions that entered M directly because the
  key was remembered by G (``repro_policy_ghost_hits_total`` over
  ``repro_policy_admissions_total``), the live counterpart of the
  paper's "one ghost hit = one saved second-chance miss" argument;
* **demotion rate** — reuses the :class:`~repro.cache.base.DemotionEvent`
  stream that :mod:`repro.core.demotion` built for Fig. 10: counters
  for promoted vs. demoted probation exits;
* **evictions** — a counter plus a frequency-at-eviction histogram
  (buckets 0..freq_cap), the live Fig. 4.

The wrapper is opt-in and composes: wrap a raw policy, or wrap a
:class:`~repro.resilience.sanitizer.CheckedPolicy` to observe a
sanitized policy.  Per-request overhead is two dict-free counter
bumps plus, on misses, one membership probe; components that don't
ask for instrumentation pay nothing.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.cache.base import weak_listener
from repro.obs.metrics import LabelDict, MetricsRegistry
from repro.sim.request import Request


class InstrumentedPolicy:
    """A transparent metrics-publishing proxy around an eviction policy.

    Delegates the full policy surface (``stats``, ``capacity``,
    ``remove``, listeners, introspection) to the wrapped instance, so
    it can stand in for the raw policy anywhere, the same contract as
    :class:`~repro.resilience.sanitizer.CheckedPolicy`.
    """

    def __init__(
        self,
        policy,
        registry: MetricsRegistry,
        labels: Optional[LabelDict] = None,
    ) -> None:
        self._policy = policy
        self._registry = registry
        labels = dict(labels or {})
        labels.setdefault("policy", policy.name)
        self._labels = labels

        # Hot-path counters (bumped in request()).
        self._admissions = registry.counter(
            "repro_policy_admissions",
            "Misses that admitted an object into the cache.",
            labels,
        )
        self._ghost_hits = registry.counter(
            "repro_policy_ghost_hits",
            "Admissions routed straight to the main queue by a ghost hit.",
            labels,
        )
        # Event-stream counters (fired by the policy's own listeners).
        self._evictions = registry.counter(
            "repro_policy_evictions",
            "Objects evicted by policy decision (deletes excluded).",
            labels,
        )
        freq_cap = int(getattr(policy, "_freq_cap", 3))
        self._evict_freq = registry.histogram(
            "repro_policy_eviction_freq",
            "Frequency counter value at eviction (the live Fig. 4).",
            labels,
            buckets=range(freq_cap + 1),
        )
        self._demotions = {
            outcome: registry.counter(
                "repro_policy_demotions",
                "Probationary-queue exits by outcome (the live Fig. 10 "
                "stream).",
                {**labels, "outcome": outcome},
            )
            for outcome in ("promoted", "demoted")
        }
        # Weak, or the policy would keep the wrapper and its registry.
        policy.add_eviction_listener(weak_listener(self._on_evict))
        policy.add_demotion_listener(weak_listener(self._on_demote))

        # Collect-time counters/gauges derived from policy state.
        stats = policy.stats
        registry.counter(
            "repro_policy_requests", "Requests the policy has processed.",
            labels,
        ).set_function(lambda: stats.requests)
        registry.counter(
            "repro_policy_hits", "Policy-level cache hits.", labels,
        ).set_function(lambda: stats.hits)
        registry.counter(
            "repro_policy_misses", "Policy-level cache misses.", labels,
        ).set_function(lambda: stats.misses)
        registry.gauge(
            "repro_policy_used", "Capacity units currently occupied.",
            labels,
        ).set_function(lambda: policy.used)
        registry.gauge(
            "repro_policy_objects", "Objects currently resident.", labels,
        ).set_function(lambda: len(policy))
        self._wire_queue_gauges()

    def _wire_queue_gauges(self) -> None:
        """Publish S/M/G depths for policies that expose them."""
        policy, registry, labels = self._policy, self._registry, self._labels
        if not hasattr(policy, "small_used"):
            return
        for name, attr in (
            ("repro_policy_small_used", "small_used"),
            ("repro_policy_main_used", "main_used"),
            ("repro_policy_small_capacity", "small_capacity"),
            ("repro_policy_main_capacity", "main_capacity"),
        ):
            registry.gauge(
                name, f"S3-FIFO queue metric ({attr}).", labels,
            ).set_function(
                lambda p=policy, a=attr: getattr(p, a)
            )
        if hasattr(policy, "ghost_len"):  # s3fifo-fast
            ghost_depth = lambda: policy.ghost_len  # noqa: E731
        elif hasattr(policy, "ghost"):  # reference s3fifo family
            ghost_depth = lambda: len(policy.ghost)  # noqa: E731
        else:
            return
        registry.gauge(
            "repro_policy_ghost_entries",
            "Keys currently remembered by the ghost queue G.",
            labels,
        ).set_function(ghost_depth)

    # ------------------------------------------------------------------
    # Listener callbacks
    # ------------------------------------------------------------------
    def _on_evict(self, event) -> None:
        self._evictions.inc()
        self._evict_freq.observe(event.freq)

    def _on_demote(self, event) -> None:
        outcome = "promoted" if event.promoted else "demoted"
        self._demotions[outcome].inc()

    # ------------------------------------------------------------------
    # Policy surface
    # ------------------------------------------------------------------
    @property
    def policy(self):
        return self._policy

    def request(self, req: Request) -> bool:
        hit = self._policy.request(req)
        if not hit:
            policy = self._policy
            if req.key in policy:
                self._admissions.inc()
                in_main = getattr(policy, "in_main", None)
                if in_main is not None and in_main(req.key):
                    # A brand-new admission landing in M means the ghost
                    # queue remembered the key (Algorithm 1's only route
                    # into M without passing through S).
                    self._ghost_hits.inc()
        return hit

    def access(self, key: Hashable, size: int = 1) -> bool:
        return self.request(Request(key, size=size))

    def __contains__(self, key: Hashable) -> bool:
        return key in self._policy

    def __len__(self) -> int:
        return len(self._policy)

    def __getattr__(self, name: str):
        return getattr(self._policy, name)

    def __repr__(self) -> str:
        return f"InstrumentedPolicy({self._policy!r})"
