"""Streaming and compiled trace simulation of a single policy.

Two execution engines share one result type:

* :func:`simulate` — the streaming engine: accepts any iterable of
  requests (bare keys, ``(key, size)`` tuples, or
  :class:`~repro.sim.request.Request` objects) and drives the policy
  one request at a time.
* :func:`simulate_compiled` — the fast-path engine: runs over a
  :class:`~repro.traces.compiled.CompiledTrace` with zero per-request
  allocation.  Array-backed ``*-fast`` policies execute their own
  batched loop over the id buffers; every other policy is driven
  through a single reused Request object.

:func:`simulate` transparently routes compiled traces to the fast
engine, so callers only ever need one entry point.

Both accept ``engine=`` selecting how a compiled trace is executed:

* ``"auto"`` (default) — the vectorized hit-run engine
  (:mod:`repro.sim.vector`) when eligible (FIFO-family policy, fresh
  and listener-free), else the scalar fast path.
* ``"scalar"`` — always the per-request loop (batched for ``*-fast``
  policies).
* ``"vector"`` — the vector engine, raising when ineligible.

The engines are pinned bit-identical on results.  The one observable
difference: the vector engine computes the result *standalone* and
never mutates the policy object — its stats, clock, and resident set
stay untouched.  Callers that inspect or keep driving the policy after
the run should pass ``engine="scalar"``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.cache.base import EvictionPolicy
from repro.sim.request import Request, as_request


class SimulationResult:
    """Outcome of one (policy, trace, cache size) simulation.

    Eviction accounting is split at the warmup boundary:
    ``evictions`` counts only steady-state (post-warmup) evictions of
    *this run*, ``warmup_evictions`` counts evictions during the
    warmup prefix, and :attr:`total_evictions` is their sum.  Evictions
    a pre-used policy performed before the run are never included.

    ``engine`` records which engine produced the result: ``"scalar"``
    (the streaming or compiled per-request paths), ``"vector"``
    (:mod:`repro.sim.vector`), or ``"multisim"`` (a view of one size
    of a :class:`~repro.sim.multisim.MultiSimResult`).
    ``vector_steps`` is the number of scalar kernel events the vector
    engine ran (static candidates plus forced rechecks), ``None`` on
    the other engines; ``vector_steps / (requests + warmup_requests)``
    is the share of requests that left the vectorized hit path.
    """

    __slots__ = (
        "policy_name",
        "capacity",
        "requests",
        "misses",
        "bytes_requested",
        "bytes_missed",
        "evictions",
        "warmup_requests",
        "warmup_evictions",
        "engine",
        "vector_steps",
    )

    def __init__(
        self,
        policy_name: str,
        capacity: int,
        requests: int,
        misses: int,
        bytes_requested: int,
        bytes_missed: int,
        evictions: int,
        warmup_requests: int = 0,
        warmup_evictions: int = 0,
        engine: str = "scalar",
        vector_steps: Optional[int] = None,
    ) -> None:
        self.policy_name = policy_name
        self.capacity = capacity
        self.requests = requests
        self.misses = misses
        self.bytes_requested = bytes_requested
        self.bytes_missed = bytes_missed
        self.evictions = evictions
        self.warmup_requests = warmup_requests
        self.warmup_evictions = warmup_evictions
        self.engine = engine
        self.vector_steps = vector_steps

    @property
    def hits(self) -> int:
        return self.requests - self.misses

    @property
    def total_evictions(self) -> int:
        """All evictions of this run, warmup included."""
        return self.evictions + self.warmup_evictions

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.requests if self.requests else 0.0

    @property
    def byte_miss_ratio(self) -> float:
        if self.bytes_requested == 0:
            return 0.0
        return self.bytes_missed / self.bytes_requested

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.policy_name}, capacity={self.capacity}, "
            f"miss_ratio={self.miss_ratio:.4f})"
        )


def _resolve_warmup(
    trace,
    warmup: float,
    warmup_requests: Optional[int],
) -> int:
    """Turn a fractional or absolute warmup spec into a request count."""
    if warmup and warmup_requests is None:
        if not hasattr(trace, "__len__"):
            raise ValueError("fractional warmup requires a sized trace")
        if not 0.0 <= warmup < 1.0:
            raise ValueError(f"warmup must be in [0, 1), got {warmup}")
        warmup_requests = int(len(trace) * warmup)
    return warmup_requests or 0


def simulate(
    policy: EvictionPolicy,
    trace: Iterable[Union[Request, tuple, str, int]],
    warmup: float = 0.0,
    warmup_requests: Optional[int] = None,
    engine: str = "auto",
) -> SimulationResult:
    """Run ``policy`` over ``trace`` and return the measured miss ratios.

    ``trace`` may yield :class:`Request` objects, bare keys,
    ``(key, size)`` tuples, or be a
    :class:`~repro.traces.compiled.CompiledTrace` (which is routed to
    the allocation-free :func:`simulate_compiled` engine).  With
    ``warmup`` (fraction of the trace) or ``warmup_requests`` set, the
    warmup prefix is excluded from the reported hit/miss/byte counts,
    the standard methodology for steady-state miss ratios; fractional
    warmup requires a sized trace (list/tuple/compiled).

    Eviction semantics: ``result.evictions`` counts steady-state
    (post-warmup) evictions only; warmup evictions are reported
    separately as ``result.warmup_evictions`` (see
    :class:`SimulationResult`).
    """
    from repro.traces.compiled import CompiledTrace

    if isinstance(trace, CompiledTrace):
        return simulate_compiled(
            policy, trace, warmup=warmup, warmup_requests=warmup_requests,
            engine=engine,
        )

    warmup_requests = _resolve_warmup(trace, warmup, warmup_requests)

    requests = 0
    misses = 0
    bytes_requested = 0
    bytes_missed = 0
    seen = 0
    evictions_before = policy.stats.evictions
    evictions_at_warmup = evictions_before
    for item in trace:
        req = as_request(item)
        hit = policy.request(req)
        seen += 1
        if seen <= warmup_requests:
            if seen == warmup_requests:
                evictions_at_warmup = policy.stats.evictions
            continue
        requests += 1
        bytes_requested += req.size
        if not hit:
            misses += 1
            bytes_missed += req.size
    return SimulationResult(
        policy_name=policy.name,
        capacity=policy.capacity,
        requests=requests,
        misses=misses,
        bytes_requested=bytes_requested,
        bytes_missed=bytes_missed,
        evictions=policy.stats.evictions - evictions_at_warmup,
        warmup_requests=warmup_requests,
        warmup_evictions=evictions_at_warmup - evictions_before,
    )


def _has_fast_path(policy: EvictionPolicy, trace) -> bool:
    run = getattr(policy, "run_compiled", None)
    if run is None:
        return False
    can = getattr(policy, "can_run_compiled", None)
    return bool(can(trace)) if can is not None else True


def simulate_compiled(
    policy: EvictionPolicy,
    trace,
    warmup: float = 0.0,
    warmup_requests: Optional[int] = None,
    engine: str = "auto",
) -> SimulationResult:
    """Run ``policy`` over a compiled trace with no per-request allocation.

    ``engine="auto"`` routes FIFO-family policies (fresh, no
    listeners) to the vectorized hit-run engine
    (:func:`repro.sim.vector.vector_simulate`), which consumes hit runs
    with dense-array lookups instead of per-request Python; the result
    is bit-identical but the policy object is left untouched.
    ``engine="vector"`` forces that path (raising when ineligible);
    ``engine="scalar"`` forces the classic path below.

    On the scalar path, policies exposing the fast-path batch protocol
    (``run_compiled(trace, start, stop)`` — the ``*-fast`` registry
    entries) execute an inlined loop directly over the trace's integer
    id buffers.  Every other policy is driven through a single reused
    :class:`Request` object, which already removes the per-request
    allocation and dispatch cost of the streaming engine.

    Warmup and eviction-accounting semantics match :func:`simulate`.
    """
    if engine not in ("auto", "scalar", "vector"):
        raise ValueError(
            f"engine must be 'auto', 'scalar', or 'vector', got {engine!r}"
        )
    if engine != "scalar":
        from repro.sim.vector import vector_eligible, vector_simulate

        if engine == "vector" or vector_eligible(policy, trace):
            return vector_simulate(
                policy, trace, warmup=warmup, warmup_requests=warmup_requests
            )

    warmup_requests = _resolve_warmup(trace, warmup, warmup_requests)
    n = len(trace)
    warmup_requests = min(warmup_requests, n)
    evictions_before = policy.stats.evictions

    if _has_fast_path(policy, trace):
        if warmup_requests:
            policy.run_compiled(trace, 0, warmup_requests)
        evictions_at_warmup = policy.stats.evictions
        requests, misses, bytes_requested, bytes_missed = policy.run_compiled(
            trace, warmup_requests, n
        )
        return SimulationResult(
            policy_name=policy.name,
            capacity=policy.capacity,
            requests=requests,
            misses=misses,
            bytes_requested=bytes_requested,
            bytes_missed=bytes_missed,
            evictions=policy.stats.evictions - evictions_at_warmup,
            warmup_requests=warmup_requests,
            warmup_evictions=evictions_at_warmup - evictions_before,
        )

    requests = 0
    misses = 0
    bytes_requested = 0
    bytes_missed = 0
    seen = 0
    evictions_at_warmup = evictions_before
    for req in trace.iter_requests(reuse=True):
        hit = policy.request(req)
        seen += 1
        if seen <= warmup_requests:
            if seen == warmup_requests:
                evictions_at_warmup = policy.stats.evictions
            continue
        requests += 1
        bytes_requested += req.size
        if not hit:
            misses += 1
            bytes_missed += req.size
    return SimulationResult(
        policy_name=policy.name,
        capacity=policy.capacity,
        requests=requests,
        misses=misses,
        bytes_requested=bytes_requested,
        bytes_missed=bytes_missed,
        evictions=policy.stats.evictions - evictions_at_warmup,
        warmup_requests=warmup_requests,
        warmup_evictions=evictions_at_warmup - evictions_before,
    )


def windowed_miss_ratios(
    policy: EvictionPolicy,
    trace: Iterable[Union[Request, tuple, str, int]],
    window: int,
) -> List[float]:
    """Miss ratio per consecutive window of ``window`` requests.

    Useful for watching warmup converge and for spotting phase changes
    (scans show up as miss-ratio spikes).  The trailing partial window
    is included when non-empty.  Compiled traces use the fast-path
    engine: each window is one batched ``run_compiled`` call for fast
    policies, or a reused-Request sweep otherwise.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    from repro.traces.compiled import CompiledTrace

    if isinstance(trace, CompiledTrace):
        return _windowed_compiled(policy, trace, window)
    ratios: List[float] = []
    misses = 0
    count = 0
    for item in trace:
        req = as_request(item)
        if not policy.request(req):
            misses += 1
        count += 1
        if count == window:
            ratios.append(misses / count)
            misses = 0
            count = 0
    if count:
        ratios.append(misses / count)
    return ratios


def _windowed_compiled(
    policy: EvictionPolicy, trace, window: int
) -> List[float]:
    n = len(trace)
    ratios: List[float] = []
    if _has_fast_path(policy, trace):
        for start in range(0, n, window):
            stop = min(start + window, n)
            requests, misses, _, _ = policy.run_compiled(trace, start, stop)
            ratios.append(misses / requests if requests else 0.0)
        return ratios
    misses = 0
    count = 0
    for req in trace.iter_requests(reuse=True):
        if not policy.request(req):
            misses += 1
        count += 1
        if count == window:
            ratios.append(misses / count)
            misses = 0
            count = 0
    if count:
        ratios.append(misses / count)
    return ratios
