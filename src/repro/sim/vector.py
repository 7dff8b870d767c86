"""Vectorized hit-run simulation for the FIFO family.

The paper's structural claim — *lazy promotion*: cache hits never
reorder a FIFO queue — is also a simulation speedup.  On a skewed
trace at 0.9 hit ratio, ~90% of requests leave the queue state
untouched, yet the scalar engines still pay a Python dispatch per
request.  This module cashes the invariant in (the CIPARSim / DEW
observation: FIFO simulation can be per-*event* instead of
per-*request*):

* The trace's dense int-id buffer is processed in chunks.  One
  vectorized dense-array lookup (``mask[ids[c0:c1]]``) probes
  residency for the whole chunk; positions whose key is resident are
  *hits by construction* and are consumed as whole runs without
  entering Python per-request.
* Only candidate positions — non-resident keys, plus oversized
  requests — drop to the scalar per-policy step, which mirrors the
  reference eviction logic exactly.
* Hit side-effects that the scalar step later needs (S3-FIFO's capped
  frequency, SIEVE's visited bit) are **lazy**: they are reconstructed
  exactly, on demand, from the trace's per-key occurrence index
  (:meth:`~repro.traces.compiled.CompiledTrace.occurrence_index`).
  Between two scalar touches of a resident key, every one of its
  occurrences is a hit, so ``freq = min(stored + pending, cap)``
  (increment-then-cap commutes into cap-of-sum) and
  ``visited = stored or pending > 0`` (idempotent).  No per-run NumPy
  call is needed on the hit path at all.
* Exactness across a chunk is preserved by *forced candidates*: when a
  key stops being vector-consumable mid-chunk (eviction, or S-FIFO
  demotion to the secondary segment), its next occurrence inside the
  chunk — found by advancing its occurrence pointer, each position
  visited at most once over the whole run — is spliced into the
  candidate stream, so the stale region of the precomputed mask is
  never trusted.  Keys that *become* resident mid-chunk are already
  candidates at every occurrence (their mask was 0 at chunk start) and
  re-probe live state in the scalar step.

Two loops run the events.  FIFO, S-FIFO and SIEVE hand each one to a
kernel's ``step`` method (:func:`_run_kernel`).  S3-FIFO, whose miss
path is the longest (S eviction, promotion, M reinsertion, ghost),
runs in one flat function with Algorithm 1 expanded in place
(:func:`_run_s3fifo`), as ``FastS3FifoCache._batch_unit_plain`` does
for the scalar engine: a method call per sub-step had made its vector
path slower than the scalar twin below a hit ratio of about 0.7.  The
flat loop is faster than the twin at every hit ratio on the benchmark
traces (Zipf 0.6-1.2 over 100k objects; see docs/PERFORMANCE.md).

LRU is excluded by design: its hits mutate the recency order, which is
exactly the paper's point.

The engine never mutates the policy object it is given — the policy is
read only for its configuration (see :func:`vector_simulate`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict, deque
from heapq import heappop, heappush
from typing import Optional

from repro.sim.simulator import SimulationResult, _resolve_warmup

#: Default number of requests probed per vectorized residency lookup.
VECTOR_CHUNK = 4096

#: Registry names the vector engine can execute (the FIFO family; the
#: ``*-fast`` twins share their reference's kernel).
VECTOR_POLICIES = (
    "fifo", "fifo-fast", "sfifo", "sieve", "sieve-fast",
    "s3fifo", "s3fifo-fast",
)


def _numpy():
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep
        return None
    return np


# ----------------------------------------------------------------------
# Kernels: per-policy scalar steps over a shared lazy-state substrate
# ----------------------------------------------------------------------
class _KernelBase:
    """Shared state: residency mask, occurrence pointers, forced events.

    ``mask[kid] == 1`` means a request for ``kid`` is a
    *vector-consumable* hit: resident, and the hit has no structural
    effect the vector pass must model eagerly.  (For S-FIFO that is
    primary residency only — secondary hits restructure the queues and
    take the scalar path.)

    ``ptr[kid]`` indexes the key's occurrence chain.  Occurrences left
    of the pointer are folded into stored lazy state; occurrences
    between the pointer and the current position are pending hits.
    Every advance consumes a position permanently, so the total pointer
    work over a run is O(requests) regardless of how often it happens.

    Insert invariant: when a key *misses* at position ``pos``, its
    pointer already sits exactly at ``pos``.  Every occurrence of a
    non-resident key is a scalar event (static candidate or forced),
    and each such event ends by syncing the pointer past itself —
    eviction forces consume up to the eviction position and the next
    occurrence is the forced event itself.  Kernels therefore consume
    the insert occurrence with a bare ``ptr[kid] += 1``.
    """

    def __init__(self, capacity: int, trace) -> None:
        self.capacity = capacity
        self.num_objects = trace.num_objects
        # bytearray, not ndarray: the scalar step reads and writes
        # single cells constantly, and bytearray indexing is ~10x
        # cheaper than ndarray scalar access.  The engine probes it
        # vectorized through a zero-copy np.frombuffer view.
        self.mask = bytearray(self.num_objects)
        self.occ_pos, self.occ_start = trace.occurrence_index()
        self.ptr = list(self.occ_start[:-1])
        self.forced: list = []
        self.chunk_end = 0
        self.evictions = 0
        self.used = 0

    def begin_chunk(self, end: int) -> list:
        forced = self.forced = []
        self.chunk_end = end
        return forced

    def _take_pending(self, kid: int, pos: int) -> int:
        """Consume ``kid``'s occurrences at positions <= ``pos``;
        return how many fell strictly before ``pos`` (pending hits)."""
        op = self.occ_pos
        p = self.ptr[kid]
        end = self.occ_start[kid + 1]
        if p >= end or op[p] > pos:
            return 0
        lt = bisect_left(op, pos, p, end)
        nxt = lt
        if nxt < end and op[nxt] == pos:
            nxt += 1
        self.ptr[kid] = nxt
        return lt - p

    def _force_next(self, kid: int, pos: int) -> None:
        """After ``kid`` left the vector-consumable set at ``pos``,
        splice its next occurrence into this chunk's candidate stream.
        (Flattened _take_pending + _force_next_synced — this runs once
        per eviction, so call overhead matters.)"""
        op = self.occ_pos
        p = self.ptr[kid]
        end = self.occ_start[kid + 1]
        if p < end and op[p] <= pos:
            p = bisect_left(op, pos, p, end)
            if p < end and op[p] == pos:
                p += 1
            self.ptr[kid] = p
        if p < end:
            nxt = op[p]
            if nxt < self.chunk_end:
                insort(self.forced, nxt)

    def _force_next_synced(self, kid: int) -> None:
        """Like :meth:`_force_next` for a pointer already past ``pos``."""
        p = self.ptr[kid]
        if p < self.occ_start[kid + 1]:
            nxt = self.occ_pos[p]
            if nxt < self.chunk_end:
                insort(self.forced, nxt)

    # Oversized requests (size > capacity) miss without touching the
    # policy (base.request's early return), so the engine routes them
    # here instead of step().  A resident key's occurrence must be
    # consumed *without* counting as a hit; a non-resident key may need
    # its next occurrence forced (its mask column can be stale when it
    # was evicted earlier in the chunk).
    def oversized_touch(self, kid: int, pos: int) -> None:
        if self.mask[kid]:
            self._skip_hit(kid, pos)
        else:
            self._force_next(kid, pos)

    def _skip_hit(self, kid: int, pos: int) -> None:
        self._take_pending(kid, pos)


class _FifoKernel(_KernelBase):
    """Plain FIFO.  Hits have no engine-visible effect at all."""

    def __init__(self, capacity: int, trace) -> None:
        super().__init__(capacity, trace)
        self.queue: deque = deque()
        self.size_of: Optional[dict] = None if trace.sizes is None else {}

    def step(self, kid: int, size: int, pos: int) -> bool:
        mask = self.mask
        if mask[kid]:
            return True
        queue = self.queue
        if self.size_of is None:
            if len(queue) >= self.capacity:
                victim = queue.popleft()
                mask[victim] = 0
                self.evictions += 1
                self._force_next(victim, pos)
        else:
            used = self.used
            cap = self.capacity
            size_of = self.size_of
            while used + size > cap:
                victim = queue.popleft()
                used -= size_of.pop(victim)
                mask[victim] = 0
                self.evictions += 1
                self._force_next(victim, pos)
            self.used = used + size
            size_of[kid] = size
        queue.append(kid)
        mask[kid] = 1
        self.ptr[kid] += 1  # consume this occurrence (insert invariant)
        return False


class _SFifoKernel(_KernelBase):
    """Segmented FIFO.  Only primary hits are queue-invariant; a
    secondary hit restructures (promotion + demotion cascade), so the
    mask covers primary residents only and secondary keys always take
    the scalar path."""

    def __init__(self, capacity: int, trace, primary_cap: int) -> None:
        super().__init__(capacity, trace)
        self.primary_cap = primary_cap
        self.primary: OrderedDict = OrderedDict()   # kid -> size
        self.secondary: OrderedDict = OrderedDict()
        self.primary_used = 0

    def step(self, kid: int, size: int, pos: int) -> bool:
        if self.mask[kid]:
            return True
        secondary = self.secondary
        if kid in secondary:
            self._push_primary(kid, secondary.pop(kid), pos)
            return True
        while self.used + size > self.capacity:
            self._evict_one(pos)
        self.used += size
        self._push_primary(kid, size, pos)
        self.ptr[kid] += 1  # consume this occurrence (insert invariant)
        return False

    def _push_primary(self, kid: int, size: int, pos: int) -> None:
        primary = self.primary
        primary[kid] = size
        self.mask[kid] = 1
        self.primary_used += size
        while self.primary_used > self.primary_cap and len(primary) > 1:
            victim, vsize = primary.popitem(last=False)
            self.primary_used -= vsize
            self.secondary[victim] = vsize
            self.mask[victim] = 0
            self._force_next(victim, pos)

    def _evict_one(self, pos: int) -> None:
        if self.secondary:
            _, vsize = self.secondary.popitem(last=False)
        else:
            victim, vsize = self.primary.popitem(last=False)
            self.primary_used -= vsize
            self.mask[victim] = 0
            self._force_next(victim, pos)
        self.used -= vsize
        self.evictions += 1

    # oversized_touch: the base implementation is exact here too — a
    # secondary-resident key is not vector-consumable (mask 0), and its
    # mask column can be stale when it was demoted earlier in the
    # chunk, so its next occurrence must be forced like an absent
    # key's; the forced position dedups against the static candidate.


class _SieveKernel(_KernelBase):
    """SIEVE with a lazy visited bit.

    ``vstored[kid]`` holds the visited bit as of the key's last scalar
    touch; the true bit at eviction-scan time is
    ``vstored or pending > 0`` — visits are idempotent, so folding any
    number of pending hits is exact.
    """

    def __init__(self, capacity: int, trace) -> None:
        super().__init__(capacity, trace)
        k = self.num_objects
        self.vstored = bytearray(k)
        self.newer = [-1] * k   # toward the queue head (insertion side)
        self.older = [-1] * k   # toward the tail (eviction side)
        self.head = -1
        self.tail = -1
        self.hand = -1
        self.size_of: Optional[dict] = None if trace.sizes is None else {}
        self.count = 0

    def step(self, kid: int, size: int, pos: int) -> bool:
        if self.mask[kid]:
            return True
        if self.size_of is None:
            if self.count >= self.capacity:
                self._evict_one(pos)
        else:
            while self.used + size > self.capacity:
                self._evict_one(pos)
            self.size_of[kid] = size
        # push at the head
        self.newer[kid] = -1
        self.older[kid] = self.head
        if self.head != -1:
            self.newer[self.head] = kid
        self.head = kid
        if self.tail == -1:
            self.tail = kid
        self.vstored[kid] = 0
        self.mask[kid] = 1
        self.used += size
        self.count += 1
        self.ptr[kid] += 1  # consume this occurrence (insert invariant)
        return False

    def _evict_one(self, pos: int) -> None:
        newer = self.newer
        vstored = self.vstored
        slot = self.hand
        if slot == -1:
            slot = self.tail
        # Scan toward the head, clearing visited bits, wrapping to the
        # tail — the first unvisited slot is the victim (reference
        # SieveCache._evict).  Pending occurrences are always consumed
        # before a clear: they predate the clear, so leaving them
        # pending would wrongly resurrect the bit at a later read.
        while True:
            pending = self._take_pending(slot, pos)
            if not (pending or vstored[slot]):
                break
            vstored[slot] = 0
            nxt = newer[slot]
            slot = nxt if nxt != -1 else self.tail
        self.hand = newer[slot]  # -1 when the victim was the head
        # unlink
        nw = newer[slot]
        ol = self.older[slot]
        if nw != -1:
            self.older[nw] = ol
        else:
            self.head = ol
        if ol != -1:
            newer[ol] = nw
        else:
            self.tail = nw
        self.mask[slot] = 0
        self.used -= 1 if self.size_of is None else self.size_of.pop(slot)
        self.count -= 1
        self.evictions += 1
        self._force_next_synced(slot)

    def _skip_hit(self, kid: int, pos: int) -> None:
        if self._take_pending(kid, pos):
            self.vstored[kid] = 1


# ----------------------------------------------------------------------
# Chunk loops
# ----------------------------------------------------------------------
def _candidates(np, mask_np, ids_np, over_np, c0: int, c1: int) -> list:
    """Positions in ``[c0, c1)`` the probe cannot settle as hits: keys
    not vector-consumable at chunk start, plus oversized requests."""
    probe = mask_np[ids_np[c0:c1]] == 0
    if over_np is not None:
        probe |= over_np[c0:c1]
    return (np.flatnonzero(probe) + c0).tolist()


def _run_kernel(kernel: _KernelBase, trace, warmup_requests: int,
                chunk: int, np):
    """The chunk loop for the per-policy kernels: probe, merge static
    candidates with forced events, hand each event to ``kernel.step``.

    Returns ``(warmup, total)`` snapshots of ``(misses, bytes_missed,
    evictions)`` and the number of scalar steps.
    """
    n = len(trace)
    ids_np = np.frombuffer(trace.keys, dtype=np.int64)
    ids = trace.key_ids()
    sizes = trace.sizes
    unit = sizes is None
    capacity = kernel.capacity
    over_np = None if unit else (
        np.frombuffer(sizes, dtype=np.int64) > capacity)
    # Zero-copy view over the kernel's bytearray mask for the probe.
    mask_np = np.frombuffer(kernel.mask, dtype=np.uint8)
    step = kernel.step
    oversized_touch = kernel.oversized_touch
    misses = bytes_missed = steps = 0
    for lo, hi in ((0, warmup_requests), (warmup_requests, n)):
        warm = (misses, bytes_missed, kernel.evictions)
        for c0 in range(lo, hi, chunk):
            c1 = min(c0 + chunk, hi)
            cand = _candidates(np, mask_np, ids_np, over_np, c0, c1)
            if not cand:
                continue
            forced = kernel.begin_chunk(c1)
            ci = 0
            nc = len(cand)
            steps += nc  # plus each forced event that is no candidate
            while ci < nc or forced:
                if ci < nc:
                    evt = cand[ci]
                    if forced and forced[0] <= evt:
                        fevt = forced.pop(0)
                        if fevt == evt:
                            ci += 1
                        else:
                            steps += 1
                        evt = fevt
                    else:
                        ci += 1
                else:
                    evt = forced.pop(0)
                    steps += 1
                if unit:
                    if not step(ids[evt], 1, evt):
                        misses += 1
                    continue
                kid = ids[evt]
                size = sizes[evt]
                if size > capacity:
                    misses += 1
                    bytes_missed += size
                    oversized_touch(kid, evt)
                elif not step(kid, size, evt):
                    misses += 1
                    bytes_missed += size
    return warm, (misses, bytes_missed, kernel.evictions), steps


def _run_s3fifo(spec: dict, capacity: int, trace, warmup_requests: int,
                chunk: int, np):
    """S3-FIFO (Algorithm 1) over the whole trace in one flat loop.

    The same chunk probe and candidate/forced-event merge as
    :func:`_run_kernel`, with Algorithm 1 expanded in place (as in
    ``FastS3FifoCache._batch_unit_plain``): queue contents, byte
    counters and the ghost live in locals, so a miss costs no Python
    call beyond C-level deque, heap and bisect operations.  Unit traces
    take the same loop with size 1.

    Frequencies are lazy.  ``fstored[kid]`` is exact as of the key's
    last scalar touch (insert, promotion, reinsertion decrement, an
    oversized touch).  Between touches only capped +1 increments
    happen -- every occurrence of a resident key is a hit -- so the
    frequency the evictor reads is ``min(fstored + pending, freq_cap)``
    (increment-then-cap commutes into cap-of-sum), where ``pending``
    counts the key's occurrences from its pointer up to the current
    position (one ``bisect_left`` on its occurrence chain).

    The ghost is the fast twin's stamp table: ``g_stamp_of[kid]`` is
    the stamp of the key's live ghost entry, -1 when absent.  Stamps
    count ghost additions, so the entry at the front of ``ghost`` has
    stamp ``g_front``, and an entry is live iff its key's stamp still
    matches; removals are O(1) invalidations and dead entries are
    dropped when they reach the front.

    Returns the same triple as :func:`_run_kernel`.
    """
    s_cap = spec["s_cap"]
    m_cap = spec["m_cap"]
    fcap = spec["freq_cap"]
    threshold = spec["threshold"]
    g_cap = spec["ghost_cap"]
    # Paper sizing: a dynamic ghost holds as many entries as M holds
    # objects, m_cap / mean size.  On unit traces that is m_cap, the
    # starting capacity, so only sized traces resize.
    resize_ghost = spec["ghost_dynamic"] and trace.sizes is not None
    n = len(trace)
    k = trace.num_objects
    ids_np = np.frombuffer(trace.keys, dtype=np.int64)
    ids = trace.key_ids()
    sizes = trace.sizes
    unit = sizes is None
    over_np = None if unit else (
        np.frombuffer(sizes, dtype=np.int64) > capacity)
    op, occ_start = trace.occurrence_index()
    ptr = occ_start[:-1]
    mask = bytearray(k)
    mask_np = np.frombuffer(mask, dtype=np.uint8)
    fstored = [0] * k
    # Unit traces read every size as 1: a bytearray of ones does that in
    # an eighth of a list's memory (a list of k slots measurably raised
    # the benchmark's peak RSS through the allocator's heap growth).
    size_of = bytearray(b"\x01") * k if unit else [0] * k
    small = deque()
    main = deque()
    s_pop = small.popleft
    s_push = small.append
    m_pop = main.popleft
    m_push = main.append
    g_stamp_of = [-1] * k
    ghost = deque()
    g_pop = ghost.popleft
    g_push = ghost.append
    g_front = g_next = g_live = 0
    used = s_used = m_used = 0
    # Every event is a miss but for the rare hit on a key that became
    # resident earlier in its chunk, so count those and the steps.
    hits = bytes_missed = evictions = steps = 0
    # A miss evicts while used > room; unit traces fix size and room.
    size = 1
    room = capacity - 1
    for lo, hi in ((0, warmup_requests), (warmup_requests, n)):
        warm = (steps - hits, bytes_missed, evictions)
        for c0 in range(lo, hi, chunk):
            c1 = min(c0 + chunk, hi)
            cand = _candidates(np, mask_np, ids_np, over_np, c0, c1)
            if not cand:
                continue
            steps += len(cand)  # plus each forced event not in cand
            # Forced events wait in a heap.  Both streams end in the
            # sentinel c1, so the merge needs no emptiness checks.
            cand.append(c1)
            forced = [c1]
            ci = 0
            while True:
                pos = cand[ci]
                nxt = forced[0]
                if nxt <= pos:
                    if nxt == c1:
                        break
                    heappop(forced)
                    if nxt == pos:
                        ci += 1
                    else:
                        steps += 1
                        pos = nxt
                else:
                    ci += 1
                kid = ids[pos]
                if not unit:
                    size = sizes[pos]
                    if size > capacity:
                        # Oversized: a miss that never reaches the
                        # policy.  Consume this occurrence; a resident
                        # key folds its pending hits, an absent one
                        # forces its next occurrence (its mask column
                        # may be stale).
                        bytes_missed += size
                        p = ptr[kid]
                        end = occ_start[kid + 1]
                        q = bisect_left(op, pos, p, end)
                        ptr[kid] = q + 1
                        if mask[kid]:
                            f = fstored[kid] + q - p
                            fstored[kid] = f if f < fcap else fcap
                        elif q + 1 < end and op[q + 1] < c1:
                            heappush(forced, op[q + 1])
                        continue
                    if mask[kid]:
                        hits += 1
                        continue
                    bytes_missed += size
                    room = capacity - size
                elif mask[kid]:
                    hits += 1
                    continue
                while used > room:
                    # One eviction.  ``in_s`` picks the queue the next
                    # victim comes from; ``nested`` marks an M eviction
                    # forced by a promotion, after which S resumes.
                    in_s = s_used >= s_cap or not main
                    nested = False
                    while True:
                        if in_s:
                            if not small:
                                # S drained into M: evict from M, if
                                # a nested eviction left anything.
                                if not main:
                                    break
                                in_s = False
                                continue
                            v = s_pop()
                            vsize = size_of[v]
                            s_used -= vsize
                        else:
                            v = m_pop()
                        f = fstored[v]
                        p = ptr[v]
                        end = occ_start[v + 1]
                        if p < end and op[p] < pos:
                            q = bisect_left(op, pos, p, end)
                            ptr[v] = q
                            f += q - p
                            if f > fcap:
                                f = fcap
                        if in_s:
                            if f >= threshold:
                                fstored[v] = 0  # access bits cleared
                                m_push(v)
                                m_used += vsize
                                if m_used > m_cap:
                                    in_s = False
                                    nested = True
                                continue
                            used -= vsize
                            if resize_ghost:
                                count = len(small) + len(main)
                                mean = used / count if count else 1.0
                                g_cap = max(1, int(m_cap / max(1.0, mean)))
                            if g_cap:
                                g_stamp_of[v] = g_next
                                g_next += 1
                                g_push(v)
                                g_live += 1
                                while g_live > g_cap:
                                    o = g_pop()
                                    if g_stamp_of[o] == g_front:
                                        g_stamp_of[o] = -1
                                        g_live -= 1
                                    g_front += 1
                        else:
                            if f:
                                fstored[v] = f - 1
                                m_push(v)  # FIFO-Reinsertion
                                continue
                            vsize = size_of[v]
                            m_used -= vsize
                            used -= vsize
                        mask[v] = 0
                        evictions += 1
                        # v left the vector-consumable set: splice its
                        # next occurrence in this chunk into the events.
                        p = ptr[v]
                        if p < end and op[p] < c1:
                            heappush(forced, op[p])
                        if nested:
                            in_s = True
                            nested = False
                            continue
                        break
                mask[kid] = 1
                fstored[kid] = 0
                ptr[kid] += 1  # consume this occurrence (insert invariant)
                size_of[kid] = size
                if g_stamp_of[kid] != -1:  # ghost hit: straight to M
                    g_stamp_of[kid] = -1
                    g_live -= 1
                    m_push(kid)
                    m_used += size
                else:
                    s_push(kid)
                    s_used += size
                used += size
    return warm, (steps - hits, bytes_missed, evictions), steps


# ----------------------------------------------------------------------
# Policy -> kernel adaptation
# ----------------------------------------------------------------------
def _build_kernel(spec: dict, capacity: int, trace) -> _KernelBase:
    kind = spec["kind"]
    if kind == "fifo":
        return _FifoKernel(capacity, trace)
    if kind == "sfifo":
        return _SFifoKernel(capacity, trace, spec["primary_cap"])
    if kind == "sieve":
        return _SieveKernel(capacity, trace)
    raise ValueError(f"unknown vector kernel kind {kind!r}")


def vector_eligible(policy, trace) -> bool:
    """Whether ``(policy, trace)`` can run on the vector engine.

    Requires a :class:`~repro.traces.compiled.CompiledTrace`, a policy
    that publishes a vector spec (the FIFO family and its ``*-fast``
    twins; subclasses with overridden behaviour opt out), a *pristine*
    policy (no prior requests and nothing resident — the engine
    simulates a fresh cache), and no eviction/demotion listeners (the
    engine does not replay per-event notifications).
    """
    from repro.traces.compiled import CompiledTrace

    if not isinstance(trace, CompiledTrace):
        return False
    if _numpy() is None:
        return False
    spec = getattr(policy, "vector_spec", None)
    if spec is None or spec() is None:
        return False
    if policy.clock != 0 or policy.stats.requests != 0 or len(policy) != 0:
        return False
    if policy._evict_listeners or policy._demote_listeners:
        return False
    return True


def vector_simulate(
    policy,
    trace,
    warmup: float = 0.0,
    warmup_requests: Optional[int] = None,
    chunk: int = VECTOR_CHUNK,
) -> SimulationResult:
    """Simulate ``policy`` over a compiled trace with the vector engine.

    Returns a :class:`~repro.sim.simulator.SimulationResult`
    bit-identical to the scalar engines' (same misses, bytes, eviction
    split) for every supported policy, with ``engine="vector"`` and
    ``vector_steps`` set.  The policy object is read only for its
    configuration and is **not** mutated: its stats, clock, and
    resident set stay exactly as passed in (pristine, per
    :func:`vector_eligible`).  ``chunk`` sets the vectorized probe
    width; results are invariant to it by construction.
    """
    if not vector_eligible(policy, trace):
        raise ValueError(
            f"policy {policy.name!r} / trace {trace!r} is not vector-"
            "eligible (see repro.sim.vector.vector_eligible)"
        )
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    np = _numpy()
    n = len(trace)
    warmup_requests = min(_resolve_warmup(trace, warmup, warmup_requests), n)
    spec = policy.vector_spec()
    capacity = policy.capacity
    if spec["kind"] == "s3fifo":
        warm, total, steps = _run_s3fifo(
            spec, capacity, trace, warmup_requests, chunk, np
        )
    else:
        warm, total, steps = _run_kernel(
            _build_kernel(spec, capacity, trace), trace, warmup_requests,
            chunk, np,
        )
    requests = n - warmup_requests
    misses = total[0] - warm[0]
    if trace.sizes is None:
        bytes_requested = requests
        bytes_missed = misses
    else:
        sizes_np = np.frombuffer(trace.sizes, dtype=np.int64)
        bytes_requested = int(sizes_np[warmup_requests:].sum())
        bytes_missed = total[1] - warm[1]
    return SimulationResult(
        policy_name=policy.name,
        capacity=capacity,
        requests=requests,
        misses=misses,
        bytes_requested=bytes_requested,
        bytes_missed=bytes_missed,
        evictions=total[2] - warm[2],
        warmup_requests=warmup_requests,
        warmup_evictions=warm[2],
        engine="vector",
        vector_steps=steps,
    )
