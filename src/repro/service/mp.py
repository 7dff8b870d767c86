"""Process-per-shard cache backend: native multicore scaling.

The paper's headline *systems* claim (Fig. 8) is about throughput:
S3-FIFO's lock-free queues scale to ~6x optimized LRU at 16 threads.
Threads cannot demonstrate that under CPython's GIL — the in-process
:class:`~repro.service.sharded.ShardedCacheService` serializes on the
interpreter no matter how many shard locks it splits — so this module
escapes the GIL the way production Python caches do: **one worker
process per shard**, each hosting a full single-shard
:class:`~repro.service.core.CacheService` (its own policy instance,
value map, TTL bookkeeping, and lock), with the parent routing
operations over pipes by the same restart-stable
:func:`~repro.service.sharded.stable_key_hash` the in-process sharded
service uses.  Identical routing means identical per-shard request
sequences: the differential tests pin ``MPCacheService`` stats against
``ShardedCacheService`` byte-for-byte.

IPC is the new cost, and batching is the lever: every batched
operation (:meth:`MPCacheService.get_many` / ``set_many`` /
``delete_many``) coalesces its keys into **one message per worker per
batch**, so a batch of B keys over W workers costs ~W round-trips
instead of B.  Single-key ``get``/``set``/``delete`` are one-element
batches.  The load generator's ``--backend mp --batch B`` mode drives
this path and the measured curves live in
``benchmarks/results/fig08_throughput_native.txt``.

Transports
----------

The parent<->worker channel is pluggable
(:class:`~repro.service.transport.Transport`): ``transport="pipe"``
(default) keeps the PR 5 duplex pipes, ``transport="shm"`` switches to
the :mod:`~repro.service.shm` shared-memory ring buffers — same object
protocol, same differential stats parity, an order of magnitude less
per-message cost on multicore hosts.  The worker loop, the
:class:`WorkerPool` that spawns, exchanges with and tears down workers
(for this backend and the cluster's), and the metrics merge below are
transport-agnostic.

Lifecycle and crash safety
--------------------------

* Workers are **daemon** processes: a normally-exiting parent never
  leaves them behind.
* Each transport has a **watchdog** so a worker never outlives a dead
  parent: the pipe transport gets it for free (parent death closes the
  pipe end, the worker's blocking ``recv`` reads EOF), the shm
  transport polls ``multiprocessing.parent_process().is_alive()`` plus
  a shutdown word inside every blocking wait and publishes a heartbeat
  the parent can read.  No leaked processes either way.
* :meth:`MPCacheService.close` (also ``__exit__`` and a best-effort
  ``__del__``) runs :meth:`WorkerPool.close`: it asks each worker out,
  joins with a deadline, then terminates — and finally kills —
  stragglers before releasing the channels; it is idempotent, safe
  after a worker crash, and never blocks on a channel lock held by a
  thread stuck on a wedged worker (it signals the transport instead
  and lets terminate break the deadlock).
* A worker that dies mid-operation surfaces as
  :class:`WorkerCrashedError` on the operation that touched it, never
  as a hang.  Deterministic crash tests inject the
  :data:`~repro.resilience.faults.WORKER_CRASH` fault kind via a
  :class:`~repro.resilience.faults.FaultPlan` (the worker hard-exits
  at a planned operation count, simulating SIGKILL).

Observability across processes
------------------------------

A worker cannot share the parent's
:class:`~repro.obs.metrics.MetricsRegistry` (callback-backed gauges
don't pickle), so each worker owns a private registry labelled
``worker=<i>, transport=<pipe|shm>`` and the parent pulls *snapshots*
(:func:`~repro.obs.exporters.export_dict`) at collect time, merging
them with :func:`~repro.obs.exporters.merge_export_dict` — repeated
collects replace each worker's series rather than double-count.  See
:meth:`MPCacheService.merge_metrics`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.service.sharded import (
    aggregate_stats,
    partition_capacity,
    stable_key_hash,
)
from repro.service.transport import (
    Transport,
    TransportClosedError,
    create_transport,
)

__all__ = [
    "MPCacheService",
    "PoolService",
    "ServiceClosedError",
    "TransportClosedError",
    "WorkerCrashedError",
    "WorkerPool",
]

_UNSET = object()


class WorkerCrashedError(RuntimeError):
    """A shard worker process died while (or before) serving an operation."""

    def __init__(self, worker_id: int, pid: Optional[int],
                 exitcode: Optional[int]) -> None:
        self.worker_id = worker_id
        self.pid = pid
        self.exitcode = exitcode
        super().__init__(
            f"mp cache worker {worker_id} (pid {pid}) died "
            f"(exitcode {exitcode}); the shard's contents are lost — "
            f"close() the service or rebuild it"
        )


class ServiceClosedError(RuntimeError):
    """Operation attempted on a closed :class:`MPCacheService`."""


def _default_start_method() -> str:
    """``fork`` where available (fast), else ``spawn`` (macOS/Windows)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_main(
    conn,
    worker_id: int,
    capacity: int,
    policy: str,
    service_kwargs: Dict[str, Any],
    collect_metrics: bool,
    fault_plan,
    transport: str = "pipe",
) -> None:
    """Worker process body: host one CacheService, serve the channel.

    ``conn`` is whatever the parent's transport handed out — a pipe
    ``Connection`` or a :class:`~repro.service.shm.ShmWorkerChannel`;
    both expose ``recv``/``send``/``close`` and both raise
    ``EOFError``/``OSError`` when the parent is gone (pipe EOF, or the
    shm liveness poll), so the loop exits either way and the worker
    never outlives its parent.
    """
    from repro.service.core import CacheService

    registry = None
    try:
        if collect_metrics:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        service = CacheService(
            capacity,
            policy,
            metrics=registry,
            metrics_labels=(
                {"worker": str(worker_id), "transport": transport}
                if registry is not None else None
            ),
            shard_id=worker_id,
            **service_kwargs,
        )
    except BaseException as exc:  # constructor failed: report, don't hang
        _send_error(conn, exc)
        return
    # Startup handshake: the parent blocks on this before serving ops.
    conn.send(("ok", {
        "policy_name": service.policy_name,
        "supports_removal": service.supports_removal,
        "capacity": capacity,
        "pid": os.getpid(),
    }))
    clock = 0  # logical operation clock for deterministic fault windows
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent died or closed the channel: exit now
        op = msg[0]
        if op == "close":
            break
        clock += 1
        if fault_plan is not None and fault_plan.active("worker-crash", clock):
            # Simulate a hard crash: no reply, no cleanup, nonzero exit.
            os._exit(13)
        try:
            if op == "get_many":
                result = service.get_many(msg[1], msg[2])
            elif op == "set_many":
                has_ttl, ttl, size, items = msg[1], msg[2], msg[3], msg[4]
                if has_ttl:
                    result = service.set_many(items, ttl=ttl, size=size)
                else:
                    result = service.set_many(items, size=size)
            elif op == "delete_many":
                result = service.delete_many(msg[1])
            elif op == "contains":
                result = msg[1] in service
            elif op == "len":
                result = len(service)
            elif op == "sweep":
                result = service.sweep(msg[1])
            elif op == "stats":
                result = service.stats()
            elif op == "export":
                # Cluster rebalancing: ship (key, value, ttl, size)
                # snapshots; remaining-TTL form survives the clock
                # change between processes.
                result = service.export_entries()
            elif op == "import":
                result = service.import_entries(msg[1])
            elif op == "check":
                service.check()
                result = None
            elif op == "metrics":
                if registry is None:
                    result = None
                else:
                    from repro.obs.exporters import export_dict

                    result = export_dict(registry)
            else:
                raise ValueError(f"unknown mp cache op {op!r}")
        except BaseException as exc:
            _send_error(conn, exc)
        else:
            try:
                conn.send(("ok", result))
            except (OSError, BrokenPipeError):
                break
    try:
        conn.close()
    except OSError:
        pass


def _send_error(conn, exc: BaseException) -> None:
    """Ship an exception to the parent; degrade to repr if unpicklable."""
    try:
        conn.send(("err", exc))
    except Exception:
        try:
            conn.send(("err", RuntimeError(
                f"{type(exc).__name__}: {exc} (original not picklable)"
            )))
        except (OSError, BrokenPipeError):
            pass


class _Worker:
    """Parent-side record for one worker process."""

    __slots__ = ("chan", "proc", "lock", "capacity", "up", "pid",
                 "exitcode")

    def __init__(self, chan: Transport, proc, capacity: int) -> None:
        self.chan = chan
        self.proc = proc
        self.lock = threading.Lock()
        self.capacity = capacity
        self.up = True
        self.pid: Optional[int] = proc.pid
        self.exitcode: Optional[int] = None


class WorkerPool:
    """Worker processes by id: spawn, exchange, liveness, teardown.

    The one process core under :class:`MPCacheService` (modulo
    placement) and :class:`~repro.cluster.service.ClusterCacheService`
    (ring placement).  Each worker runs :func:`_worker_main` behind its
    own :class:`~repro.service.transport.Transport` and lock.  What a
    crash means belongs to the caller: :meth:`exchange` never raises
    for a dead worker, it marks it down and reports its id.
    """

    def __init__(
        self,
        policy: str,
        *,
        transport: str = "pipe",
        transport_options: Optional[Dict[str, Any]] = None,
        start_method: Optional[str] = None,
        collect_metrics: bool = False,
        service_kwargs: Optional[Dict[str, Any]] = None,
        name: str = "mp-cache-worker",
    ) -> None:
        self._ctx = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        self._policy = policy
        self._transport = transport
        self._transport_options = transport_options
        self._collect_metrics = collect_metrics
        self._service_kwargs = dict(service_kwargs or {})
        self._name = name
        self._workers: Dict[int, _Worker] = {}
        self.closed = False

    def spawn(
        self, specs: Dict[int, Tuple[int, Any]]
    ) -> Dict[int, Dict[str, Any]]:
        """Start one worker per ``{worker_id: (capacity, fault_plan)}``
        and return each handshake, by id.

        All processes start before the first handshake is awaited, so
        they boot concurrently.  An id naming a down worker restarts it
        in place, with a fresh process, channel and lock.  A worker
        whose handshake fails (constructor error or early death) is
        left down, and the first such error is raised once every
        handshake has been read.
        """
        ids = sorted(specs)
        fresh: List[_Worker] = []
        try:
            for w in ids:
                capacity, fault_plan = specs[w]
                old = self._workers.get(w)
                if old is not None:
                    self._release(old)
                chan = create_transport(
                    self._transport, self._ctx, self._transport_options
                )
                try:
                    proc = self._ctx.Process(
                        target=_worker_main,
                        args=(
                            chan.worker_endpoint(), w, capacity,
                            self._policy, dict(self._service_kwargs),
                            self._collect_metrics, fault_plan,
                            self._transport,
                        ),
                        name=f"{self._name}-{w}",
                        daemon=True,
                    )
                    proc.start()
                except BaseException:
                    chan.close()  # never orphan a shm segment
                    raise
                chan.after_start(proc)
                worker = _Worker(chan, proc, capacity)
                # Held until the handshake is read, so that no exchange
                # can take the handshake for its reply.
                worker.lock.acquire()
                fresh.append(worker)
                self._workers[w] = worker
            infos: Dict[int, Dict[str, Any]] = {}
            error: Optional[BaseException] = None
            for w, worker in zip(ids, fresh):
                try:
                    tag, payload = worker.chan.recv()
                except (EOFError, OSError):
                    tag, payload = "err", None
                if tag == "ok":
                    infos[w] = payload
                else:
                    self._mark_down(worker)
                    error = error or payload or self.crash_error(w)
        finally:
            for worker in fresh:
                worker.lock.release()
        if error is not None:
            raise error
        return infos

    def restart(self, worker_id: int) -> Dict[str, Any]:
        """Respawn a down worker, empty, with its old capacity and no
        fault plan."""
        capacity = self._workers[worker_id].capacity
        return self.spawn({worker_id: (capacity, None)})[worker_id]

    def worker_ids(self) -> List[int]:
        """Every worker's id, sorted (up or down)."""
        return sorted(self._workers)

    def up_ids(self) -> List[int]:
        return sorted(w for w, worker in self._workers.items() if worker.up)

    def is_up(self, worker_id: int) -> bool:
        worker = self._workers.get(worker_id)
        return worker is not None and worker.up

    def channel(self, worker_id: int) -> Transport:
        return self._workers[worker_id].chan

    def crash_error(self, worker_id: int) -> WorkerCrashedError:
        worker = self._workers[worker_id]
        return WorkerCrashedError(worker_id, worker.pid, worker.exitcode)

    @staticmethod
    def _mark_down(worker: _Worker) -> None:
        """Record a worker death and release its channel; never raises."""
        if not worker.up:
            return
        worker.up = False
        try:
            worker.proc.join(timeout=1.0)
            worker.exitcode = worker.proc.exitcode
        except ValueError:
            pass  # Process handle already released by a teardown
        try:
            worker.chan.close()
        except OSError:
            pass

    def exchange(
        self, msgs: Dict[int, tuple]
    ) -> Tuple[Dict[int, Any], List[int]]:
        """One message per worker; returns ``(replies, crashed_ids)``.

        Locks are taken in id order (deadlock-free against concurrent
        callers) and every send completes before the first receive, so
        the involved workers run concurrently.  A worker that is down,
        unknown, or dies mid-exchange is marked down and listed in
        ``crashed_ids``; the other replies are still drained, so the
        surviving channels stay in lockstep.  A remote application
        error (bad size, removal unsupported) never marks a worker
        down: the first one is raised after the drain.
        """
        workers = [(w, self._workers.get(w)) for w in sorted(msgs)]
        held = [worker for _, worker in workers if worker is not None]
        for worker in held:
            worker.lock.acquire()
        try:
            replies: Dict[int, Any] = {}
            crashed: List[int] = []
            sent: List[Tuple[int, _Worker]] = []
            remote: Optional[BaseException] = None
            for w, worker in workers:
                if worker is not None and worker.up:
                    try:
                        worker.chan.send(msgs[w])
                        sent.append((w, worker))
                        continue
                    except (OSError, ValueError):
                        self._mark_down(worker)
                crashed.append(w)
            for w, worker in sent:
                try:
                    tag, payload = worker.chan.recv()
                except (EOFError, OSError):
                    self._mark_down(worker)
                    crashed.append(w)
                    continue
                if tag == "err":
                    remote = remote or payload
                else:
                    replies[w] = payload
            if remote is not None:
                raise remote
            return replies, crashed
        finally:
            for worker in reversed(held):
                worker.lock.release()

    def stop(self, worker_id: int) -> None:
        """Stop one worker for good and forget its id."""
        self._stop([self._workers.pop(worker_id)], timeout=2.0)

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker; idempotent, safe after crashes.

        Asks each worker to exit, joins to a deadline, then
        terminates — and as a last resort kills — anything still
        alive, and only then releases the channels and Process
        handles.  A channel whose lock is held by a thread stuck on a
        wedged worker is *signalled*, not waited on: teardown must not
        inherit the wedge, and terminating the worker is what breaks
        the stuck thread out (its blocking read reports a crash).
        """
        if self.closed:
            return
        self.closed = True
        self._stop(list(self._workers.values()), timeout)

    def _stop(self, workers: List[_Worker], timeout: float) -> None:
        deadline = time.monotonic() + timeout
        # Phase 1: ask every worker out.  The channel lock may be held
        # by a thread blocked on a worker that will never reply — use
        # a bounded acquire and fall back to the transport's
        # non-blocking close signal rather than deadlocking here.
        for worker in workers:
            worker.up = False
            if worker.lock.acquire(timeout=0.1):
                try:
                    worker.chan.request_close()
                    worker.chan.signal_close()
                finally:
                    worker.lock.release()
            else:
                worker.chan.signal_close()
        # Phase 2: join politely, then escalate.  terminate() (SIGTERM)
        # also breaks any parent thread blocked on that worker's
        # channel: the pipe delivers EOF, the shm wait notices the
        # death on its next liveness poll.
        for worker in workers:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
        # Phase 3: release channel resources (for shm this unlinks the
        # segment) and the Process handles.
        for worker in workers:
            self._release(worker)

    @staticmethod
    def _release(worker: _Worker) -> None:
        try:
            worker.chan.close()
        except OSError:
            pass
        try:
            # Release the Process object's pipe/sentinel resources now
            # rather than at GC time (no leaked fds or semaphores).
            worker.proc.close()
        except ValueError:
            pass  # still alive after kill: give up quietly


class PoolService:
    """The surface both :class:`WorkerPool` backends share: single-key
    ops as one-element batches, and the pool's lifecycle."""

    _pool: WorkerPool

    def get(self, key: Hashable, default: Any = None) -> Any:
        return self.get_many([key], default)[0]

    def set(
        self,
        key: Hashable,
        value: Any,
        ttl: Any = _UNSET,
        size: int = 1,
    ) -> bool:
        if ttl is _UNSET:
            return self.set_many([(key, value)], size=size)[0]
        return self.set_many([(key, value)], ttl=ttl, size=size)[0]

    def delete(self, key: Hashable) -> bool:
        return self.delete_many([key])[0]

    def _ensure_open(self) -> None:
        if self._pool.closed:
            raise ServiceClosedError(
                f"{type(self).__name__} is closed; build a new one"
            )

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker; idempotent, safe after crashes and bounded
        even with a wedged worker (see :meth:`WorkerPool.close`)."""
        self._pool.close(timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; never raise from GC
        try:
            self.close(timeout=1.0)
        except Exception:
            pass


class MPCacheService(PoolService):
    """N shard worker *processes* behind the one-service API.

    Exposes the same surface as
    :class:`~repro.service.sharded.ShardedCacheService` —
    ``get``/``set``/``delete``, their ``_many`` batches,
    ``sweep``/``stats``/``check``, ``in``/``len`` — with each shard's
    :class:`~repro.service.core.CacheService` running in its own
    process.  Keys route by ``stable_key_hash(key) % num_workers``,
    exactly the in-process sharded service's mapping, so for the same
    operation sequence both backends produce identical per-shard stats.

    Parameters mirror ``ShardedCacheService`` where they can; the
    differences are inherent to processes:

    * ``transport`` — ``"pipe"`` (default: pickled tuples over a
      duplex pipe) or ``"shm"`` (shared-memory ring buffers, see
      :mod:`repro.service.shm`).  Both speak the identical object
      protocol; the differential tests pin their ``stats()``
      byte-identical.
    * ``transport_options`` — forwarded to the transport constructor
      (shm accepts ``slots``, ``slot_size``, ``arena_size``; the edge
      case tests use tiny rings to force backpressure).
    * ``start_method`` — multiprocessing start method (default:
      ``fork`` when the platform has it, else ``spawn``).
    * ``collect_metrics`` — give each worker a private
      :class:`~repro.obs.metrics.MetricsRegistry` (labelled
      ``worker=<i>``) whose snapshots :meth:`merge_metrics` pulls into
      a parent-side registry.  A parent registry object cannot be
      shared directly: its collect-time callbacks don't pickle.
    * ``fault_plans`` — optional ``{worker_id: FaultPlan}`` injecting
      deterministic :data:`~repro.resilience.faults.WORKER_CRASH`
      faults (the crash-safety tests use this).
    * ``**service_kwargs`` — forwarded to every worker's
      ``CacheService`` constructor; must be picklable (so no
      ``clock=`` callables — workers keep the default monotonic
      clock).

    Thread safety: the parent side is safe to drive from multiple
    threads.  Each worker channel is guarded by a lock held for the
    full request/response exchange; a batch spanning several workers
    acquires the involved locks in index order (no lock-order
    inversion) and pipelines — all sub-batches are sent before any
    reply is awaited, so workers execute concurrently.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "s3fifo",
        num_workers: int = 2,
        *,
        transport: str = "pipe",
        transport_options: Optional[Dict[str, Any]] = None,
        start_method: Optional[str] = None,
        collect_metrics: bool = False,
        fault_plans: Optional[Dict[int, Any]] = None,
        **service_kwargs: Any,
    ) -> None:
        capacities = partition_capacity(capacity, num_workers)
        self.capacity = capacity
        self.num_workers = num_workers
        self.transport = transport
        self.collect_metrics = collect_metrics
        self._pool = WorkerPool(
            policy,
            transport=transport,
            transport_options=transport_options,
            start_method=start_method,
            collect_metrics=collect_metrics,
            service_kwargs=service_kwargs,
        )
        try:
            # Startup handshake doubles as constructor error propagation.
            infos = self._pool.spawn({
                i: (cap, (fault_plans or {}).get(i))
                for i, cap in enumerate(capacities)
            })
        except BaseException:
            self._pool.close()
            raise
        self.policy_name = infos[0]["policy_name"]
        self.supports_removal = infos[0]["supports_removal"]
        self.worker_pids = [infos[i]["pid"] for i in range(num_workers)]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for(self, key: Hashable) -> int:
        """The worker index ``key`` routes to (stable across restarts)."""
        return stable_key_hash(key) % self.num_workers

    def _scatter(self, keys: List[Hashable], make_msg) -> List[Any]:
        """Send ``make_msg(positions)`` to each involved worker, one
        message per worker; returns the replies in key order."""
        groups: Dict[int, List[int]] = {}
        for pos, key in enumerate(keys):
            groups.setdefault(self.shard_for(key), []).append(pos)
        replies = self._exchange({
            w: make_msg(positions) for w, positions in groups.items()
        })
        results: List[Any] = [None] * len(keys)
        for w, positions in groups.items():
            for p, v in zip(positions, replies[w]):
                results[p] = v
        return results

    # ------------------------------------------------------------------
    # Channel plumbing
    # ------------------------------------------------------------------
    @property
    def _channels(self) -> List[Transport]:
        """Each worker's transport, in worker order."""
        return [self._pool.channel(w) for w in range(self.num_workers)]

    def _exchange(self, msgs: Dict[int, tuple]) -> Dict[int, Any]:
        """:meth:`WorkerPool.exchange`, with a crash raised, not
        reported: one dead worker loses its shard's contents."""
        self._ensure_open()
        replies, crashed = self._pool.exchange(msgs)
        if crashed:
            raise self._pool.crash_error(crashed[0])
        return replies

    def _exchange_all(self, msg: tuple) -> List[Any]:
        """The same message to every worker; replies in worker order."""
        results = self._exchange({w: msg for w in range(self.num_workers)})
        return [results[w] for w in range(self.num_workers)]

    # ------------------------------------------------------------------
    # The service surface
    # ------------------------------------------------------------------
    def get_many(self, keys: Iterable[Hashable],
                 default: Any = None) -> List[Any]:
        """Batched get: **one pipe round-trip per involved worker**."""
        keys = list(keys)
        if not keys:
            return []
        return self._scatter(keys, lambda positions: (
            "get_many", [keys[p] for p in positions], default
        ))

    def set_many(
        self,
        items: Iterable[Tuple[Hashable, Any]],
        ttl: Any = _UNSET,
        size: int = 1,
    ) -> List[bool]:
        """Batched set, coalesced per worker like :meth:`get_many`.

        ``ttl`` travels as an explicit (present, value) pair — the
        in-process ``_UNSET`` sentinel would not survive pickling.
        """
        items = list(items)
        if not items:
            return []
        if ttl is not _UNSET and ttl is not None:
            if ttl < 0:
                raise ValueError(f"ttl must be >= 0, got {ttl}")
        has_ttl = ttl is not _UNSET
        return self._scatter([key for key, _ in items], lambda positions: (
            "set_many", has_ttl, (ttl if has_ttl else None), size,
            [items[p] for p in positions],
        ))

    def delete_many(self, keys: Iterable[Hashable]) -> List[bool]:
        keys = list(keys)
        if not keys:
            return []
        return self._scatter(keys, lambda positions: (
            "delete_many", [keys[p] for p in positions]
        ))

    def sweep(self, max_checks: Optional[int] = None) -> int:
        return sum(self._exchange_all(("sweep", max_checks)))

    def check(self) -> None:
        self._exchange_all(("check",))

    def __contains__(self, key: Hashable) -> bool:
        replies = self._exchange({self.shard_for(key): ("contains", key)})
        return next(iter(replies.values()))

    def __len__(self) -> int:
        return sum(self._exchange_all(("len",)))

    # ------------------------------------------------------------------
    # Statistics / observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Aggregate stats across workers (same shape as sharded).

        Every worker snapshot is taken under that worker's service
        lock inside its own process, so the same no-tear guarantee as
        :meth:`ShardedCacheService.stats` holds across the pipe.
        """
        per_shard = self._exchange_all(("stats",))
        aggregate = aggregate_stats(per_shard)
        aggregate["policy"] = self.policy_name
        aggregate["capacity"] = self.capacity
        aggregate["num_shards"] = self.num_workers
        aggregate["backend"] = "mp"
        return aggregate

    def ops_per_shard(self) -> List[int]:
        """Operations (gets+sets+deletes) each worker has served."""
        return [
            s["gets"] + s["sets"] + s["deletes"]
            for s in self._exchange_all(("stats",))
        ]

    def imbalance(self) -> float:
        """Hottest worker's operation count over the mean."""
        from repro.concurrency.sharding import imbalance_factor

        return imbalance_factor(self.ops_per_shard())

    def merge_metrics(self, registry) -> int:
        """Pull every worker's metrics snapshot into ``registry``.

        Requires ``collect_metrics=True``.  Each worker's series
        already carry the ``worker=<i>`` label, so repeated merges
        replace rather than duplicate (see
        :func:`~repro.obs.exporters.merge_export_dict`).  Returns the
        total number of series merged.
        """
        if not self.collect_metrics:
            raise ValueError(
                "MPCacheService was built without collect_metrics=True"
            )
        from repro.obs.exporters import merge_export_dict

        merged = 0
        for snapshot in self._exchange_all(("metrics",)):
            if snapshot is not None:
                merged += merge_export_dict(registry, snapshot)
        return merged

    def __repr__(self) -> str:
        state = "closed" if self._pool.closed else "open"
        return (
            f"MPCacheService({self.policy_name}, capacity={self.capacity}, "
            f"workers={self.num_workers}, {state})"
        )
