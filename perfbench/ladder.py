"""The traced run: the layer ladder and the per-layer metrics.

A request climbs these rungs, and each one is timed as its own ns/op
from the benchmark's files, with a span around every call into the
layer:

* ``policy.reference`` -- the reference ``s3fifo`` through ``simulate``
  (``core.s3fifo``);
* ``sim.scalar`` / ``sim.vector`` -- ``s3fifo-fast`` on
  ``engine="scalar"`` and ``engine="vector"`` (``sim.simulator``, the
  fast twins, ``sim.vector``);
* ``policy.request`` -- one ``request()`` call, as ``CacheService``
  makes it;
* ``service`` -- a read-through op on ``CacheService`` (get, and set on
  a miss), split into hit and miss cost the way
  ``concurrency.calibrate`` fits ``hit_ns``/``miss_ns``;
* ``sharded`` -- the same op on ``ShardedCacheService`` with 4 shards;
* ``mp.<transport>.w<workers>.b<batch>`` -- ``MPCacheService`` over
  pipe or shm, 1 or 2 workers, batch 1 or 16;
* ``net.<resp|mc>.p<depth>`` -- the repo's server over sockets, on an
  in-process backend, pipeline depth 1 or 16;
* ``cluster`` -- ``ClusterCacheService`` with 2 nodes and R=2.

The in-process, mp, cluster and net rungs run interleaved: every
repetition visits every rung once, and repetitions continue until the
time budget is spent (at least 5).  Each rung reports its median; the
report lines add min and IQR, and each rung's delta over the rung
below it.
"""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Tuple

import sim_phase
from common import (
    CAPACITY, MRC_SIZES, Checks, Workload, derive_seed, summarize,
)
from repro.cache.registry import create_policy
from repro.cluster import ClusterCacheService
from repro.netsrv.client import McClient, McError, RespClient, RespError
from repro.obs import MetricsRegistry
from repro.service.core import CacheService
from repro.service.mp import MPCacheService
from repro.service.sharded import ShardedCacheService
from repro.sim.mrc import mrc_error, s3fifo_mrc
from repro.sim.multisim import multisim
from repro.sim.request import Request
from repro.sim.simulator import simulate
from serve_phase import Server, key_stream, value_for, warm_prefix

SIM_REPEATS = 3
MIN_REPEATS = 5
MAX_REPEATS = 15
WINDOW = 16
SMALL = 100
BIG = 4096
VECTOR_POLICIES = ("s3fifo", "fifo", "sieve")
MP_RUNGS = [(t, w, b) for t in ("pipe", "shm") for w in (1, 2)
            for b in (1, 16)]
NET_RUNGS = [(p, d) for p in ("resp", "mc") for d in (1, 16)]
#: Keys each rung's read-through visits per repetition, by kind.
INPROC_OPS = 10_000
BATCH1_OPS = 300
BATCH16_WINDOWS = 150
WRITE_WINDOWS = 40

NS = "ns/op"


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {
        "traces.generate_s": "s",
        "traces.compile_s": "s",
        "traces.occurrence_index_s": "s",
        "policy.reference_ns_per_req.s3fifo": "ns/req",
        "mrc.fifo_multisim_s": "s",
        "mrc.s3fifo_sampled_s": "s",
        "mrc.s3fifo_sampled_mae": "ratio",
        "policy.request_ns": NS,
        "service.hit_ns": NS,
        "service.miss_ns": NS,
        "service.set_ns": NS,
        "service.delete_ns": NS,
        "sharded.op_ns": NS,
        "obs.metrics_on_ns": NS,
        "obs.keep_ratio": "ratio",
        "mp.pipe.w2.b16.set4k_op_ns": NS,
        "mp.shm.w2.b16.set4k_op_ns": NS,
        "mp.imbalance": "ratio",
        "cluster.get_ns": NS,
        "cluster.set_ns": NS,
        "cluster.delete_ns": NS,
        "cluster.set_over_mp": "ratio",
        "cluster.failovers": "count",
        "cluster.degraded_ops": "count",
        "net.mc.set4k_op_ns": NS,
        "net.protocol_errors": "count",
        "net.rejected": "count",
        "trace_overhead": "ratio",
    }
    for short, _ in sim_phase.POLICIES:
        units[f"sim.scalar_ns_per_req.{short}"] = "ns/req"
    for short in VECTOR_POLICIES:
        units[f"sim.vector_ns_per_req.{short}"] = "ns/req"
        units[f"sim.auto_over_best.{short}"] = "ratio"
    for t, w, b in MP_RUNGS:
        units[f"mp.{t}.w{w}.b{b}.op_ns"] = NS
        if t == "pipe":
            units[f"mp.shm_over_pipe.w{w}.b{b}"] = "ratio"
    for p, d in NET_RUNGS:
        units[f"net.{p}.p{d}.op_ns"] = NS
    for rung, _below in DELTAS:
        units[f"{rung}.delta_ns"] = NS
    return units


#: (rung, rung below): ``<rung>.delta_ns`` is the difference of their
#: median ns/op.  A negative delta is a rung cheaper than the one below.
DELTAS: List[Tuple[str, str]] = (
    [("sim.scalar", "policy.reference"), ("sim.vector", "sim.scalar"),
     ("service", "policy.request"), ("sharded", "service"),
     ("obs", "service"), ("cluster.set", "mp.pipe.w2.b16.set")]
    + [(f"mp.{t}.w{w}.b{b}", "sharded") for t, w, b in MP_RUNGS]
    + [(f"net.{p}.p{d}", "service") for p, d in NET_RUNGS]
)


class Samples:
    """ns/op samples per rung, each taken inside a span."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.values: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def time(self, name: str, fn: Callable[[], int],
             request: int = None) -> None:
        """Run ``fn`` (returns the ops it did) in a span; record ns/op."""
        with self.tracer.span(name, request=request):
            t0 = time.perf_counter_ns()
            ops = fn()
            elapsed = time.perf_counter_ns() - t0
        self.add(name, elapsed / ops)

    def median(self, name: str) -> float:
        return statistics.median(self.values[name])


class Cursor:
    """A rung's own position in the shared key stream (wraps around)."""

    def __init__(self, keys: List[str], start: int) -> None:
        self.keys = keys
        self.pos = start % len(keys)

    def take(self, n: int) -> List[str]:
        end = self.pos + n
        if end <= len(self.keys):
            out = self.keys[self.pos:end]
        else:
            out = self.keys[self.pos:] + self.keys[:end - len(self.keys)]
        self.pos = end % len(self.keys)
        return out


# ----------------------------------------------------------------------
# Simulator rungs
# ----------------------------------------------------------------------
def run_sim_rungs(workload: Workload, seed: int, samples: Samples,
                  checks: Checks) -> Dict[str, float]:
    tracer = samples.tracer
    steps: Dict[str, List[float]] = {}
    for i in range(sim_phase.SETUPS):
        with tracer.span("traces.build", request=i):
            compiled, times = sim_phase.build_trace(
                workload, sim_phase.sim_seed(seed))
        for k, v in times.items():
            steps.setdefault(k, []).append(v)
    out = {f"traces.{k}": statistics.median(steps[k])
           for k in ("generate_s", "compile_s", "occurrence_index_s")}

    n = len(compiled)
    prefix = compiled.key_ids()[:sim_phase.REFERENCE_PREFIX]
    walls: Dict[str, List[float]] = {}
    for rep in range(SIM_REPEATS):
        for short, name in sim_phase.POLICIES:
            engines = (("scalar", "auto", "vector")
                       if short in VECTOR_POLICIES else ("scalar",))
            misses = set()
            for engine in engines:
                with tracer.span(f"sim.{engine}.{short}", request=rep):
                    t0 = time.perf_counter()
                    result = simulate(create_policy(name, CAPACITY),
                                      compiled, engine=engine)
                    walls.setdefault(f"{engine}.{short}", []).append(
                        time.perf_counter() - t0)
                misses.add(result.misses)
            checks.expect(len(misses) == 1,
                          f"{short}: engines disagree on misses {misses}")
        samples.time("policy.reference",
                     lambda: simulate(create_policy("s3fifo", CAPACITY),
                                      prefix).requests, request=rep)
    for short, _ in sim_phase.POLICIES:
        scalar = statistics.median(walls[f"scalar.{short}"])
        out[f"sim.scalar_ns_per_req.{short}"] = scalar / n * 1e9
    for short in VECTOR_POLICIES:
        scalar = statistics.median(walls[f"scalar.{short}"])
        vector = statistics.median(walls[f"vector.{short}"])
        auto = statistics.median(walls[f"auto.{short}"])
        out[f"sim.vector_ns_per_req.{short}"] = vector / n * 1e9
        out[f"sim.auto_over_best.{short}"] = auto / min(scalar, vector)
    for engine in ("scalar", "vector"):
        samples.values[f"sim.{engine}"] = [
            w / n * 1e9 for w in walls[f"{engine}.s3fifo"]]
    out["policy.reference_ns_per_req.s3fifo"] = samples.median(
        "policy.reference")

    with tracer.span("mrc.fifo_multisim"):
        t0 = time.perf_counter()
        fifo_curve = multisim("fifo", compiled, MRC_SIZES).to_curve()
        out["mrc.fifo_multisim_s"] = time.perf_counter() - t0
    with tracer.span("mrc.s3fifo_sampled"):
        t0 = time.perf_counter()
        sampled = s3fifo_mrc(compiled, MRC_SIZES)
        out["mrc.s3fifo_sampled_s"] = time.perf_counter() - t0
    with tracer.span("mrc.s3fifo_exact"):
        exact = s3fifo_mrc(compiled, MRC_SIZES, engine="vector")
    out["mrc.s3fifo_sampled_mae"] = mrc_error(sampled, exact)
    fifo_point = dict(zip(fifo_curve.sizes, fifo_curve.miss_ratios))
    fifo_ratio = simulate(create_policy("fifo-fast", CAPACITY), compiled,
                          engine="scalar").miss_ratio
    checks.expect(fifo_point[CAPACITY] == fifo_ratio,
                  "fifo multisim point differs from fifo-fast simulate")
    s3_ratio = simulate(create_policy("s3fifo-fast", CAPACITY), compiled,
                        engine="scalar").miss_ratio
    exact_point = dict(zip(exact.sizes, exact.miss_ratios))[CAPACITY]
    checks.expect(exact_point == s3_ratio,
                  "exact s3fifo_mrc point differs from s3fifo-fast")
    return out


# ----------------------------------------------------------------------
# Service rungs (in-process, mp, cluster, net)
# ----------------------------------------------------------------------
def readthrough(get, set_, keys: List[str]) -> int:
    for key in keys:
        if get(key) is None:
            set_(key, value_for(key, SMALL))
    return len(keys)


def readthrough_split(svc: CacheService, keys: List[str]
                      ) -> Tuple[int, int, int, int]:
    """Per-op timed read-through: (hits, hit ns, misses, miss ns).  A
    miss costs its get plus the set that fills it."""
    clock = time.perf_counter_ns
    get, set_ = svc.get, svc.set
    hits = hit_ns = misses = miss_ns = 0
    for key in keys:
        t0 = clock()
        if get(key) is None:
            set_(key, value_for(key, SMALL))
            miss_ns += clock() - t0
            misses += 1
        else:
            hit_ns += clock() - t0
            hits += 1
    return hits, hit_ns, misses, miss_ns


def batched_readthrough(svc, keys: List[str], checks: Checks) -> int:
    """Windows of ``get_many`` then ``set_many`` for the misses."""
    bad = 0
    for i in range(0, len(keys), WINDOW):
        ks = keys[i:i + WINDOW]
        values = svc.get_many(ks)
        missed = []
        for key, value in zip(ks, values):
            if value is None:
                missed.append((key, value_for(key, SMALL)))
            elif value != value_for(key, SMALL):
                bad += 1
        if missed:
            svc.set_many(missed)
    checks.record(len(keys), bad, "batched read-through: wrong value")
    return len(keys)


def single_readthrough(svc, keys: List[str], checks: Checks) -> int:
    bad = 0
    for key in keys:
        value = svc.get(key)
        if value is None:
            svc.set(key, value_for(key, SMALL))
        elif value != value_for(key, SMALL):
            bad += 1
    checks.record(len(keys), bad, "read-through: wrong value")
    return len(keys)


def set_windows(svc, keys: List[str], size: int) -> int:
    for i in range(0, len(keys), WINDOW):
        svc.set_many([(k, value_for(k, size))
                      for k in keys[i:i + WINDOW]])
    return len(keys)


class NetClients:
    """RESP and memcached clients of one server, with reply checks and
    a span around every client call."""

    def __init__(self, server: Server, checks: Checks, tracer) -> None:
        self.checks = checks
        self.span = tracer.span
        self.calls = itertools.count()
        self.protocol_errors = 0
        self.rejected = 0
        self.resp = self._connect(RespClient, server.ports["resp"])
        self.mc = self._connect(McClient, server.ports["memcached"])

    def _connect(self, cls, port: int):
        try:
            return cls("127.0.0.1", port, timeout=30)
        except ConnectionRefusedError:
            self.rejected += 1
            raise

    def close(self) -> None:
        self.resp.close()
        self.mc.close()

    def _tally(self, ops: int, bad: int, errors: int) -> None:
        self.protocol_errors += errors
        self.checks.record(ops, bad + errors, "net: wrong or error reply")

    def resp_ops(self, keys: List[str], depth: int) -> int:
        bad = errors = 0
        for i in range(0, len(keys), depth):
            ks = keys[i:i + depth]
            with self.span("client.resp.get", request=next(self.calls)):
                replies = self.resp.pipeline([("GET", k) for k in ks])
            missed = []
            for k, r in zip(ks, replies):
                if isinstance(r, RespError):
                    errors += 1
                elif r is None:
                    missed.append(k)
                elif r != value_for(k, SMALL):
                    bad += 1
            if missed:
                with self.span("client.resp.set", request=next(self.calls)):
                    sets = self.resp.pipeline(
                        [("SET", k, value_for(k, SMALL)) for k in missed])
                errors += sum(r != "OK" for r in sets)
        self._tally(len(keys), bad, errors)
        return len(keys)

    def mc_ops(self, keys: List[str], depth: int) -> int:
        bad = errors = 0
        for i in range(0, len(keys), depth):
            ks = keys[i:i + depth]
            try:
                with self.span("client.mc.get", request=next(self.calls)):
                    found = self.mc.get_many(ks)
                missed = [k for k in ks if k not in found]
                bad += sum(data != value_for(k, SMALL)
                           for k, (_flags, data) in found.items())
                if missed:
                    with self.span("client.mc.set",
                                   request=next(self.calls)):
                        stored = self.mc.set_many(
                            [(k, value_for(k, SMALL)) for k in missed])
                    errors += len(missed) - stored
            except McError:
                errors += len(ks)
        self._tally(len(keys), bad, errors)
        return len(keys)

    def mc_set4k(self, keys: List[str]) -> int:
        errors = 0
        for i in range(0, len(keys), WINDOW):
            ks = keys[i:i + WINDOW]
            try:
                with self.span("client.mc.set4k", request=next(self.calls)):
                    stored = self.mc.set_many([(k, value_for(k, BIG))
                                               for k in ks])
                errors += len(ks) - stored
            except McError:
                errors += len(ks)
        self._tally(len(keys), 0, errors)
        return len(keys)


def _warm(svc, keys: List[str]) -> None:
    for i in range(0, len(keys), 256):
        svc.set_many([(k, value_for(k, SMALL)) for k in keys[i:i + 256]])


def run_service_rungs(workload: Workload, seed: int, budget_s: float,
                      samples: Samples, checks: Checks
                      ) -> Tuple[Dict[str, float], Dict]:
    tracer = samples.tracer
    keys = key_stream(workload.alpha, 400_000, derive_seed(seed, "ladder"))
    # Disjoint key space for 4 KiB writes, so reads never see them.
    big_keys = ["b" + k for k in keys]
    warm, start = warm_prefix(keys, CAPACITY)
    offsets = itertools.count(start, 7_919)

    def cursor(big: bool = False) -> Cursor:
        return Cursor(big_keys if big else keys, next(offsets))

    services: Dict[str, object] = {}
    closers: List[Callable[[], None]] = []
    extra: Dict = {}
    try:
        policy = create_policy("s3fifo", CAPACITY)
        services["service"] = CacheService(CAPACITY, "s3fifo")
        services["sharded"] = ShardedCacheService(CAPACITY, "s3fifo",
                                                  num_shards=4)
        services["obs"] = CacheService(CAPACITY, "s3fifo",
                                       metrics=MetricsRegistry())
        for name in ("service", "sharded", "obs"):
            _warm(services[name], warm)
        for key in warm:
            policy.request(Request(key))
        with tracer.span("setup.mp"):
            for t, w in itertools.product(("pipe", "shm"), (1, 2)):
                svc = MPCacheService(CAPACITY, "s3fifo", num_workers=w,
                                     transport=t)
                closers.append(svc.close)
                _warm(svc, warm)
                services[f"mp.{t}.w{w}"] = svc
        with tracer.span("setup.cluster"):
            cluster = ClusterCacheService(CAPACITY, "s3fifo", num_nodes=2,
                                          replication=2)
            closers.append(cluster.close)
            _warm(cluster, warm)
        with tracer.span("setup.net"):
            server = Server(["--backend", "inproc", "--resp-port", "0",
                             "--memcached-port", "0"], ports=2)
            closers.append(server.stop)
            net = NetClients(server, checks, tracer)
            closers.append(net.close)
            for i in range(0, len(warm), 256):
                net.resp.pipeline([("SET", k, value_for(k, SMALL))
                                   for k in warm[i:i + 256]])
            extra["net_info_start"] = net.resp.info()

        rungs = build_rungs(services, cluster, net, policy, cursor, checks,
                            samples)
        deadline = time.perf_counter() + budget_s
        reps = 0
        while reps < MIN_REPEATS or (reps < MAX_REPEATS
                                     and time.perf_counter() < deadline):
            for name, fn in rungs:
                samples.time(name, fn, request=reps)
            reps += 1
        extra["repetitions"] = reps

        extra["net_info_end"] = net.resp.info()
        extra["mp_imbalance_per_shard"] = services["mp.pipe.w2"] \
            .ops_per_shard()
        cstats = cluster.stats()
        extra["cluster_stats"] = {k: v for k, v in cstats.items()
                                  if not isinstance(v, dict)}
        out = {
            "mp.imbalance": services["mp.pipe.w2"].imbalance(),
            "cluster.failovers": cstats["failovers"],
            "cluster.degraded_ops": cstats["degraded_ops"],
            "net.protocol_errors": net.protocol_errors,
            "net.rejected": net.rejected,
            "trace_overhead": trace_overhead(net, cursor(), tracer),
        }
        extra["service_counters"] = services["service"].counters.as_dict()
    finally:
        # Every closer runs, even after one of them fails.
        failure = None
        for close in reversed(closers):
            try:
                close()
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
    return out, extra


def build_rungs(services, cluster, net, policy, cursor, checks,
                samples) -> List[Tuple[str, Callable]]:
    """(name, fn) for every interleaved rung; fn returns its op count."""
    svc = services["service"]
    rungs: List[Tuple[str, Callable]] = []

    c = cursor()

    def policy_request() -> int:
        req = policy.request
        ks = c.take(INPROC_OPS)
        for key in ks:
            req(Request(key))
        return len(ks)

    rungs.append(("policy.request", policy_request))
    for name in ("service", "sharded", "obs"):
        s, cur = services[name], cursor()
        rungs.append((name, lambda s=s, cur=cur: readthrough(
            s.get, s.set, cur.take(INPROC_OPS))))

    split_cursor = cursor()

    def service_split() -> int:
        ks = split_cursor.take(INPROC_OPS)
        hits, hit_ns, misses, miss_ns = readthrough_split(svc, ks)
        samples.add("service.hit_ns", hit_ns / max(hits, 1))
        samples.add("service.miss_ns", miss_ns / max(misses, 1))
        return len(ks)

    rungs.append(("service.split", service_split))
    set_cursor = cursor()
    live: List[str] = []

    def service_set() -> int:
        ks = set_cursor.take(2_000)
        for key in ks:
            if svc.set(key, value_for(key, SMALL)):
                live.append(key)
        return len(ks)

    def service_delete() -> int:
        ks = list(dict.fromkeys(live))
        live.clear()
        for key in ks:
            svc.delete(key)
        return len(ks)

    rungs += [("service.set", service_set),
              ("service.delete", service_delete)]

    for t, w, b in MP_RUNGS:
        s, cur = services[f"mp.{t}.w{w}"], cursor()
        if b == 1:
            fn = (lambda s=s, cur=cur: single_readthrough(
                s, cur.take(BATCH1_OPS), checks))
        else:
            fn = (lambda s=s, cur=cur: batched_readthrough(
                s, cur.take(WINDOW * BATCH16_WINDOWS), checks))
        rungs.append((f"mp.{t}.w{w}.b{b}", fn))
    for t in ("pipe", "shm"):
        s, cur = services[f"mp.{t}.w2"], cursor(big=True)
        rungs.append((f"mp.{t}.w2.b16.set4k", lambda s=s, cur=cur:
                      set_windows(s, cur.take(WINDOW * WRITE_WINDOWS), BIG)))
    s, cur = services["mp.pipe.w2"], cursor()
    rungs.append(("mp.pipe.w2.b16.set", lambda: set_windows(
        s, cur.take(WINDOW * WRITE_WINDOWS), SMALL)))

    get_cur, set_cur, del_cur = cursor(), cursor(), cursor()

    def cluster_get() -> int:
        ks = get_cur.take(WINDOW * WRITE_WINDOWS)
        for i in range(0, len(ks), WINDOW):
            cluster.get_many(ks[i:i + WINDOW])
        return len(ks)

    def cluster_delete() -> int:
        ks = del_cur.take(WINDOW * WRITE_WINDOWS)
        for i in range(0, len(ks), WINDOW):
            cluster.delete_many(ks[i:i + WINDOW])
        return len(ks)

    rungs += [
        ("cluster.get", cluster_get),
        ("cluster.set", lambda: set_windows(
            cluster, set_cur.take(WINDOW * WRITE_WINDOWS), SMALL)),
        ("cluster.delete", cluster_delete),
    ]

    for p, d in NET_RUNGS:
        cur = cursor()
        n = BATCH1_OPS if d == 1 else WINDOW * BATCH16_WINDOWS
        op = net.resp_ops if p == "resp" else net.mc_ops
        rungs.append((f"net.{p}.p{d}", lambda op=op, cur=cur, n=n, d=d:
                      op(cur.take(n), d)))
    big_cur = cursor(big=True)
    rungs.append(("net.mc.set4k", lambda: net.mc_set4k(
        big_cur.take(WINDOW * WRITE_WINDOWS))))
    return rungs


def _no_span(name: str, request: int = None):
    return nullcontext()


def trace_overhead(net: NetClients, cur: Cursor, tracer) -> float:
    """Traced over untraced wall of the same loop, minus 1.

    The loop is read-through windows of 16 over RESP with a span around
    each client call -- the span density of the traced net rungs.
    Traced and untraced slices alternate, 5 of each; their medians are
    compared.
    """
    walls = {True: [], False: []}
    for rep in range(10):
        traced = rep % 2 == 1
        net.span = tracer.span if traced else _no_span
        ks = cur.take(WINDOW * 100)
        t0 = time.perf_counter()
        net.resp_ops(ks, WINDOW)
        walls[traced].append(time.perf_counter() - t0)
    net.span = tracer.span
    return statistics.median(walls[True]) / statistics.median(
        walls[False]) - 1.0


# ----------------------------------------------------------------------
def run(workload: Workload, seed: int, seconds: float, checks: Checks,
        tracer) -> Dict:
    samples = Samples(tracer)
    started = time.perf_counter()
    metrics = run_sim_rungs(workload, seed, samples, checks)
    budget = max(0.0, seconds - (time.perf_counter() - started))
    service_metrics, extra = run_service_rungs(workload, seed, budget,
                                               samples, checks)
    metrics.update(service_metrics)

    med = samples.median
    metrics["policy.request_ns"] = med("policy.request")
    for name in ("service.hit_ns", "service.miss_ns"):
        metrics[name] = med(name)
    metrics["service.set_ns"] = med("service.set")
    metrics["service.delete_ns"] = med("service.delete")
    metrics["sharded.op_ns"] = med("sharded")
    metrics["obs.metrics_on_ns"] = med("obs")
    metrics["obs.keep_ratio"] = med("service") / med("obs")
    for t, w, b in MP_RUNGS:
        metrics[f"mp.{t}.w{w}.b{b}.op_ns"] = med(f"mp.{t}.w{w}.b{b}")
    for w, b in itertools.product((1, 2), (1, 16)):
        metrics[f"mp.shm_over_pipe.w{w}.b{b}"] = (
            med(f"mp.pipe.w{w}.b{b}") / med(f"mp.shm.w{w}.b{b}"))
    for t in ("pipe", "shm"):
        metrics[f"mp.{t}.w2.b16.set4k_op_ns"] = med(f"mp.{t}.w2.b16.set4k")
    for op in ("get", "set", "delete"):
        metrics[f"cluster.{op}_ns"] = med(f"cluster.{op}")
    metrics["cluster.set_over_mp"] = (med("cluster.set")
                                      / med("mp.pipe.w2.b16.set"))
    for p, d in NET_RUNGS:
        metrics[f"net.{p}.p{d}.op_ns"] = med(f"net.{p}.p{d}")
    metrics["net.mc.set4k_op_ns"] = med("net.mc.set4k")
    for rung, below in DELTAS:
        metrics[f"{rung}.delta_ns"] = med(rung) - med(below)

    units = metric_units()
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"ladder produced no value for {sorted(missing)}")
    extra["rungs"] = {name: summarize(vals)
                      for name, vals in sorted(samples.values.items())}
    extra["self_times"] = tracer.self_times()
    return {"metrics": {k: metrics[k] for k in units}, "units": units,
            "extra": extra, "lines": report_lines(metrics, extra)}


def report_lines(metrics: Dict[str, float], extra: Dict) -> List[str]:
    """The ladder table: median, min and IQR per rung, with deltas."""
    lines = [f"ladder: {extra['repetitions']} interleaved repetitions",
             f"{'rung':28s} {'median':>12s} {'min':>12s} {'iqr':>10s} "
             f"{'n':>3s} {'delta':>12s}"]
    for name, row in extra["rungs"].items():
        delta = metrics.get(f"{name}.delta_ns")
        lines.append(
            f"{name:28s} {row['median']:12.1f} {row['min']:12.1f} "
            f"{row['iqr']:10.1f} {row['n']:3d} "
            + (f"{delta:12.1f}" if delta is not None else f"{'':12s}"))
    lines.append(
        f"hit/miss split (service): hit {metrics['service.hit_ns']:.1f} "
        f"ns, miss {metrics['service.miss_ns']:.1f} ns")
    for w, b in itertools.product((1, 2), (1, 16)):
        lines.append(f"mp.shm_over_pipe.w{w}.b{b} = "
                     f"{metrics[f'mp.shm_over_pipe.w{w}.b{b}']:.3f} "
                     f"(>= 1.2 means shm pays)")
    return lines
