"""Simulator half of a run: trace set-up, timed simulate/MRC samples,
output checks and the hit-ratio regime guard.

One round calls ``simulate(create_policy(p, capacity), compiled)`` on
the default engine for each of the four ``*-fast`` policies, then
``fifo_mrc`` on its default engine at the 8 fixed sizes; a few times a
run, ``s3fifo_mrc`` (default, sampled engine) runs at the same sizes.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from common import (
    CAPACITY, HELD_OUT_SEED, MRC_SIZES, Checks, Workload, derive_seed,
    zipf_keys,
)
from repro.cache.registry import create_policy
from repro.sim.mrc import fifo_mrc, s3fifo_mrc
from repro.sim.simulator import simulate
from repro.sim.vector import vector_eligible
from repro.traces.compiled import compile_trace

#: (short name, registry name) of the policies every round simulates.
POLICIES: Tuple[Tuple[str, str], ...] = (
    ("s3fifo", "s3fifo-fast"),
    ("fifo", "fifo-fast"),
    ("sieve", "sieve-fast"),
    ("lru", "lru-fast"),
)
#: Requests the reference ``s3fifo`` replays for its parity check.
REFERENCE_PREFIX = 50_000
#: Fewest rounds of the four simulations per run.
MIN_ROUNDS = 6
SETUPS = 3
#: Timed sample name -> the end-to-end metric it yields.
METRIC_OF = {short: f"{short}_req_per_s" for short, _ in POLICIES}
METRIC_OF.update({"fifo_mrc": "fifo_mrc_s", "s3fifo_mrc": "s3fifo_mrc_s"})


class RegimeError(RuntimeError):
    """The workload's S3-FIFO hit ratio left its regime."""


def build_trace(workload: Workload, seed: int):
    """Generate, compile and index the workload's trace.

    Returns the compiled trace and the per-step times (s).  The lazy
    ``key_ids``/``occurrence_index`` indexes are paid once per trace,
    so they belong to set-up, not to the first simulation.
    """
    t0 = time.perf_counter()
    keys = zipf_keys(workload.alpha, workload.sim_requests, seed)
    t1 = time.perf_counter()
    compiled = compile_trace(keys, name=workload.name)
    t2 = time.perf_counter()
    compiled.key_ids()
    compiled.occurrence_index()
    t3 = time.perf_counter()
    return compiled, {"generate_s": t1 - t0, "compile_s": t2 - t1,
                      "occurrence_index_s": t3 - t2, "total_s": t3 - t0}


def sim_seed(seed: int) -> int:
    return derive_seed(seed, "sim")


_PROBE_DATA = list(range(1 << 16))
#: The probe's time on the host the benchmark was defined on, in its
#: usual undisturbed state (2-CPU VM, CPython 3.11).
PROBE_REF_S = 0.004


def probe() -> float:
    """Time a fixed pure-Python loop (list reads, dict writes): the
    host's current speed for interpreter-bound work like the
    simulator's."""
    t0 = time.perf_counter()
    data = _PROBE_DATA
    table = {}
    acc = 0
    for i in range(10_000):
        j = (i * 7919) & 0xFFFF
        acc += data[j]
        table[j & 1023] = acc
    return time.perf_counter() - t0


class SimHalf:
    """The simulator half: set up in the constructor, then measured in
    rounds and curves that the caller interleaves with the serving
    half, so that the samples of every metric spread over the run."""

    def __init__(self, workload: Workload, seed: int,
                 checks: Checks) -> None:
        self.workload = workload
        self.seed = seed
        self.checks = checks
        #: CPU and wall time of each set-up.
        self.setups: List[float] = []
        self.setup_walls: List[float] = []
        for _ in range(SETUPS):
            cpu0 = time.process_time()
            self.compiled, steps = build_trace(workload, sim_seed(seed))
            self.setups.append(time.process_time() - cpu0)
            self.setup_walls.append(steps["total_s"])
        self.walls: Dict[str, List[float]] = {
            name: [] for name in METRIC_OF}
        self.misses: Dict[str, List[int]] = {
            short: [] for short, _ in POLICIES}
        self.probes: Dict[str, List[float]] = {
            name: [] for name in METRIC_OF}
        self.fifo_curve = None
        self.rounds = 0

    def _timed(self, name: str, fn):
        """Run one sample between two probes; keep its wall time and
        the probes' mean."""
        before = probe()
        t0 = time.perf_counter()
        result = fn()
        self.walls[name].append(time.perf_counter() - t0)
        self.probes[name].append((before + probe()) / 2)
        self.checks.record(1)
        return result

    def round(self) -> None:
        """One round: the four simulations on the default engine, and
        the FIFO curve (single-pass, about as cheap as one of them)."""
        for short, name in POLICIES:
            result = self._timed(short, lambda: simulate(
                create_policy(name, CAPACITY), self.compiled))
            self.misses[short].append(result.misses)
        self.fifo_curve = self._timed(
            "fifo_mrc", lambda: fifo_mrc(self.compiled, MRC_SIZES))
        self.rounds += 1

    def mrc(self) -> None:
        """One sampled S3-FIFO curve on its default engine."""
        self._timed("s3fifo_mrc",
                    lambda: s3fifo_mrc(self.compiled, MRC_SIZES))

    def finish(self) -> Dict[str, float]:
        """Output checks, the regime guard, and the metrics."""
        compiled = self.compiled
        check_outputs(compiled, self.misses, self.fifo_curve, self.checks)
        s3fifo_miss_ratio = self.misses["s3fifo"][0] / len(compiled)
        if self.workload.regime is not None:
            guard_regime(self.workload, 1.0 - s3fifo_miss_ratio, self.seed)
        metrics = {}
        for name, metric in METRIC_OF.items():
            t = reference_time(self.walls[name], self.probes[name])
            metrics[metric] = (len(compiled) / t
                               if metric.endswith("_req_per_s") else t)
        metrics["s3fifo_miss_ratio"] = s3fifo_miss_ratio
        metrics["sim_setup_s"] = statistics.median(self.setups)
        metrics["sim_setup_wall_s"] = statistics.median(self.setup_walls)
        return metrics


def reference_time(walls: List[float], probes: List[float]) -> float:
    """Median sample time at the reference host speed.

    The host's speed drifts by up to 2x over tens of seconds (other
    tenants share its cores).  Scaling each sample by how fast the
    probe ran around it -- ``wall * PROBE_REF_S / probe`` -- cancels
    that drift, and leaves any change to the simulator's own cost.
    """
    return statistics.median(w * PROBE_REF_S / p
                             for w, p in zip(walls, probes))


def check_outputs(compiled, misses: Dict[str, List[int]], fifo_curve,
                  checks: Checks) -> None:
    """Engine parity, reference parity and MRC parity checks."""
    for short, name in POLICIES:
        counts = misses[short]
        checks.expect(len(set(counts)) == 1,
                      f"{short}: miss counts differ across rounds {counts}")
        base = counts[0]
        scalar = simulate(create_policy(name, CAPACITY), compiled,
                          engine="scalar").misses
        checks.expect(scalar == base,
                      f"{short}: default engine {base} != scalar {scalar}")
        policy = create_policy(name, CAPACITY)
        if vector_eligible(policy, compiled):
            vector = simulate(policy, compiled, engine="vector").misses
            checks.expect(vector == base,
                          f"{short}: default engine {base} != vector "
                          f"{vector}")

    prefix = compiled.key_ids()[:REFERENCE_PREFIX]
    reference = simulate(create_policy("s3fifo", CAPACITY), prefix).misses
    fast = simulate(create_policy("s3fifo-fast", CAPACITY),
                    compile_trace(prefix)).misses
    checks.expect(reference == fast,
                  f"s3fifo reference {reference} != s3fifo-fast {fast} "
                  f"on a {len(prefix)}-request prefix")

    point = dict(zip(fifo_curve.sizes, fifo_curve.miss_ratios))[CAPACITY]
    fifo_ratio = misses["fifo"][0] / len(compiled)
    checks.expect(point == fifo_ratio,
                  f"fifo_mrc at {CAPACITY} = {point!r} != fifo-fast "
                  f"simulate {fifo_ratio!r}")


def guard_regime(workload: Workload, hit_ratio: float, seed: int) -> None:
    """Fail unless S3-FIFO stays in the workload's hit-ratio regime on
    the given seed and on :data:`HELD_OUT_SEED`."""
    held, _ = build_trace(workload, sim_seed(HELD_OUT_SEED))
    held_hit = 1.0 - simulate(create_policy("s3fifo-fast", CAPACITY),
                              held).miss_ratio
    kind, bound = workload.regime
    for label, value in ((f"seed {seed}", hit_ratio),
                         (f"held-out seed {HELD_OUT_SEED}", held_hit)):
        ok = value >= bound if kind == "min" else value <= bound
        if not ok:
            op = ">=" if kind == "min" else "<="
            raise RegimeError(
                f"{workload.name}: S3-FIFO hit ratio {value:.4f} on "
                f"{label} is not {op} {bound}; the workload has left "
                f"its regime"
            )
