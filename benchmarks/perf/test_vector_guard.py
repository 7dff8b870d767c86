"""Vector-engine perf guards: NumPy batch engine vs. scalar fast twins.

Marked ``perf`` and excluded from tier-1 (see pyproject addopts); run
via ``make perf`` or ``pytest benchmarks/perf -m perf``.

:func:`test_auto_never_slower` is a same-run guard over the skew range:
at every Zipf alpha from 0.6 (S3-FIFO hit ratio 0.27) to 1.4 (0.96),
the default ``engine="auto"`` must cost at most 1/0.95 of the cheaper
of ``"scalar"`` and ``"vector"``, for each FIFO-family fast twin.  The
three engines are timed interleaved in this process's CPU time, min of
3, so the ratio carries no host speed, needs no recorded baseline and
no minimum CPU count; a cell over the bound is measured again (see
:data:`ATTEMPTS`).

:func:`test_vector_engine_guard` enforces the vectorized hit-run
claim: on a 1M-request high-skew Zipf trace whose
hit ratio exceeds 0.9, the vector engine (:mod:`repro.sim.vector`)
sustains at least 2.5x ``fifo-fast`` and 2x ``s3fifo-fast`` — the
scalar compiled-trace paths that were themselves the previous perf
tentpole.  Both engines are timed best-of-3 because single-shot walls
on small shared machines carry more noise than the asserted margin.

Merges its measurements into ``benchmarks/results/BENCH_perf.json``
as the ``"vector"`` section (test_perf_bench.py owns the rest).
"""

import json
import time
from pathlib import Path

import pytest

from repro.cache.registry import create_policy
from repro.perf.bench import (
    VECTOR_BENCH_TARGETS,
    env_block,
    run_vector_bench,
    write_report,
)
from repro.sim.simulator import simulate
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace

RESULTS_PATH = Path(__file__).parent.parent / "results" / "BENCH_perf.json"

#: ``auto`` may cost at most this factor over the best engine.
MAX_AUTO_OVER_BEST = 1 / 0.95
#: Times a cell is measured before its failure counts.  Two runs of
#: the same engine differ by up to 30% in min-of-3 CPU time on a
#: shared 2-CPU VM, far more than the 5% bound, while a wrong engine
#: choice repeats on every attempt (S3-FIFO's vector kernel before its
#: flat loop: 1.3-1.5x scalar at alpha 0.6-0.8).
ATTEMPTS = 3
GUARD_ALPHAS = (0.6, 0.8, 1.0, 1.2, 1.4)
GUARD_POLICIES = ("s3fifo-fast", "fifo-fast", "sieve-fast")
ENGINES = ("auto", "scalar", "vector")


def _auto_over_best(name, capacity, compiled):
    """auto's CPU time over the cheaper of scalar and vector: the
    three engines interleaved, min of 3 each."""
    best = {engine: float("inf") for engine in ENGINES}
    misses = set()
    for _ in range(3):
        for engine in ENGINES:
            policy = create_policy(name, capacity)
            t0 = time.process_time()
            result = simulate(policy, compiled, engine=engine)
            best[engine] = min(best[engine], time.process_time() - t0)
            misses.add(result.misses)
    assert len(misses) == 1, (name, misses)
    return best["auto"] / min(best["scalar"], best["vector"]), best


@pytest.mark.perf
def test_auto_never_slower():
    objects = 100_000
    capacity = objects // 10
    failures = []
    for alpha in GUARD_ALPHAS:
        compiled = compile_trace(
            zipf_trace(objects, 100_000, alpha=alpha, seed=11)
        )
        compiled.key_ids()
        compiled.occurrence_index()
        for name in GUARD_POLICIES:
            for _ in range(ATTEMPTS):
                ratio, best = _auto_over_best(name, capacity, compiled)
                if ratio <= MAX_AUTO_OVER_BEST:
                    break
            else:
                failures.append(
                    f"{name} at alpha {alpha}: auto/best = {ratio:.2f} "
                    f"(CPU s: {best})"
                )
    assert not failures, "; ".join(failures)


@pytest.mark.perf
def test_vector_engine_guard():
    section = run_vector_bench(
        num_objects=100_000,
        num_requests=1_000_000,
        alpha=1.4,
        cache_ratio=0.1,
        seed=42,
        repeats=3,
    )

    # Attach to the canonical report if the full bench already wrote
    # one; otherwise start a stub so the section is never lost.
    if RESULTS_PATH.is_file():
        try:
            report = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            report = {}
    else:
        report = {}
    if not isinstance(report, dict) or "results" not in report:
        report = {"env": env_block()}
    report["vector"] = section
    write_report(report, RESULTS_PATH)

    # The workload must actually exercise lazy promotion: the guard
    # is a claim about hit-run dominance, not about miss-heavy traces.
    for name, _ in VECTOR_BENCH_TARGETS:
        hit = section["hit_ratios"][name]
        assert hit >= 0.9, (
            f"{name} guard workload hit ratio {hit:.4f} < 0.9 — "
            "the acceptance trace no longer stresses hit runs"
        )

    for name, target in VECTOR_BENCH_TARGETS:
        speedup = section["speedups"][name]
        assert speedup >= target, (
            f"vector engine is only {speedup:.2f}x {name} "
            f"(target {target:.1f}x); walls: "
            f"{[r['all_walls_s'] for r in section['results'] if r['policy'] == name]}"
        )
