"""MRC perf guards, 8 cache sizes each, timed against same-run baselines.

Marked ``perf``/``mrc`` and excluded from tier-1 (see pyproject
addopts); run via ``make mrc-fast`` or ``pytest benchmarks/perf -m
perf``.  Two claims are enforced:

* the single-pass multi-size FIFO engine computes all 8 cache sizes of
  a 1M-request Zipf(1.0) MRC at least 3x faster than re-simulating per
  size — with the *fast twin* as the baseline, not the reference
  policy, so the bar is the honest one.  Exactness is asserted on the
  same run.
* the sampled S3-FIFO MRC (``s3fifo_mrc`` at its defaults: 3 ensembles
  of 25% samples, one compiled simulation per ensemble and size) costs
  at most :data:`S3FIFO_MRC_MAX_RATIO` full-trace ``s3fifo-fast``
  simulations on a hit-heavy Zipf(1.2) trace.  Both sides are timed
  min-of-3, interleaved, in the same process, so the ratio carries no
  host speed.
"""

import time

import pytest

from repro.cache.registry import create_policy
from repro.sim.mrc import s3fifo_mrc
from repro.sim.multisim import fifo_multisim
from repro.sim.simulator import simulate
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace

SIZE_FRACTIONS = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5)

#: Bound on (sampled S3-FIFO MRC time) / (one full-trace s3fifo-fast
#: simulate).  Measured 4.8-8.7 on a 2-CPU VM (CPython 3.11); the
#: per-request sampled engine it replaced measured 28-38 on the same
#: host, so the bound sits ~2x from both.
S3FIFO_MRC_MAX_RATIO = 15.0


@pytest.mark.perf
@pytest.mark.mrc
def test_single_pass_mrc_speedup():
    trace = zipf_trace(
        num_objects=100_000, num_requests=1_000_000, alpha=1.0, seed=42
    )
    ct = compile_trace(trace, name="zipf-1M")
    sizes = sorted(
        {max(1, int(ct.num_objects * f)) for f in SIZE_FRACTIONS}
    )
    assert len(sizes) == 8

    start = time.perf_counter()
    result = fifo_multisim(ct, sizes)
    t_single = time.perf_counter() - start

    start = time.perf_counter()
    per_size = []
    for size in sizes:
        cache = create_policy("fifo-fast", capacity=size)
        per_size.append(simulate(cache, ct))
    t_per_size = time.perf_counter() - start

    for r, misses in zip(per_size, result.misses):
        assert r.misses == misses  # exactness rides along with the race
    speedup = t_per_size / t_single
    assert speedup >= 3.0, (
        f"single-pass is only {speedup:.2f}x per-size re-simulation "
        f"({t_single:.2f}s vs {t_per_size:.2f}s at {len(sizes)} sizes)"
    )


@pytest.mark.perf
@pytest.mark.mrc
def test_sampled_s3fifo_mrc_cost():
    num_objects = 50_000
    ct = compile_trace(
        zipf_trace(
            num_objects=num_objects, num_requests=500_000, alpha=1.2,
            seed=42,
        ),
        name="zipf-1.2-500k",
    )
    sizes = sorted({max(1, int(num_objects * f)) for f in SIZE_FRACTIONS})
    assert len(sizes) == 8

    t_sim = t_mrc = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        simulate(create_policy("s3fifo-fast", num_objects // 10), ct)
        t_sim = min(t_sim, time.perf_counter() - start)
        start = time.perf_counter()
        curve = s3fifo_mrc(ct, sizes)
        t_mrc = min(t_mrc, time.perf_counter() - start)

    assert curve.sizes == sizes
    ratio = t_mrc / t_sim
    assert ratio <= S3FIFO_MRC_MAX_RATIO, (
        f"sampled s3fifo_mrc at {len(sizes)} sizes costs {ratio:.1f} "
        f"full-trace simulations (bound {S3FIFO_MRC_MAX_RATIO}); "
        f"{t_mrc:.2f}s vs {t_sim:.2f}s"
    )
