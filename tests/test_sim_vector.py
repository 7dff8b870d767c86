"""Differential + property validation of the vectorized hit-run engine.

The vector engine (:mod:`repro.sim.vector`) promises results
*bit-identical* to the scalar engines for the whole FIFO family — same
misses, bytes, eviction split, warmup accounting — on unit, sized, and
oversized-object traces, invariant to the chunk width.  These tests
pin every clause of that promise:

* a differential sweep of every vector-capable policy (with
  non-default constructor knobs) against the scalar engine across
  trace shapes, capacities, and warmups;
* chunk-width invariance, both on fixed adversarial widths (1, 2, odd,
  larger than the trace) and via hypothesis-generated traces — the
  latter deliberately aims chunk boundaries into miss runs and at
  repeated keys whose first touch in a chunk is a miss, the two places
  where forced-candidate bookkeeping could drift;
* engine wiring: ``simulate_compiled`` routing, eligibility rules,
  and the no-mutation guarantee (the policy object stays pristine).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.registry import create_policy
from repro.sim.multisim import fifo_multisim
from repro.sim.request import Request
from repro.sim.simulator import simulate, simulate_compiled
from repro.sim.vector import (
    VECTOR_POLICIES,
    vector_eligible,
    vector_simulate,
)
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace

ZIPF = zipf_trace(num_objects=300, num_requests=4000, alpha=1.0, seed=21)
SCAN = [f"s{i}" for i in range(400)]
MIX = ZIPF[:1500] + SCAN + ZIPF[1500:3000] + SCAN + ZIPF[3000:]
_rng = random.Random(7)
SIZED = [(k, _rng.randint(1, 40)) for k in ZIPF]
_rng = random.Random(7)
# Sizes 200/999 exceed the smallest capacities below: every kernel
# must take the oversized path (miss, no policy access) exactly where
# the scalar engine does — including for keys already resident.
OVER = [(k, _rng.choice([1, 5, 200, 999])) for k in ZIPF[:2000]]

TRACES = {
    "zipf": (compile_trace(ZIPF, name="zipf"), (60, 7, 1, 350)),
    "mix": (compile_trace(MIX, name="mix"), (60, 350)),
    "sized": (compile_trace(SIZED, name="sized"), (2000, 150, 3)),
    "over": (compile_trace(OVER, name="over"), (2000, 150, 3)),
}

FIELDS = (
    "requests", "misses", "bytes_requested", "bytes_missed",
    "evictions", "warmup_requests", "warmup_evictions",
)

POLICY_CONFIGS = [
    ("fifo", {}),
    ("fifo-fast", {}),
    ("sfifo", {}),
    ("sfifo", {"primary_ratio": 0.5}),
    ("sieve", {}),
    ("sieve-fast", {}),
    ("s3fifo", {}),
    ("s3fifo", {"small_ratio": 0.25, "ghost_entries": 40,
                "move_to_main_threshold": 1, "freq_cap": 7}),
    ("s3fifo-fast", {}),
    ("s3fifo-fast", {"small_ratio": 0.25, "ghost_entries": 40,
                     "move_to_main_threshold": 1, "freq_cap": 3}),
    # S3-FIFO edge branches: no ghost at all; every S tail promoted
    # (threshold 0) under a 1-bit counter; a small queue clamped to
    # one slot.
    ("s3fifo", {"ghost_entries": 0}),
    ("s3fifo", {"move_to_main_threshold": 0, "freq_cap": 1}),
    ("s3fifo", {"small_ratio": 0.01}),
    ("s3fifo-fast", {"ghost_entries": 0}),
    ("s3fifo-fast", {"move_to_main_threshold": 0, "freq_cap": 1}),
    ("s3fifo-fast", {"small_ratio": 0.01}),
]


def _assert_identical(ref, vec, ctx):
    for field in FIELDS:
        rv, vv = getattr(ref, field), getattr(vec, field)
        assert rv == vv, (*ctx, field, rv, vv)


def _config_id(config):
    name, kwargs = config
    return name if not kwargs else f"{name}-{'-'.join(map(str, kwargs.values()))}"


@pytest.mark.parametrize(
    "name,kwargs", POLICY_CONFIGS, ids=[_config_id(c) for c in POLICY_CONFIGS]
)
def test_vector_matches_scalar(name, kwargs):
    """Full differential sweep at the default chunk width."""
    for tname, (trace, caps) in TRACES.items():
        for cap in caps:
            for warm in (0.0, 0.3):
                ref = simulate_compiled(
                    create_policy(name, cap, **kwargs), trace,
                    warmup=warm, engine="scalar",
                )
                vec = simulate_compiled(
                    create_policy(name, cap, **kwargs), trace,
                    warmup=warm, engine="vector",
                )
                _assert_identical(ref, vec, (name, kwargs, tname, cap, warm))


@pytest.mark.parametrize("chunk", [1, 2, 7, 10 ** 9])
def test_chunk_invariance_fixed_widths(chunk):
    """Adversarial chunk widths: 1 (every request its own probe), 2,
    odd (boundaries land mid-run everywhere), larger than the trace."""
    for name, kwargs in (("fifo", {}), ("sieve", {}), ("s3fifo", {})):
        for tname in ("mix", "over"):
            trace, caps = TRACES[tname]
            cap = caps[0]
            ref = simulate_compiled(
                create_policy(name, cap, **kwargs), trace, engine="scalar"
            )
            vec = vector_simulate(
                create_policy(name, cap, **kwargs), trace, chunk=chunk
            )
            _assert_identical(ref, vec, (name, tname, cap, chunk))


def test_chunk_splits_miss_run():
    """A run of cold misses crossing a chunk boundary: positions after
    the split must still be consumed as scalar events, not probed
    against the stale chunk-start mask."""
    trace = compile_trace(list(range(10)) + list(range(10)))
    for name in ("fifo", "sieve", "s3fifo", "sfifo"):
        ref = simulate_compiled(
            create_policy(name, 4), trace, engine="scalar"
        )
        for chunk in (3, 4, 5):
            vec = vector_simulate(create_policy(name, 4), trace, chunk=chunk)
            _assert_identical(ref, vec, (name, chunk))


def test_repeated_key_first_chunk_touch_is_miss():
    """A key evicted earlier returns several times inside one chunk:
    its first touch is a (forced or probed) miss, and the repeats must
    come from the post-insert state, not the chunk-start snapshot."""
    trace = compile_trace([0, 1, 2, 3, 0, 0, 0, 1, 1, 2, 0])
    for name in ("fifo", "sieve", "s3fifo", "sfifo"):
        for cap in (2, 3):
            ref = simulate_compiled(
                create_policy(name, cap), trace, engine="scalar"
            )
            for chunk in (4, 6, 11):
                vec = vector_simulate(
                    create_policy(name, cap), trace, chunk=chunk
                )
                _assert_identical(ref, vec, (name, cap, chunk))


@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=25), min_size=1, max_size=120
    ),
    capacity=st.integers(min_value=1, max_value=12),
    chunk=st.integers(min_value=1, max_value=130),
    policy_index=st.integers(min_value=0, max_value=len(POLICY_CONFIGS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_vector_chunk_property_unit(keys, capacity, chunk, policy_index):
    """Hypothesis: any trace, any capacity, any chunk width — the
    vector engine is bit-identical to the scalar one."""
    name, kwargs = POLICY_CONFIGS[policy_index]
    trace = compile_trace(keys)
    ref = simulate_compiled(
        create_policy(name, capacity, **kwargs), trace, engine="scalar"
    )
    vec = vector_simulate(
        create_policy(name, capacity, **kwargs), trace, chunk=chunk
    )
    _assert_identical(ref, vec, (name, kwargs, capacity, chunk, keys))


@given(
    items=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=30),
        ),
        min_size=1,
        max_size=80,
    ),
    capacity=st.integers(min_value=1, max_value=20),
    chunk=st.integers(min_value=1, max_value=90),
)
@settings(max_examples=40, deadline=None)
def test_vector_chunk_property_sized(items, capacity, chunk):
    """Sized variant: sizes routinely exceed capacity, so the
    oversized path is exercised under arbitrary chunking too."""
    trace = compile_trace(items)
    for name in ("fifo", "sfifo", "sieve", "s3fifo"):
        ref = simulate_compiled(
            create_policy(name, capacity), trace, engine="scalar"
        )
        vec = vector_simulate(
            create_policy(name, capacity), trace, chunk=chunk
        )
        _assert_identical(ref, vec, (name, capacity, chunk, items))


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------

def test_vector_does_not_mutate_policy():
    trace, _ = TRACES["zipf"]
    policy = create_policy("s3fifo", 60)
    vector_simulate(policy, trace)
    assert policy.stats.requests == 0
    assert policy.clock == 0
    assert len(policy) == 0
    # Still pristine, so the same object can run again.
    again = vector_simulate(policy, trace)
    assert again.requests == len(trace)


def test_auto_routes_eligible_policies_to_vector():
    """With engine="auto" the policy stays untouched — proof the
    vector path (which never mutates) handled it."""
    trace, _ = TRACES["zipf"]
    for name in VECTOR_POLICIES:
        policy = create_policy(name, 60)
        assert vector_eligible(policy, trace), name
        simulate(policy, trace, engine="auto")
        assert policy.stats.requests == 0, name


def test_scalar_engine_still_mutates():
    trace, _ = TRACES["zipf"]
    policy = create_policy("fifo", 60)
    result = simulate(policy, trace, engine="scalar")
    assert policy.stats.requests == len(trace)
    assert result.requests == len(trace)


def test_engine_equivalence_through_simulate():
    trace, _ = TRACES["mix"]
    results = [
        simulate(create_policy("sieve", 60), trace, engine=engine)
        for engine in ("auto", "scalar", "vector")
    ]
    for other in results[1:]:
        _assert_identical(results[0], other, ("sieve",))


def test_vector_rejects_ineligible():
    trace, _ = TRACES["zipf"]
    # LRU promotes on hit: excluded from the engine by design.
    lru = create_policy("lru", 60)
    assert not vector_eligible(lru, trace)
    with pytest.raises(ValueError):
        simulate_compiled(lru, trace, engine="vector")
    # A warmed-up policy is no longer pristine.
    warm = create_policy("fifo", 60)
    warm.request(Request(1))
    assert not vector_eligible(warm, trace)
    with pytest.raises(ValueError):
        vector_simulate(warm, trace)
    # Raw (uncompiled) traces never qualify.
    assert not vector_eligible(create_policy("fifo", 60), ZIPF)


def test_result_records_engine_and_steps():
    """``engine`` names the engine that ran; ``vector_steps`` counts the
    vector engine's scalar events (every miss is one) and is None
    elsewhere."""
    for tname in ("mix", "over"):
        trace, caps = TRACES[tname]
        for name in ("s3fifo", "sieve"):
            auto = simulate(create_policy(name, caps[0]), trace, warmup=0.3)
            assert auto.engine == "vector"
            assert auto.misses <= auto.vector_steps <= len(trace)
            scalar = simulate(
                create_policy(name, caps[0]), trace, warmup=0.3,
                engine="scalar",
            )
            assert scalar.engine == "scalar"
            assert scalar.vector_steps is None
    lru = simulate(create_policy("lru", 60), TRACES["zipf"][0])
    assert (lru.engine, lru.vector_steps) == ("scalar", None)
    streamed = simulate(create_policy("s3fifo", 60), ZIPF)
    assert (streamed.engine, streamed.vector_steps) == ("scalar", None)
    view = fifo_multisim(TRACES["zipf"][0], [60]).result_for(60)
    assert (view.engine, view.vector_steps) == ("multisim", None)


def test_unknown_engine_rejected():
    trace, _ = TRACES["zipf"]
    with pytest.raises(ValueError):
        simulate_compiled(create_policy("fifo", 60), trace, engine="turbo")


def test_bad_chunk_rejected():
    trace, _ = TRACES["zipf"]
    with pytest.raises(ValueError):
        vector_simulate(create_policy("fifo", 60), trace, chunk=0)


def test_sweep_job_engine_pinning():
    from repro.sim.runner import SweepJob, coalesce_jobs, execute_job

    def factory(**kwargs):
        return TRACES["zipf"][0]

    jobs = {
        engine: SweepJob("zipf", factory, {}, "fifo", 60, engine=engine)
        for engine in ("auto", "scalar", "vector")
    }
    ratios = {
        engine: execute_job(job) for engine, job in jobs.items()
    }
    for engine, res in ratios.items():
        assert res.error is None, (engine, res.error)
    assert (
        ratios["auto"].miss_ratio
        == ratios["scalar"].miss_ratio
        == ratios["vector"].miss_ratio
    )
    # Engine-pinned jobs must not be coalesced into a multisim batch
    # (which would override the explicit engine choice).
    pinned = [
        SweepJob("zipf", factory, {}, "fifo", size, engine="scalar")
        for size in (10, 20, 30)
    ]
    groups, singles = coalesce_jobs(pinned)
    assert not groups and len(singles) == len(pinned)
    unpinned = [
        SweepJob("zipf", factory, {}, "fifo", size) for size in (10, 20, 30)
    ]
    groups, singles = coalesce_jobs(unpinned)
    assert groups and not singles
