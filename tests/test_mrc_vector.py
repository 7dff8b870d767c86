"""Vectorized SHARDS sampling and vector-engine MRC paths.

The compiled-trace branch of :func:`repro.sim.mrc.spatial_sample`
replicates CPython's tuple hash in uint64 NumPy; these tests pin it
*bit-identical* to the scalar fingerprint filter — same kept requests,
in order — across key types, rates, and seeds, because a sampler that
drifts by one key produces silently different (not wrong-looking)
curves.  The MRC engine selectors are pinned the same way: the
``"vector"`` paths must reproduce the exact per-size scalar curves.
"""

import random

import pytest

from repro.cache.registry import create_policy
from repro.sim.mrc import (
    _compiled_sample,
    fifo_mrc,
    s3fifo_mrc,
    sampled_mrc,
    spatial_sample,
)
from repro.sim.simulator import simulate
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace

ZIPF = zipf_trace(num_objects=500, num_requests=8000, alpha=1.0, seed=5)
STR_TRACE = [f"obj:{k}" for k in ZIPF]
MIXED = [k if k % 3 else f"s{k}" for k in ZIPF]
_rng = random.Random(13)
SIZED = [(k, _rng.randint(1, 25)) for k in ZIPF]
#: Mostly unit-size: some samples keep no sized request at all, so the
#: cut must drop the sizes column exactly when compile_trace would.
RARE_SIZED = [(k, 9) if k % 97 == 3 else k for k in ZIPF]


@pytest.mark.parametrize(
    "items", [ZIPF, STR_TRACE, MIXED, SIZED],
    ids=["int-keys", "str-keys", "mixed-keys", "sized"],
)
@pytest.mark.parametrize("rate", [0.05, 0.25, 0.6, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 97])
def test_spatial_sample_compiled_pinned_to_scalar(items, rate, seed):
    scalar = spatial_sample(items, rate, seed=seed)
    vector = spatial_sample(compile_trace(items), rate, seed=seed)
    assert vector == scalar


@pytest.mark.parametrize(
    "items", [ZIPF, STR_TRACE, SIZED, RARE_SIZED, []],
    ids=["int-keys", "str-keys", "sized", "rare-sized", "empty"],
)
@pytest.mark.parametrize("rate", [0.05, 0.25, 1.0])
@pytest.mark.parametrize("seed", [0, 97])
def test_compiled_sample_equals_compiled_spatial_sample(items, rate, seed):
    """The sample cut from the id/size buffers is the compiled list
    sample, request for request: same ids, key table and sizes."""
    full = compile_trace(items)
    cut = _compiled_sample(full, rate, seed)
    ref = compile_trace(spatial_sample(full, rate, seed=seed))
    assert list(cut.keys) == list(ref.keys)
    assert cut.key_table == ref.key_table
    assert (cut.sizes is None) == (ref.sizes is None)
    if ref.sizes is not None:
        assert list(cut.sizes) == list(ref.sizes)
    assert list(cut) == list(ref)


def test_spatial_sample_empty_compiled_trace():
    assert spatial_sample(compile_trace([]), 0.5) == []


def test_spatial_sample_rejects_bad_rate():
    with pytest.raises(ValueError):
        spatial_sample(compile_trace(ZIPF), 0.0)
    with pytest.raises(ValueError):
        spatial_sample(compile_trace(ZIPF), 1.5)


def test_fifo_mrc_vector_matches_multisim():
    sizes = [8, 32, 128, 500]
    for policy in ("fifo", "sfifo"):
        multi = fifo_mrc(ZIPF, sizes, policy=policy, engine="multisim")
        vector = fifo_mrc(ZIPF, sizes, policy=policy, engine="vector")
        assert vector.sizes == multi.sizes
        assert vector.miss_ratios == multi.miss_ratios


def test_fifo_mrc_rejects_unknown_engine():
    with pytest.raises(ValueError):
        fifo_mrc(ZIPF, [8, 32], engine="warp")


def test_s3fifo_mrc_vector_is_exact():
    """engine="vector" must equal exact per-size re-simulation — no
    sampling error at all."""
    sizes = [16, 64, 256]
    curve = s3fifo_mrc(ZIPF, sizes, engine="vector")
    compiled = compile_trace(ZIPF)
    for size, ratio in zip(curve.sizes, curve.miss_ratios):
        exact = simulate(
            create_policy("s3fifo", size), compiled, engine="scalar"
        )
        assert ratio == exact.miss_ratio, size


def test_s3fifo_mrc_rejects_unknown_engine():
    with pytest.raises(ValueError):
        s3fifo_mrc(ZIPF, [16], engine="warp")


def test_sampled_mrc_engine_passthrough():
    """The engine knob changes how each ensemble simulates, never what
    it computes: scalar and vector sampled curves are identical."""
    sizes = [16, 64, 256]
    scalar = sampled_mrc(
        "s3fifo", ZIPF, sizes, rate=0.3, seed=3, ensembles=2,
        engine="scalar",
    )
    vector = sampled_mrc(
        "s3fifo", ZIPF, sizes, rate=0.3, seed=3, ensembles=2,
        engine="vector",
    )
    assert scalar.sizes == vector.sizes
    assert scalar.miss_ratios == vector.miss_ratios
