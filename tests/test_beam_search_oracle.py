"""Differential tests: the lockstep kernel against its oracle.

``repro.ann.beam_search.beam_search_batch`` (pool-aligned state,
insertion merge) must return exactly what the argsort-merge kernel kept
in ``tests/reference_beam_search.py`` returns: the same ids, the same
float64 IPs and the same four effort counters.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.beam_search import beam_search_batch
from repro.ann.distance import normalize
from repro.core.fused_index import build_fused_index
from repro.datasets import imagetext, mscoco_lite
from tests.reference_beam_search import beam_search_batch as reference_batch

COUNTERS = ("n_expanded", "n_candidates", "n_dots", "n_dots_saved")


def run_split(kernel, args, qids, sizes, **kw):
    """``kernel`` over ``qids`` in consecutive chunks of ``sizes``
    (cycled); ids, IPs and counters concatenated / summed."""
    ids, ips, stats = [], [], dict.fromkeys(COUNTERS, 0)
    start, sizes = 0, itertools.cycle(sizes)
    while start < len(qids):
        chunk = qids[start : start + next(sizes)]
        out = kernel(*args, chunk, **kw)
        ids.append(out[0])
        ips.append(out[1])
        for c in COUNTERS:
            stats[c] += getattr(out[2], c)
        start += len(chunk)
    return np.concatenate(ids), np.concatenate(ips), stats


def assert_same(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


@st.composite
def searches(draw):
    """A random search problem: padded adjacency with a ring in column 0
    (every vertex reachable), duplicated object rows (exact ties), zero
    weights and absent query modalities."""
    n = draw(st.integers(1, 80))
    m = draw(st.sampled_from([1, 2, 3]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = g.integers(2, 6, size=m)
    obj = [normalize(g.standard_normal((n, d))).astype(np.float32) for d in dims]
    if draw(st.booleans()):
        dst = g.integers(0, n, size=n // 2)
        src = g.integers(0, n, size=n // 2)
        for a in obj:
            a[dst] = a[src]
    nq = draw(st.integers(1, 12))
    qry = [
        None if draw(st.booleans()) and draw(st.booleans())
        else normalize(g.standard_normal((nq, d))).astype(np.float32)
        for d in dims
    ]
    weights = [draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0])) for _ in range(m)]
    width = draw(st.integers(1, 8))
    nbrs = g.integers(-1, n, size=(n, width)).astype(np.int32)
    nbrs[:, 0] = (np.arange(n) + 1) % n
    seed_vertex = int(g.integers(0, n))
    k = draw(st.integers(1, n + 5))
    l = draw(st.integers(1, n + 10))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    return (qry, obj, weights, nbrs, seed_vertex, k, l), nq, sizes


@given(searches(), st.booleans(), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_matches_reference_kernel(problem, optimize, rng_base):
    args, nq, sizes = problem
    qids = np.arange(nq)
    kw = dict(rng_base=rng_base, optimize=optimize)
    want = run_split(reference_batch, args, qids, [nq], **kw)
    assert_same(run_split(beam_search_batch, args, qids, sizes, **kw), want)


# The benchmark's two configurations (γ=24, ε=3): interactive search at
# m=2, l=100, and bulk search at m=3, l=400 with Lemma 4.
PERF_CONFIGS = {
    "imagetext-m2": (
        lambda: imagetext(2000, ("resnet50", "lstm"), nq=256, seed=0), (0.8, 0.75), 100
    ),
    "mscoco-m3": (
        lambda: mscoco_lite(("resnet50", "gru", "resnet50"), n=2000, nq=256, seed=0),
        (0.5, 0.3, 0.2), 400,
    ),
}


@pytest.mark.parametrize("config", sorted(PERF_CONFIGS))
def test_matches_reference_kernel_on_benchmark_configs(spark, config):
    make, w, l = PERF_CONFIGS[config]
    ds = make()
    index = build_fused_index(spark, ds.obj_mats, w, gamma=24, eps=3, seed=0)
    args = (ds.qry_mats, ds.obj_mats, list(index.weights), index.graph.nbrs,
            index.graph.seed_vertex, 10, l)
    qids = np.arange(ds.nq)
    want = run_split(reference_batch, args, qids, [32], rng_base=1)
    assert want[2]["n_dots_saved"] > 0  # Lemma 4 is exercised
    for batch in (32, 256):
        assert_same(run_split(beam_search_batch, args, qids, [batch], rng_base=1), want)
