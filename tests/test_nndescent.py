"""Tests for distributed NNDescent (repro.ann.nndescent)."""
import numpy as np
import pytest

from repro.ann.distance import concat_weighted, normalize
from repro.ann.nndescent import (
    build_knn_graph,
    graph_quality,
    init_random,
    nndescent_pass,
)
from tests.reference_nndescent import reference_pass
from tests.test_pruning import BENCH_DATA


def vecs(n=400, d=16, seed=0):
    return normalize(np.random.default_rng(seed).standard_normal((n, d)))


@pytest.mark.parametrize("n,gamma", [(10, 3), (100, 8), (50, 49)])
def test_init_random_no_self_loops(n, gamma):
    nbrs = init_random(n, gamma, seed=1)
    assert nbrs.shape == (n, gamma)
    row = np.arange(n)[:, None]
    assert np.all(nbrs != row)
    assert nbrs.min() >= 0 and nbrs.max() < n


def test_init_random_deterministic():
    np.testing.assert_array_equal(init_random(30, 5, 7), init_random(30, 5, 7))


def test_quality_improves_with_iterations(spark):
    v = vecs()
    q = []
    for eps in (0, 1, 3):
        nbrs = build_knn_graph(spark, v, gamma=10, eps=eps, seed=0)
        q.append(graph_quality(v, nbrs, sample=200))
    assert q[0] < q[1] <= q[2] + 1e-9
    assert q[2] > 0.9  # paper Tab. XI: ~0.99 at eps=3


def test_single_pass_monotone_improvement(spark):
    v = vecs(300)
    b = spark.sparkContext.broadcast(v)
    nbrs = init_random(300, 8, seed=0)
    q0 = graph_quality(v, nbrs, sample=150)
    nbrs2 = nndescent_pass(spark, b, nbrs, 8)
    q1 = graph_quality(v, nbrs2, sample=150)
    b.destroy()
    assert q1 > q0


def test_pass_keeps_shape_and_validity(spark):
    v = vecs(200)
    b = spark.sparkContext.broadcast(v)
    nbrs = nndescent_pass(spark, b, init_random(200, 6, 0), 6)
    b.destroy()
    assert nbrs.shape == (200, 6)
    valid = nbrs[nbrs >= 0]
    assert valid.max() < 200
    assert np.all(nbrs != np.arange(200)[:, None])


def test_neighbors_sorted_by_similarity(spark):
    v = vecs(150)
    nbrs = build_knn_graph(spark, v, gamma=6, eps=2, seed=0)
    for o in range(0, 150, 30):
        row = nbrs[o][nbrs[o] >= 0]
        ips = v[row] @ v[o]
        assert np.all(np.diff(ips) <= 1e-6)


def test_deterministic_across_runs(spark):
    v = vecs(150)
    a = build_knn_graph(spark, v, gamma=6, eps=2, seed=3)
    b = build_knn_graph(spark, v, gamma=6, eps=2, seed=3)
    np.testing.assert_array_equal(a, b)


def test_gamma_clipped_to_n_minus_1(spark):
    v = vecs(10)
    nbrs = build_knn_graph(spark, v, gamma=30, eps=1, seed=0)
    assert nbrs.shape[1] == 9


def test_graph_quality_perfect_for_exact_knn():
    v = vecs(100)
    ips = v @ v.T
    np.fill_diagonal(ips, -np.inf)
    exact = np.argsort(-ips, axis=1)[:, :5].astype(np.int32)
    assert graph_quality(v, exact, sample=100) == pytest.approx(1.0)


def assert_sweeps_match_reference(spark, v, gamma, seed, eps=3):
    """``eps`` sweeps from ``init_random``: each distributed sweep equals
    the reference kernel's sweep of the same lists."""
    b = spark.sparkContext.broadcast(v)
    try:
        nbrs = init_random(v.shape[0], gamma, seed)
        for sweep in range(eps):
            got = nndescent_pass(spark, b, nbrs, gamma)
            want = reference_pass(v, nbrs, gamma)
            bad = np.flatnonzero((got != want).any(axis=1))
            assert not len(bad), f"sweep {sweep}, vertex {bad[0]}: {got[bad[0]]} != {want[bad[0]]}"
            nbrs = got
    finally:
        b.destroy()


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", sorted(BENCH_DATA))
def test_pass_matches_reference(spark, name, seed):
    """The two benchmark datasets under their fixed user weights, gamma=24."""
    gen, w = BENCH_DATA[name]
    assert_sweeps_match_reference(spark, concat_weighted(gen(seed).obj_mats, w), 24, seed)


def test_pass_matches_reference_with_exact_ties(spark):
    """Duplicate vectors give exactly equal IPs, also at the gamma boundary;
    the selection is the reference's own code, so the rows are equal."""
    g = np.random.default_rng(3)
    v = g.standard_normal((400, 12))
    v[30:60] = v[0:30]  # 30 duplicated pairs
    v[100:120] = v[100]  # a cluster of 20 identical vectors, wider than gamma
    assert_sweeps_match_reference(spark, normalize(v), 10, seed=0)
