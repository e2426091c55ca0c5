"""Tests for the fused index wrapper (repro.core.fused_index)."""
import numpy as np
import pytest
from pyspark import SparkContext
from pyspark.sql import SparkSession

from repro import spark_map
from repro.ann.distance import concat_weighted
from repro.core.fused_index import build_fused_index
from repro.datasets import mitstates_lite


@pytest.fixture(scope="module")
def ds():
    return mitstates_lite(("resnet50", "lstm"), n=300, nq=20)


def test_build_returns_weights_and_graph(spark, ds):
    idx = build_fused_index(spark, ds.obj_mats, [0.3, 0.7], gamma=8, eps=2)
    np.testing.assert_allclose(idx.weights, [0.3, 0.7])
    assert idx.graph.n == 300
    assert idx.build_seconds > 0
    assert idx.nbytes() == idx.graph.nbytes()


def test_neighbors_are_joint_similar(spark, ds):
    """Fused-index edges connect pairs with high *joint* similarity —
    the Fig. 11 property: neighbors balance both modalities."""
    w = [0.5, 0.5]
    idx = build_fused_index(spark, ds.obj_mats, w, gamma=8, eps=3)
    vecs = concat_weighted(ds.obj_mats, w)
    sims = vecs @ vecs.T
    np.fill_diagonal(sims, np.nan)
    edge_sims, rand_sims = [], []
    g = np.random.default_rng(0)
    for o in range(0, 300, 10):
        nbr = idx.graph.nbrs[o][idx.graph.nbrs[o] >= 0]
        edge_sims.extend(sims[o, nbr])
        rand_sims.extend(sims[o, g.integers(0, 300, len(nbr))])
    assert np.nanmean(edge_sims) > np.nanmean(rand_sims) + 0.1


def test_weights_change_graph(spark, ds):
    a = build_fused_index(spark, ds.obj_mats, [0.9, 0.1], gamma=8, eps=2)
    b = build_fused_index(spark, ds.obj_mats, [0.1, 0.9], gamma=8, eps=2)
    assert not np.array_equal(a.graph.nbrs, b.graph.nbrs)


def test_single_modality_index(spark, ds):
    idx = build_fused_index(spark, [ds.obj_mats[0]], [1.0], gamma=8, eps=2)
    assert idx.graph.n == 300


@pytest.mark.parametrize("variant", ["ours", "kgraph", "vamana"])
def test_variants_buildable(spark, ds, variant):
    idx = build_fused_index(
        spark, ds.obj_mats, [0.5, 0.5], gamma=8, eps=1, variant=variant
    )
    assert idx.graph.meta["variant"] == variant


def test_build_does_not_depend_on_partition_count(spark, ds, monkeypatch):
    """The same adjacency and seed vertex whether ``spark_map`` splits the
    ids into 1, 2, 3 or ``defaultParallelism`` partitions."""
    monkeypatch.setattr(spark_map, "MIN_IDS_PER_TASK", 1)
    ref = build_fused_index(spark, ds.obj_mats, [0.5, 0.5], gamma=8, eps=2)
    real_range = SparkSession.range
    for parts in (1, 2, 3):
        seen = []

        def spy_range(self, *args, **kwargs):
            seen.append(args[3])  # range(start, end, step, numPartitions)
            return real_range(self, *args, **kwargs)

        monkeypatch.setattr(SparkContext, "defaultParallelism", property(lambda sc, p=parts: p))
        monkeypatch.setattr(SparkSession, "range", spy_range)
        idx = build_fused_index(spark, ds.obj_mats, [0.5, 0.5], gamma=8, eps=2)
        assert set(seen) == {parts}
        np.testing.assert_array_equal(idx.graph.nbrs, ref.graph.nbrs)
        assert idx.graph.seed_vertex == ref.graph.seed_vertex
