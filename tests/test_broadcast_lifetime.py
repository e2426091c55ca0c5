"""Every broadcast a distributed pass creates is released, also when the
Spark job fails (a worker raising on an out-of-range id), and the exact
scan's broadcasts once its consumer releases the lazy DataFrame."""
import gc

import numpy as np
import pytest
from pyspark.errors import PythonException

from repro import spark_map
from repro.ann import bruteforce, nndescent
from repro.ann.bruteforce import topk_scan
from repro.ann.distance import normalize
from repro.ann.graphs import GraphIndex
from repro.ann.nndescent import build_knn_graph, nndescent_pass
from repro.ann.pruning import select_neighbors
from repro.baselines.mr import fit_mr
from repro.core.fused_index import FusedIndex
from repro.core.joint_search import joint_search
from repro.core.must import Must
from repro.core.weights import learn_weights
from repro.eval import tables

pytestmark = pytest.mark.filterwarnings("ignore:toPandas attempted Arrow optimization:UserWarning")

N = 60


@pytest.fixture
def created(spark, monkeypatch):
    """The broadcasts made through ``SparkContext.broadcast`` during a test."""
    sc = spark.sparkContext
    made = []
    orig = sc.broadcast

    def spy(value):
        b = orig(value)
        made.append(b)
        return b

    monkeypatch.setattr(sc, "broadcast", spy)
    return made


@pytest.fixture(scope="module")
def vecs():
    return normalize(np.random.default_rng(0).standard_normal((N, 8)))


def bad_graph(width=4):
    """A kNN-shaped adjacency whose first row names a vertex that does not exist."""
    g = np.tile(np.arange(1, width + 1, dtype=np.int32), (N, 1))
    g[0, 0] = 10 * N
    return g


def assert_all_destroyed(made, expected):
    assert len(made) == expected
    for b in made:
        assert not b._jbroadcast.isValid()


def test_select_neighbors_releases_on_failure(spark, vecs, created):
    vecs_b = spark.sparkContext.broadcast(vecs)  # the caller's; not released here
    created.clear()
    try:
        with pytest.raises(PythonException):
            select_neighbors(spark, vecs_b, (bad_graph(),), 4)
        assert_all_destroyed(created, 1)  # knn
    finally:
        vecs_b.destroy()


def test_nndescent_pass_releases_on_failure(spark, vecs, created):
    short_b = spark.sparkContext.broadcast(vecs[:10])  # too few rows for the ids
    created.clear()
    try:
        nbrs = nndescent.init_random(N, 4, seed=0)
        with pytest.raises(PythonException):
            nndescent_pass(spark, short_b, nbrs, 4)
        assert_all_destroyed(created, 2)  # nbrs, reverse nbrs
    finally:
        short_b.destroy()


def test_build_knn_graph_releases_its_vectors_on_failure(spark, vecs, created, monkeypatch):
    def failing_pass(*args):
        raise RuntimeError("pass failed")

    monkeypatch.setattr(nndescent, "nndescent_pass", failing_pass)
    with pytest.raises(RuntimeError):
        build_knn_graph(spark, vecs, gamma=4, eps=2)
    assert_all_destroyed(created, 1)  # its own vector broadcast


def test_table11_releases_its_vectors_on_failure(spark, created, monkeypatch):
    def failing_collect(*args):
        raise RuntimeError("pass failed")

    monkeypatch.setattr(spark_map, "collect", failing_collect)
    with pytest.raises(RuntimeError):
        tables.table11_graph_quality(spark, n=N, gamma=4)
    assert_all_destroyed(created, 1)  # the dataset's vectors


def test_joint_search_releases_on_failure(spark, vecs, created):
    index = FusedIndex(
        graph=GraphIndex(nbrs=bad_graph(), seed_vertex=0), weights=np.array([0.5, 0.5])
    )
    obj = [vecs[:, :4], vecs[:, 4:]]
    with pytest.raises(PythonException):
        joint_search(spark, [m[:5] for m in obj], obj, index, k=3, l=8)
    assert_all_destroyed(created, 3)  # objects, queries, adjacency


def test_passes_release_on_success(spark, vecs, created):
    knn = build_knn_graph(spark, vecs, gamma=4, eps=1)
    vecs_b = spark.sparkContext.broadcast(vecs)
    select_neighbors(spark, vecs_b, (knn,), 4)
    vecs_b.destroy()
    assert_all_destroyed(created, 5)  # vectors, nbrs, reverse nbrs, vectors, knn


def test_topk_scan_released_explicitly(spark, vecs, created):
    obj = [vecs[:, :4], vecs[:, 4:]]
    df = topk_scan(spark, [m[:5] for m in obj], obj, [0.5, 0.5], 3)
    df.toPandas()
    assert all(b._jbroadcast.isValid() for b in created)
    spark_map.release(df)
    assert_all_destroyed(created, 2)  # queries, objects


def test_frame_derived_from_a_temporary_scan_runs(spark, vecs):
    """Why the scan's broadcasts are not tied to the DataFrame object's
    lifetime: a frame derived from it outlives a temporary scan."""
    obj = [vecs[:, :4], vecs[:, 4:]]
    derived = topk_scan(spark, [m[:5] for m in obj], obj, [0.5, 0.5], 3).select("qid", "oid")
    gc.collect()
    assert len(derived.toPandas()) == 15


def test_scan_consumers_release(spark, vecs, created):
    obj = [vecs[:, :4], vecs[:, 4:]]
    Must(spark=spark, obj_mats=obj, weights=np.array([0.5, 0.5]), index=None).search(
        [m[:5] for m in obj], k=3
    )
    learn_weights(spark, [m[:5] for m in obj], obj, np.arange(5), epochs=2)
    assert_all_destroyed(created, 2 + 2 * 2)  # MUST-- scan, two mining scans


def test_mr_brute_releases(spark, vecs, created):
    obj = [vecs[:, :4], vecs[:, 4:]]
    fit_mr(spark, obj, brute=True).search([m[:5] for m in obj], k=3, l_cand=4)
    assert_all_destroyed(created, 2)  # stacked queries, objects


def test_mr_brute_releases_on_failure(spark, vecs, created, monkeypatch):
    def failing_topk(qry_mats, obj_mats, weights, k):
        raise RuntimeError("top-k failed")

    # the scan's kernel is shipped by value with this global in it
    monkeypatch.setattr(bruteforce, "topk_numpy", failing_topk)
    obj = [vecs[:, :4], vecs[:, 4:]]
    with pytest.raises(PythonException, match="top-k failed"):
        fit_mr(spark, obj, brute=True).search([m[:5] for m in obj], k=3, l_cand=4)
    assert_all_destroyed(created, 2)
