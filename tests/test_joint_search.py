"""Tests for the distributed joint search (repro.core.joint_search)."""
import numpy as np
import pytest

from repro.ann.beam_search import beam_search_batch
from repro.ann.bruteforce import topk_numpy
from repro.ann.distance import query_weights
from repro.core.fused_index import FusedIndex, build_fused_index
from repro.core import joint_search as js
from repro.core.joint_search import joint_search
from repro.datasets import mitstates_lite
from repro.eval.metrics import recall_at_k
from tests.reference_beam_search import beam_search


@pytest.fixture(scope="module")
def setup(spark):
    ds = mitstates_lite(("resnet50", "lstm"), n=400, nq=30)
    w = [0.4, 0.6]
    index = build_fused_index(spark, ds.obj_mats, w, gamma=10, eps=3, seed=0)
    return ds, w, index


def test_output_shapes(spark, setup):
    ds, w, index = setup
    out = joint_search(spark, ds.qry_mats, ds.obj_mats, index, 5, 50, seed=0)
    assert out.ids.shape == (30, 5)
    assert out.ips.shape == (30, 5)
    assert out.elapsed_s > 0 and out.qps > 0
    assert out.stats["n_expanded"] > 0


def test_matches_local_kernel(spark, setup):
    """The distributed job is exactly the per-query kernel fanned out."""
    ds, w, index = setup
    out = joint_search(spark, ds.qry_mats, ds.obj_mats, index, 5, 40, seed=3)
    for j in (0, 7, 29):
        ids, ips, _ = beam_search(
            [m[j] for m in ds.qry_mats], ds.obj_mats, index.weights,
            index.graph.nbrs, index.graph.seed_vertex, 5, 40,
            rng=np.random.default_rng((3 << 20) + j),
        )
        np.testing.assert_array_equal(out.ids[j], ids)


def test_high_recall_vs_exact(spark, setup):
    ds, w, index = setup
    exact, _ = topk_numpy(ds.qry_mats, ds.obj_mats, w, 10)
    out = joint_search(spark, ds.qry_mats, ds.obj_mats, index, 10, 200, seed=0)
    assert recall_at_k(out.ids, exact, 10) > 0.95


def test_absent_modality(spark, setup):
    ds, w, index = setup
    out = joint_search(
        spark, [ds.qry_mats[0], None], ds.obj_mats, index, 5, 300, seed=0
    )
    exact, _ = topk_numpy([ds.qry_mats[0], None], ds.obj_mats, w, 5)
    assert recall_at_k(out.ids, exact, 5) > 0.9


def test_optimize_flag_preserves_results(spark, setup):
    ds, w, index = setup
    a = joint_search(spark, ds.qry_mats, ds.obj_mats, index, 5, 60, optimize=True, seed=1)
    b = joint_search(spark, ds.qry_mats, ds.obj_mats, index, 5, 60, optimize=False, seed=1)
    np.testing.assert_array_equal(a.ids, b.ids)
    assert b.stats["n_dots_saved"] == 0


def test_optimize_saves_dots_with_dominant_modality(spark, setup):
    ds, _, _ = setup
    w = [0.9, 0.1]
    index = build_fused_index(spark, ds.obj_mats, w, gamma=10, eps=2, seed=0)
    out = joint_search(
        spark, ds.qry_mats, ds.obj_mats, index, 5, 20, optimize=True, seed=1
    )
    assert out.stats["n_dots_saved"] > 0


@pytest.mark.parametrize("batch", [1, 7])
def test_lockstep_batch_does_not_change_results(spark, setup, monkeypatch, batch):
    ds, _, index = setup
    whole = joint_search(spark, ds.qry_mats, ds.obj_mats, index, 5, 40, seed=2)
    monkeypatch.setattr(js, "_BATCH", batch)
    split = joint_search(spark, ds.qry_mats, ds.obj_mats, index, 5, 40, seed=2)
    np.testing.assert_array_equal(split.ids, whole.ids)
    np.testing.assert_array_equal(split.ips, whole.ips)


@pytest.mark.parametrize("size", [1, 7])
def test_query_calls_do_not_change_results(spark, setup, size):
    """The 30 queries as calls of ``size`` queries. A query's initial pool
    comes from an RNG keyed by its position in the call; at l >= n that
    pool holds every object, so its result cannot depend on the call."""
    ds, _, index = setup
    n = ds.obj_mats[0].shape[0]
    whole = joint_search(spark, ds.qry_mats, ds.obj_mats, index, 5, n, seed=2)
    outs = [
        joint_search(spark, [m[s : s + size] for m in ds.qry_mats], ds.obj_mats, index, 5, n, seed=2)
        for s in range(0, ds.nq, size)
    ]
    np.testing.assert_array_equal(np.concatenate([o.ids for o in outs]), whole.ids)
    np.testing.assert_array_equal(np.concatenate([o.ips for o in outs]), whole.ips)


def test_lemma4_needs_unit_norm_queries(spark, setup):
    """Lemma 4 prunes with the bound IP <= 1: a query scaled x3 loses true
    neighbors with the optimization on, so joint_search refuses it."""
    ds, _, index = setup
    rest = (index.graph.nbrs, index.graph.seed_vertex, 5, 5, np.arange(ds.nq))

    def ids(qry, optimize):
        return beam_search_batch(qry, ds.obj_mats, index.weights, *rest, optimize=optimize)[0]

    big = [3 * q for q in ds.qry_mats]
    np.testing.assert_array_equal(ids(ds.qry_mats, True), ids(ds.qry_mats, False))
    assert not np.array_equal(ids(big, True), ids(big, False))
    with pytest.raises(ValueError, match="norm"):
        joint_search(spark, big, ds.obj_mats, index, 5, 5)


def test_zero_query_rows_allowed(spark, setup):
    ds, _, index = setup
    qry = [q.copy() for q in ds.qry_mats]
    qry[1][:3] = 0.0
    out = joint_search(spark, qry, ds.obj_mats, index, 5, 40)
    assert (out.ids >= 0).all()


@pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
def test_weights_must_be_finite_and_nonnegative(spark, setup, bad):
    ds, _, index = setup
    with pytest.raises(ValueError, match="weights"):
        query_weights(ds.qry_mats, [0.5, bad], ds.obj_mats)
    bad_index = FusedIndex(graph=index.graph, weights=np.array([0.5, bad]))
    with pytest.raises(ValueError, match="weights"):
        joint_search(spark, ds.qry_mats, ds.obj_mats, bad_index, 5, 40)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_compute_s_sums_to_the_batch_kernel_time(monkeypatch, local_map, k):
    """``stats["compute_s"]`` is the kernel's time even when results are
    padded: with n = 4 and k = 6 each query has two ``-1`` slots, which
    are dropped before the batch's seconds are spread over its rows. Each
    ``perf_counter`` call advances one second, so the single batch takes
    exactly 1 s (run with the distributed map replaced by a local call)."""
    import itertools
    from types import SimpleNamespace

    from repro.ann.graphs import GraphIndex

    clock = itertools.count()
    monkeypatch.setattr(js, "time", SimpleNamespace(perf_counter=lambda: float(next(clock))))
    vecs = np.eye(4, dtype=np.float32)
    graph = GraphIndex(nbrs=np.array([[1], [2], [3], [0]], dtype=np.int32), seed_vertex=0)
    out = joint_search(None, [vecs], [vecs], FusedIndex(graph=graph, weights=np.ones(1)), k, 8)
    assert (out.ids >= 0).sum() == 4 * min(k, 4)
    assert out.stats["compute_s"] == 1.0
