"""Tests for the MUST facade (repro.core.must)."""
import functools

import numpy as np
import pytest

from repro import spark_map
from repro.ann.bruteforce import topk_numpy, topk_scan
from repro.ann.distance import check_objects, normalize
from repro.baselines.mr import fit_mr
from repro.core.fused_index import build_fused_index
from repro.core.must import fit_must
from repro.core.weights import learn_weights
from repro.datasets import mitstates_lite
from repro.eval.metrics import recall_at_k


@pytest.fixture(scope="module")
def ds():
    return mitstates_lite(("resnet50", "lstm"), n=400, nq=40)


def test_fit_with_explicit_weights(spark, ds):
    model = fit_must(spark, ds.obj_mats, weights=[0.3, 0.7], gamma=8, eps=2)
    np.testing.assert_allclose(model.weights, [0.3, 0.7])
    assert model.index is not None


def test_fit_uniform_default(spark, ds):
    model = fit_must(spark, ds.obj_mats, brute=True)
    np.testing.assert_allclose(model.weights, [0.5, 0.5])


def test_brute_search_equals_numpy(spark, ds):
    w = [0.4, 0.6]
    model = fit_must(spark, ds.obj_mats, weights=w, brute=True)
    out = model.search(ds.qry_mats, k=5)
    exact, vals = topk_numpy(ds.qry_mats, ds.obj_mats, w, 5)
    np.testing.assert_array_equal(out.ids, exact)
    np.testing.assert_allclose(out.ips, vals, rtol=1e-4)


def test_index_search_close_to_brute(spark, ds):
    w = [0.4, 0.6]
    brute = fit_must(spark, ds.obj_mats, weights=w, brute=True)
    idx = fit_must(spark, ds.obj_mats, weights=w, gamma=10, eps=3)
    exact = brute.search(ds.qry_mats, k=10).ids
    out = idx.search(ds.qry_mats, k=10, l=200)
    assert recall_at_k(out.ids, exact, 10) > 0.95


def test_user_weights_change_ranking(spark, ds):
    a = fit_must(spark, ds.obj_mats, weights=[0.95, 0.05], brute=True)
    b = fit_must(spark, ds.obj_mats, weights=[0.05, 0.95], brute=True)
    ra = a.search(ds.qry_mats, k=1).ids[:, 0]
    rb = b.search(ds.qry_mats, k=1).ids[:, 0]
    assert np.mean(ra != rb) > 0.3


def test_brute_search_with_absent_modality(spark, ds):
    w = [0.4, 0.6]
    model = fit_must(spark, ds.obj_mats, weights=w, brute=True)
    out = model.search([None, ds.qry_mats[1]], k=5)
    exact, _ = topk_numpy([None, ds.qry_mats[1]], ds.obj_mats, w, 5)
    np.testing.assert_array_equal(out.ids, exact)


@pytest.fixture(scope="module")
def tiny(spark):
    """30 objects, 9 queries, m=2; one model per search path."""
    g = np.random.default_rng(3)
    obj = [normalize(g.standard_normal((30, 6))), normalize(g.standard_normal((30, 4)))]
    qry = [normalize(g.standard_normal((9, 6))), normalize(g.standard_normal((9, 4)))]
    w = [0.4, 0.6]
    models = {
        "index": fit_must(spark, obj, weights=w, gamma=6, eps=2),
        "brute": fit_must(spark, obj, weights=w, brute=True),
    }
    return qry, obj, w, models


@pytest.mark.parametrize("path", ["index", "brute"])
def test_empty_query_batch(spark, tiny, path):
    qry, _, _, models = tiny
    out = models[path].search([m[:0] for m in qry], k=5)
    assert out.ids.shape == out.ips.shape == (0, 5)


@pytest.mark.parametrize("path", ["index", "brute"])
def test_search_reports_kernel_seconds(spark, tiny, path):
    """Both paths report their summed in-worker kernel time, the
    paper's tau (Tab. VII measures ``MUST--`` through this)."""
    qry, _, _, models = tiny
    assert models[path].search(qry, k=5).stats["compute_s"] > 0


@pytest.mark.parametrize("path", ["index", "brute"])
def test_all_query_modalities_absent_is_an_error(spark, tiny, path):
    _, _, _, models = tiny
    with pytest.raises(ValueError, match="every query modality is None"):
        models[path].search([None, None], k=5)


@pytest.mark.parametrize("path", ["index", "brute"])
def test_k_above_n_pads(spark, tiny, path):
    """k > n: all n objects in exact order (l >= n on a connected graph),
    then -1 ids with -inf IPs."""
    qry, obj, w, models = tiny
    out = models[path].search(qry, k=40)
    exact, vals = topk_numpy(qry, obj, w, 30)
    np.testing.assert_array_equal(out.ids[:, :30], exact)
    np.testing.assert_allclose(out.ips[:, :30], vals, rtol=1e-4)
    assert (out.ids[:, 30:] == -1).all() and (out.ips[:, 30:] == -np.inf).all()


def test_brute_search_any_batch_size(spark, ds, monkeypatch):
    """With one id per task the id frame has min(defaultParallelism, nq)
    partitions; results do not depend on it."""
    monkeypatch.setattr(spark_map, "MIN_IDS_PER_TASK", 1)
    w = [0.4, 0.6]
    model = fit_must(spark, ds.obj_mats, weights=w, brute=True)
    parts = spark.sparkContext.defaultParallelism
    for nq in sorted({1, max(1, parts - 1), parts + 3, 40}):
        qry = [m[:nq] for m in ds.qry_mats]
        exact, _ = topk_numpy(qry, ds.obj_mats, w, 5)
        np.testing.assert_array_equal(model.search(qry, k=5).ids, exact)


@pytest.fixture
def no_spark_job(monkeypatch):
    """Every Spark op goes through ``spark_map.lazy``: make it fail the
    test, so a contract error is seen to come before any job."""

    def job(*args, **kwargs):
        raise AssertionError("a Spark job ran before the input was rejected")

    monkeypatch.setattr(spark_map, "lazy", job)


def _bad_build_inputs():
    g = np.random.default_rng(5)
    obj = [normalize(g.standard_normal((20, 6))), normalize(g.standard_normal((20, 4)))]
    long_row = [obj[0], obj[1].copy()]
    long_row[1][7] *= 1.01
    return {
        "negative weight": (obj, [-0.5, 1.0], "weights"),
        "nan weight": (obj, [np.nan, 1.0], "weights"),
        "inf weight": (obj, [np.inf, 1.0], "weights"),
        "too few weights": (obj, [1.0], "weights"),
        "too many weights": (obj, [0.5, 0.3, 0.2], "weights"),
        "row counts differ": ([obj[0], obj[1][:19]], [0.5, 0.5], "row count"),
        "object norm > 1": (long_row, [0.5, 0.5], "object modality 1, row 7"),
    }


@pytest.mark.parametrize("case", list(_bad_build_inputs()))
@pytest.mark.parametrize("brute", [False, True])
def test_fit_rejects_bad_build_inputs(spark, no_spark_job, case, brute):
    """Negative or non-finite weights, m mismatches, ragged modalities and
    object rows longer than 1 (Lemma 4 bounds IPs on both sides) raise
    ``ValueError`` before any Spark job, for the index and for MUST--, and
    the object cases for graph MR and MR--."""
    obj, w, match = _bad_build_inputs()[case]
    with pytest.raises(ValueError, match=match):
        fit_must(spark, obj, weights=w, brute=brute, gamma=6, eps=2)
    if not brute:
        with pytest.raises(ValueError, match=match):
            build_fused_index(spark, obj, w, gamma=6, eps=2)
    if match != "weights":  # MR takes no weights
        with pytest.raises(ValueError, match=match):
            fit_mr(spark, obj, brute=brute, gamma=6, eps=2)


@pytest.mark.parametrize("brute", [False, True])
def test_fit_rejects_no_object_modality(spark, no_spark_job, brute):
    """An empty modality list is the contract's error, before any Spark
    job, not a division by m = 0 in the uniform weights."""
    with pytest.raises(ValueError, match="at least one object modality"):
        fit_must(spark, [], brute=brute, gamma=6, eps=2)
    with pytest.raises(ValueError, match="at least one object modality"):
        fit_mr(spark, [], brute=brute, gamma=6, eps=2)


@pytest.mark.parametrize("brute", [False, True])
def test_fit_checks_objects_once(spark, tiny, monkeypatch, brute):
    """One ``check_objects`` call per fit: ``build_fused_index`` makes it
    on the index path, ``fit_must`` itself for ``MUST--``."""
    from repro.core import fused_index, must

    _, obj, w, _ = tiny
    calls = []

    def counting(obj_mats):
        calls.append(len(obj_mats))
        return check_objects(obj_mats)

    for module in (must, fused_index):
        monkeypatch.setattr(module, "check_objects", counting)
    fit_must(spark, obj, weights=w, brute=brute, gamma=6, eps=2)
    assert calls == [2]


@pytest.mark.parametrize(
    "case", ["query columns", "query rows", "negative weight", "object norm > 1"])
def test_scan_rejects_bad_inputs(spark, no_spark_job, case):
    """``topk_scan`` is also called directly, by weight learning's mining
    scan and the benchmark's DuckDB check: a query/object shape mismatch,
    a bad weight or an object row longer than 1 raises ``ValueError``
    before any job, not as a worker exception; a bad anchor batch in
    ``learn_weights`` too."""
    g = np.random.default_rng(8)
    obj = [normalize(g.standard_normal((20, 6))), normalize(g.standard_normal((20, 4)))]
    q0, q1 = [m[:5] for m in obj]
    long_row = [obj[0], obj[1].copy()]
    long_row[1][7] *= 1.01
    qry, obj, w, match = {
        "query columns": ([q0, np.pad(q1, ((0, 0), (0, 1)))], obj, [0.5, 0.5],
                          "query modality 1 has shape"),
        "query rows": ([q0, q1[:3]], obj, [0.5, 0.5], "query modality 1 has shape"),
        "negative weight": ([q0, q1], obj, [-0.5, 1.0], "weights"),
        "object norm > 1": ([q0, q1], long_row, [0.5, 0.5], "object modality 1, row 7"),
    }[case]
    with pytest.raises(ValueError, match=match):
        topk_scan(spark, qry, obj, w, 3)
    if case.startswith("query"):
        with pytest.raises(ValueError, match=match):
            learn_weights(spark, qry, obj, np.arange(5), epochs=1)


def _bad_learning_inputs():
    g = np.random.default_rng(9)
    obj = [normalize(g.standard_normal((20, 6))), normalize(g.standard_normal((20, 4)))]
    qry = [m[:5] for m in obj]
    nan_row, long_row = [obj[0], obj[1].copy()], [obj[0], obj[1].copy()]
    nan_row[1][7] = np.nan
    long_row[1][7] *= 2.0
    return {
        "object row counts differ": (qry, [obj[0], obj[1][:15]], "row count"),
        "object row nan": (qry, nan_row, "object modality 1, row 7"),
        "object norm 2": (qry, long_row, "object modality 1, row 7"),
        "anchor columns": ([qry[0], np.pad(qry[1], ((0, 0), (0, 1)))], obj,
                           "query modality 1 has shape"),
        "anchor rows": ([qry[0], qry[1][:3]], obj, "query modality 1 has shape"),
    }


@pytest.mark.parametrize("case,hard", [
    ("object row counts differ", True), ("object row counts differ", False),
    ("object row nan", True), ("object row nan", False),
    ("object norm 2", True), ("object norm 2", False),
    ("anchor columns", False), ("anchor rows", False),
])
def test_learn_weights_checks_objects_and_anchors(no_spark_job, case, hard):
    """``learn_weights`` checks every object row and the anchor shapes
    before any job, with hard or random negatives. The bad object row
    (7) lies outside the true set T = {0..4}, which is all the mining
    scan sees; random negatives run no scan at all."""
    qry, obj, match = _bad_learning_inputs()[case]
    with pytest.raises(ValueError, match=match):
        learn_weights(None, qry, obj, np.arange(5), epochs=2, hard_negatives=hard)


@pytest.mark.parametrize("hard", [True, False])
@pytest.mark.parametrize("absent", [0, 1])
def test_learn_weights_rejects_an_absent_anchor_modality(no_spark_job, hard, absent):
    """Every anchor needs every modality: an absent one (``None``) would
    get no gradient. It raises ``ValueError`` before any job, not a
    ``TypeError`` from the finiteness check."""
    g = np.random.default_rng(10)
    obj = [normalize(g.standard_normal((20, 6))), normalize(g.standard_normal((20, 4)))]
    qry = [m[:5] for m in obj]
    qry[absent] = None
    with pytest.raises(ValueError, match=f"anchor modality {absent} is None"):
        learn_weights(None, qry, obj, np.arange(5), epochs=2, hard_negatives=hard)


def test_zero_object_rows_pass_the_build_contract(spark):
    g = np.random.default_rng(7)
    obj = [normalize(g.standard_normal((20, 6))), normalize(g.standard_normal((20, 4)))]
    obj[1][:2] = 0.0
    model = fit_must(spark, obj, weights=[0.5, 0.5], gamma=6, eps=2)
    assert model.index.graph.nbrs.shape[0] == 20


@pytest.mark.parametrize("case", ["more rows", "fewer rows", "columns"])
@pytest.mark.parametrize("path", ["index", "brute", "mr"])
def test_search_rejects_bad_query_shapes(spark, tiny, no_spark_job, path, case):
    """A query modality with another row count than the others (unchecked,
    it would be cut to the first rows, or fail inside a worker) or another
    column count than its object modality raises ``ValueError`` before any
    job, in ``Must.search`` (index and MUST--) and ``MR.search``."""
    qry, obj, _, models = tiny
    q0, q1 = qry
    bad = {
        "more rows": [q0, np.concatenate([q1, q1[:2]])],
        "fewer rows": [q0, q1[:-2]],
        "columns": [q0, np.pad(q1, ((0, 0), (0, 1)))],
    }[case]
    if path == "mr":
        search = functools.partial(fit_mr(spark, obj, brute=True).search, l_cand=5)
    else:
        search = models[path].search
    with pytest.raises(ValueError, match="query modality 1 has shape"):
        search(bad, k=5)
