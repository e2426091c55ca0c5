"""Tests for the MR baseline (repro.baselines) and JE, which is MUST over
the target modality alone, weight 1."""
import numpy as np
import pytest

from repro.ann.bruteforce import topk_numpy
from repro.baselines.mr import fit_mr
from repro.core.must import fit_must
from repro.datasets import mitstates_lite
from repro.eval.metrics import recall_at_k


@pytest.fixture(scope="module")
def ds():
    return mitstates_lite(("clip", "lstm"), n=400, nq=40)


def test_mr_brute_candidates_are_per_modality_exact(spark, ds):
    """MR-- top-1 per modality must contain each modality's exact best."""
    mr = fit_mr(spark, ds.obj_mats, brute=True)
    out = mr.search(list(ds.qry_mats), k=5, l_cand=30)
    ex0, _ = topk_numpy([ds.qry_mats[0]], [ds.obj_mats[0]], [1.0], 30)
    ex1, _ = topk_numpy([ds.qry_mats[1]], [ds.obj_mats[1]], [1.0], 30)
    # every returned object came from one of the candidate streams
    for j in range(ds.nq):
        got = set(out.ids[j][out.ids[j] >= 0])
        assert got <= set(ex0[j]) | set(ex1[j])


def test_mr_intersection_ranked_first(spark, ds):
    mr = fit_mr(spark, ds.obj_mats, brute=True)
    out = mr.search(list(ds.qry_mats), k=10, l_cand=50)
    ex0, _ = topk_numpy([ds.qry_mats[0]], [ds.obj_mats[0]], [1.0], 50)
    ex1, _ = topk_numpy([ds.qry_mats[1]], [ds.obj_mats[1]], [1.0], 50)
    for j in range(5):
        inter = set(ex0[j]) & set(ex1[j])
        if not inter:
            continue
        res = out.ids[j][out.ids[j] >= 0]
        n_inter = len(inter)
        # all intersection members precede any union-only member
        inter_positions = [i for i, o in enumerate(res) if o in inter]
        assert inter_positions == list(range(min(n_inter, len(res))))[: len(inter_positions)]


def test_mr_single_modality_equals_topk(spark, ds):
    mr = fit_mr(spark, ds.obj_mats, brute=True)
    out = mr.search([ds.qry_mats[0], None], k=5, l_cand=5)
    exact, _ = topk_numpy([ds.qry_mats[0]], [ds.obj_mats[0]], [1.0], 5)
    np.testing.assert_array_equal(out.ids, exact)


def test_mr_all_query_modalities_absent_is_an_error(spark, ds):
    """Same error as ``Must.search``, not an ``IndexError``."""
    mr = fit_mr(spark, ds.obj_mats, brute=True)
    with pytest.raises(ValueError, match="every query modality is None"):
        mr.search([None, None], k=5, l_cand=5)


def test_mr_graph_close_to_brute(spark, ds):
    brute = fit_mr(spark, ds.obj_mats, brute=True)
    graph = fit_mr(spark, ds.obj_mats, gamma=10, eps=3)
    ob = brute.search(list(ds.qry_mats), k=10, l_cand=40)
    og = graph.search(list(ds.qry_mats), k=10, l_cand=40)
    rb = recall_at_k(ob.ids, ds.gt, 10)
    rg = recall_at_k(og.ids, ds.gt, 10)
    assert abs(rb - rg) < 0.2


@pytest.mark.parametrize("brute", [True, False])
def test_mr_reports_kernel_seconds(spark, ds, monkeypatch, brute):
    """``stats["compute_s"]`` is the sum of the sub-searches' kernel
    seconds: MR--'s one stacked scan, graph MR's t searches. Each
    sub-search's seconds are replaced by a power of two, so the sum
    shows which ones were added."""
    from repro.baselines import mr as mr_mod

    seconds = []

    class TaggedMust(mr_mod.Must):
        def search(self, *args, **kwargs):
            out = super().search(*args, **kwargs)
            assert out.stats["compute_s"] > 0
            seconds.append(2.0 ** len(seconds))
            out.stats["compute_s"] = seconds[-1]
            return out

    mr = fit_mr(spark, ds.obj_mats, brute=brute, gamma=8, eps=2)
    monkeypatch.setattr(mr_mod, "Must", TaggedMust)
    out = mr.search(list(ds.qry_mats), k=5, l_cand=20)
    assert seconds == ([1.0] if brute else [1.0, 2.0])
    assert out.stats["compute_s"] == sum(seconds)


def test_mr_build_has_one_index_per_modality(spark, ds):
    mr = fit_mr(spark, ds.obj_mats, gamma=8, eps=1)
    assert len(mr.indexes) == ds.m
    assert mr.nbytes() > 0
    assert mr.build_seconds > 0


def test_je_equals_single_modality_topk(spark, ds):
    je = fit_must(spark, [ds.obj_mats[0]], weights=[1.0], brute=True)
    out = je.search([ds.qry_mats[0]], k=5, l=5)
    exact, _ = topk_numpy([ds.qry_mats[0]], [ds.obj_mats[0]], [1.0], 5)
    np.testing.assert_array_equal(out.ids, exact)


def test_je_graph_close_to_brute(spark, ds):
    je_b = fit_must(spark, [ds.obj_mats[0]], weights=[1.0], brute=True)
    je_g = fit_must(spark, [ds.obj_mats[0]], weights=[1.0], gamma=10, eps=3)
    exact = je_b.search([ds.qry_mats[0]], k=10, l=10).ids
    got = je_g.search([ds.qry_mats[0]], k=10, l=150).ids
    assert recall_at_k(got, exact, 10) > 0.9


def test_mr_worse_than_joint_on_mitstates(spark, ds):
    """The paper's core claim at micro-scale: intersection merging loses
    to joint weighted search."""
    mr = fit_mr(spark, ds.obj_mats, brute=True)
    mr_out = mr.search(list(ds.qry_mats), k=10, l_cand=50)
    must = fit_must(spark, ds.obj_mats, weights=[0.3, 0.7], brute=True)
    must_out = must.search(ds.qry_mats, k=10)
    assert recall_at_k(must_out.ids, ds.gt, 10) >= recall_at_k(mr_out.ids, ds.gt, 10)
