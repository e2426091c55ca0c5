"""Differential tests: MR against its oracle.

``repro.baselines.mr`` runs MR-- as one stacked exact scan and merges the
candidate lists with array ops. It must return exactly the ids of the
per-modality searches and dict merge kept in ``tests/reference_mr.py``.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.mr import fit_mr, merge_candidates
from repro.datasets import imagetext, mscoco_lite
from tests.reference_mr import dict_merge, mr_search


@st.composite
def candidate_lists(draw):
    """``(nq, t, L)`` candidate ids: each list holds distinct objects from a
    small pool (so lists share objects), ``-1`` for a missing slot at the
    tail or anywhere in the list, and ``k`` up to past the union's size."""
    nq = draw(st.integers(1, 5))
    t = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    pool = draw(st.integers(1, 3 * width))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cand = np.full((nq, t, width), -1, dtype=np.int64)
    for j in range(nq):
        for s in range(t):
            size = g.integers(0, min(width, pool) + 1)
            cand[j, s, :size] = g.permutation(pool)[:size]
            if draw(st.booleans()):
                cand[j, s] = g.permutation(cand[j, s])
    return cand, draw(st.integers(1, t * width + 5))


def late_intersection():
    """12 lists of 6: object 1 at rank 6 in all, object 2 at rank 1 in 11.
    Object 1's rank sum (72) exceeds object 2's charged sum (11 + 60):
    from 10 lists on, the miss charge alone does not put the
    intersection first."""
    cand = np.full((1, 12, 6), -1, dtype=np.int64)
    cand[0, :, 5] = 1
    cand[0, :11, 0] = 2
    cand[0, 11, 0] = 3
    return cand, 3


@settings(max_examples=300, deadline=None)
@given(candidate_lists())
@example(late_intersection())
def test_array_merge_matches_dict_merge(case):
    cand, k = case
    nq, t, width = cand.shape
    want = dict_merge([cand[:, s] for s in range(t)], nq, k, width)
    np.testing.assert_array_equal(merge_candidates(cand, k), want)


def test_array_merge_no_candidates():
    np.testing.assert_array_equal(
        merge_candidates(np.full((2, 3, 4), -1), 5), np.full((2, 5), -1))
    assert merge_candidates(np.zeros((0, 2, 4), np.int64), 5).shape == (0, 5)


def with_duplicate_rows(ds):
    """The dataset's objects with rows 0..19 copied onto rows 20..39 in
    every modality: exact ties in each modality's scan."""
    obj = [a.copy() for a in ds.obj_mats]
    for a in obj:
        a[20:40] = a[:20]
    return obj, list(ds.qry_mats)


@pytest.fixture(scope="module", params=["imagetext-m2", "mscoco-m3"])
def data(request):
    if request.param == "imagetext-m2":
        ds = imagetext(200, ("resnet50", "lstm"), nq=24, seed=3)
    else:
        ds = mscoco_lite(("resnet50", "gru", "resnet50"), n=200, nq=24, seed=3)
    return with_duplicate_rows(ds)


@pytest.mark.parametrize("l_cand,k", [(20, 10), (5, 50), (250, 10)])
def test_mr_brute_matches_oracle(spark, data, l_cand, k):
    """``(5, 50)``: k above t * l_cand; ``(250, 10)``: l_cand above n."""
    obj, qry = data
    mr = fit_mr(spark, obj, brute=True)
    got = mr.search(qry, k=k, l_cand=l_cand)
    np.testing.assert_array_equal(got.ids, mr_search(mr, qry, k=k, l_cand=l_cand))
    assert got.ids.shape == got.ips.shape == (len(qry[0]), k)


def test_mr_brute_absent_modality_matches_oracle(spark, data):
    obj, qry = data
    mr = fit_mr(spark, obj, brute=True)
    for absent in range(len(qry)):
        q = [None if i == absent else a for i, a in enumerate(qry)]
        np.testing.assert_array_equal(
            mr.search(q, k=10, l_cand=20).ids, mr_search(mr, q, k=10, l_cand=20))


def test_mr_graph_matches_oracle(spark, data):
    obj, qry = data
    mr = fit_mr(spark, obj, gamma=8, eps=2)
    np.testing.assert_array_equal(
        mr.search(qry, k=10, l_cand=20).ids, mr_search(mr, qry, k=10, l_cand=20))
