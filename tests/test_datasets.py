"""Unit tests for dataset builders (repro.datasets)."""
import numpy as np
import pytest

from repro import datasets as D
from tests.reference_sql import objects_df, queries_df

BUILDERS = {
    "mitstates": lambda **kw: D.mitstates_lite(**kw),
    "celeba": lambda **kw: D.celeba_lite(**kw),
    "shopping": lambda **kw: D.shopping_lite("tshirt", **kw),
    "mscoco": lambda **kw: D.mscoco_lite(**kw),
    "celeba+": lambda **kw: D.celeba_plus(**kw),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_shapes(name):
    ds = BUILDERS[name](n=300, nq=30)
    assert ds.n == 300 and ds.nq == 30
    assert ds.m == len(ds.encoders) == len(ds.obj_mats) == len(ds.qry_mats)
    for o, q in zip(ds.obj_mats, ds.qry_mats):
        assert o.shape[0] == 300 and q.shape[0] == 30
        assert o.shape[1] == q.shape[1]
    assert ds.gt.shape == (30,)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_deterministic(name):
    a = BUILDERS[name](n=200, nq=20)
    b = BUILDERS[name](n=200, nq=20)
    for x, y in zip(a.obj_mats, b.obj_mats):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.gt, b.gt)


def test_mscoco_has_three_modalities():
    assert D.mscoco_lite(n=200, nq=20).m == 3


def test_celeba_plus_has_four_modalities():
    assert D.celeba_plus(n=200, nq=20).m == 4


def test_celeba_plus_shares_world_with_celeba():
    """Tab. VIII's m-sweep must compare on the same underlying objects."""
    a = D.celeba_lite(n=200, nq=20)
    b = D.celeba_plus(n=200, nq=20)
    assert a.world is b.world
    np.testing.assert_array_equal(a.gt, b.gt)
    np.testing.assert_array_equal(a.obj_mats[0], b.obj_mats[0])


def test_shopping_categories_differ_but_share_params():
    a = D.shopping_lite("tshirt", n=200, nq=20)
    b = D.shopping_lite("bottoms", n=200, nq=20)
    assert not np.array_equal(a.obj_mats[0], b.obj_mats[0])
    assert a.world.cfg.n_state_centers == b.world.cfg.n_state_centers


def test_imagetext_scales():
    small = D.imagetext(200, nq=20)
    big = D.imagetext(400, nq=20)
    assert small.n == 200 and big.n == 400


def test_unknown_shopping_category():
    with pytest.raises(KeyError):
        D.shopping_lite("hats", n=100, nq=10)


def test_objects_df_schema(spark):
    ds = D.mitstates_lite(n=120, nq=10)
    df = objects_df(ds, spark)
    assert df.count() == 120
    assert set(df.columns) == {"id", "v0", "v1"}
    row = df.filter("id = 0").collect()[0]
    np.testing.assert_allclose(row["v0"], ds.obj_mats[0][0], rtol=1e-5)


def test_queries_df_schema(spark):
    ds = D.mitstates_lite(n=120, nq=10)
    df = queries_df(ds, spark)
    assert df.count() == 10
    assert set(df.columns) == {"qid", "q0", "q1"}
    row = df.filter("qid = 3").collect()[0]
    np.testing.assert_allclose(row["q1"], ds.qry_mats[1][3], rtol=1e-5)


@pytest.mark.parametrize("name", ["mitstates", "celeba", "shopping"])
def test_gt_is_sibling_of_reference(name):
    ds = BUILDERS[name](n=300, nq=30)
    w = ds.world
    assert np.all(w.instance_id[w.gt] == w.instance_id[w.ref])
