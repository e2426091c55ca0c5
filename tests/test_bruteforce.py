"""Tests for the exact top-k scan, oracle-checked against DuckDB.

``topk_sql`` (pure Catalyst, ``tests/reference_sql.py``) is diffed
against a DuckDB ``list_inner_product`` query via
``repro.oracle.assert_equivalent``;
``topk_scan`` (the distributed production path) is then checked against
``topk_sql`` and against the numpy reference, closing the loop.
"""
import numpy as np
import pandas as pd
import pytest

from repro.ann.bruteforce import topk_numpy, topk_scan
from repro.ann.distance import normalize
from repro.datasets import mitstates_lite
from repro.oracle import assert_equivalent
from tests.reference_sql import objects_df, queries_df, topk_sql


@pytest.fixture(scope="module")
def ds():
    return mitstates_lite(n=150, nq=12)


def duckdb_topk_sql(weights, k):
    """DuckDB query computing the same joint top-k over list columns."""
    ip = " + ".join(
        f"{w} * list_inner_product(q.q{i}, o.v{i})" for i, w in enumerate(weights)
    )
    return f"""
        SELECT qid, oid, rank, ip_joint FROM (
            SELECT q.qid, o.id AS oid,
                   {ip} AS ip_joint,
                   row_number() OVER (
                       PARTITION BY q.qid ORDER BY {ip} DESC, o.id ASC
                   ) AS rank
            FROM queries q CROSS JOIN objects o
        ) WHERE rank <= {k}
    """


@pytest.mark.parametrize("weights", [[0.5, 0.5], [1.0, 0.0], [0.2, 0.8]])
@pytest.mark.parametrize("k", [1, 5])
def test_topk_sql_matches_duckdb_oracle(spark, ds, weights, k):
    got = topk_sql(queries_df(ds, spark), objects_df(ds, spark), weights, k)
    assert_equivalent(
        got,
        duckdb_topk_sql(weights, k),
        queries=queries_df(ds, spark),
        objects=objects_df(ds, spark),
    )


def test_topk_scan_matches_topk_sql(spark, ds):
    w, k = [0.4, 0.6], 5
    scan = (
        topk_scan(spark, ds.qry_mats, ds.obj_mats, w, k)
        .select("qid", "oid", "rank")
        .toPandas()
        .sort_values(["qid", "rank"])
        .reset_index(drop=True)
    )
    sql = (
        topk_sql(queries_df(ds, spark), objects_df(ds, spark), w, k)
        .select("qid", "oid", "rank")
        .toPandas()
        .sort_values(["qid", "rank"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(scan, sql)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_topk_scan_matches_numpy(spark, ds, k):
    w = [0.3, 0.7]
    pdf = topk_scan(spark, ds.qry_mats, ds.obj_mats, w, k).toPandas()
    ids, vals = topk_numpy(ds.qry_mats, ds.obj_mats, w, k)
    for qid in range(ds.nq):
        grp = pdf[pdf.qid == qid].sort_values("rank")
        np.testing.assert_array_equal(grp["oid"].to_numpy(), ids[qid])
        np.testing.assert_allclose(grp["ip_joint"].to_numpy(), vals[qid], rtol=1e-4)


def test_topk_scan_k_larger_than_n(spark):
    g = np.random.default_rng(1)
    obj = [normalize(g.standard_normal((4, 3)))]
    qry = [normalize(g.standard_normal((2, 3)))]
    pdf = topk_scan(spark, qry, obj, [1.0], 10).toPandas()
    assert (pdf.groupby("qid").size() == 4).all()
