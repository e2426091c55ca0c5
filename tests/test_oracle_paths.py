"""Oracle checks for the Catalyst aggregation paths.

The weight-learning gradient is a relational computation (window softmax
+ aggregate) — here it is diffed against DuckDB running the *same SQL
semantics* over the same candidate rows. Recall aggregation in SQL is
likewise oracle-checked. This catches wrong window frames / null
handling that "it ran" would miss.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.ann.distance import normalize
from repro.core.weights import _grad_step
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def cand_rows():
    """Synthetic candidate rows: 6 anchors x 5 candidates, 2 modalities."""
    g = np.random.default_rng(0)
    nq, c = 6, 5
    rows = pd.DataFrame(
        {
            "qid": np.repeat(np.arange(nq), c),
            "oid": np.tile(np.arange(c), nq),
            "ip_0": g.random(nq * c),
            "ip_1": g.random(nq * c),
        }
    )
    rows["ip_joint"] = 0.4 * rows.ip_0 + 0.6 * rows.ip_1
    rows["is_pos"] = rows.oid == 0
    return rows


def test_grad_step_matches_duckdb(spark, cand_rows):
    """Spark window-softmax aggregation == DuckDB SQL == numpy."""
    df = spark.createDataFrame(cand_rows)
    stats = _grad_step(df, m=2, nq=6, temperature=0.5)

    sql = """
        WITH mx AS (
            SELECT *,
                   max(ip_joint) OVER (PARTITION BY qid) AS m,
                   row_number() OVER (PARTITION BY qid ORDER BY ip_joint DESC, oid ASC) AS rn
            FROM cand
        ),
        ex AS (
            SELECT *, exp((ip_joint - m) / 0.5) AS e FROM mx
        ),
        sm AS (
            SELECT *, e / sum(e) OVER (PARTITION BY qid) AS p FROM ex
        )
        SELECT sum(CASE WHEN is_pos THEN -ln(p) END) / 6 AS loss,
               sum(CASE WHEN is_pos AND rn = 1 THEN 1.0 ELSE 0.0 END) / 6 AS recall1,
               sum((p - CASE WHEN is_pos THEN 1.0 ELSE 0.0 END) * ip_0) / 6 AS g_0,
               sum((p - CASE WHEN is_pos THEN 1.0 ELSE 0.0 END) * ip_1) / 6 AS g_1
        FROM sm
    """
    got_df = spark.createDataFrame(pd.DataFrame([stats]))
    assert_equivalent(got_df, sql, cand=cand_rows)


def test_grad_step_zero_gradient_when_softmax_matches_labels(spark):
    """If the positive has overwhelmingly higher joint IP, p ~ y and the
    gradient vanishes."""
    rows = pd.DataFrame(
        {
            "qid": [0, 0, 0],
            "oid": [0, 1, 2],
            "ip_0": [1.0, 0.0, 0.0],
            "ip_1": [1.0, 0.0, 0.0],
            "ip_joint": [100.0, 0.0, 0.0],
            "is_pos": [True, False, False],
        }
    )
    stats = _grad_step(spark.createDataFrame(rows), m=2, nq=1, temperature=1.0)
    assert abs(stats["g_0"]) < 1e-6 and abs(stats["g_1"]) < 1e-6
    assert stats["loss"] < 1e-6
    assert stats["recall1"] == 1.0


def test_recall_aggregation_sql_vs_duckdb(spark):
    """Recall@k computed as a Spark SQL join-aggregate == DuckDB."""
    g = np.random.default_rng(1)
    results = pd.DataFrame(
        {
            "qid": np.repeat(np.arange(10), 5),
            "oid": g.integers(0, 40, 50),
            "rank": np.tile(np.arange(1, 6), 10),
        }
    )
    gt = pd.DataFrame({"qid": np.arange(10), "gt_oid": g.integers(0, 40, 10)})
    res_df, gt_df = spark.createDataFrame(results), spark.createDataFrame(gt)
    got = (
        res_df.join(gt_df, "qid")
        .groupBy("qid")
        .agg(
            F.max(
                (F.col("oid") == F.col("gt_oid")).cast("double")
            ).alias("hit")
        )
        .agg(F.avg("hit").alias("recall"))
    )
    sql = """
        SELECT avg(hit) AS recall FROM (
            SELECT r.qid, max(CASE WHEN r.oid = g.gt_oid THEN 1.0 ELSE 0.0 END) AS hit
            FROM results r JOIN gt g ON r.qid = g.qid
            GROUP BY r.qid
        )
    """
    assert_equivalent(got, sql, results=results, gt=gt)


def test_grad_step_matches_numpy_closed_form(spark, cand_rows):
    df = spark.createDataFrame(cand_rows)
    stats = _grad_step(df, m=2, nq=6, temperature=1.0)
    loss, g0 = 0.0, 0.0
    for qid, grp in cand_rows.groupby("qid"):
        z = grp.ip_joint.to_numpy()
        p = np.exp(z - z.max())
        p /= p.sum()
        y = grp.is_pos.to_numpy().astype(float)
        loss += -np.log(p[y == 1][0])
        g0 += np.sum((p - y) * grp.ip_0.to_numpy())
    assert stats["loss"] == pytest.approx(loss / 6, rel=1e-6)
    assert stats["g_0"] == pytest.approx(g0 / 6, rel=1e-6)
