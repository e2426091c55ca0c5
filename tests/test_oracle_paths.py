"""Oracle checks for weight learning's contrastive step and the recall
aggregation.

The contrastive step (window softmax + aggregate over each anchor's
candidate rows) runs in numpy on the driver; here it is diffed against
the same semantics as DuckDB SQL and as the Spark SQL job it replaced
(``tests/reference_weights.py``). This catches wrong masks, tie-breaks
and duplicate-label handling that "it ran" would miss.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.weights import contrastive_step
from repro.oracle import assert_equivalent
from tests.reference_weights import _grad_step, candidate_rows, duckdb_step


@pytest.fixture(scope="module")
def cands():
    """6 anchors x 5 candidates (ids 0..4, the positive is 0), 2 modalities."""
    g = np.random.default_rng(0)
    nq, c = 6, 5
    ips = g.random((2, nq, c))
    cand = np.tile(np.arange(c), (nq, 1))
    return ips, np.array([0.4, 0.6]), cand, np.zeros(nq, dtype=np.int64)


def assert_same_step(got: dict, want: dict, m: int) -> None:
    """numpy vs SQL, to 1e-9 relative; summation order differs."""
    assert got["loss"] == pytest.approx(want["loss"], rel=1e-9, abs=1e-12)
    assert got["recall1"] == pytest.approx(want["recall1"], rel=1e-9)
    for i in range(m):
        assert got["grad"][i] == pytest.approx(want[f"g_{i}"], rel=1e-9, abs=1e-12)


def test_grad_step_matches_duckdb(spark, cands):
    """numpy step == DuckDB SQL == the Spark SQL job it replaced."""
    ips, w, cand, pos = cands
    rows = candidate_rows(ips, w, cand, pos)
    got = contrastive_step(ips, w, cand, pos, 0.5)
    assert_same_step(got, duckdb_step(rows, 2, 6, 0.5), 2)
    assert_same_step(got, _grad_step(spark.createDataFrame(rows), 2, 6, 0.5), 2)


@st.composite
def candidate_matrices(draw):
    """Candidate matrices as weight learning builds them: every anchor
    holds its positive, ids repeat (duplicate positives and negatives),
    ``-1`` pads, and IPs on a coarse grid tie."""
    m, nq, c = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n_obj = draw(st.integers(1, 8))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = draw(st.booleans())
    table = g.integers(-4, 5, (m, nq, n_obj)) / 4 if coarse else g.uniform(-1, 1, (m, nq, n_obj))
    w = g.integers(1, 5, m) / 4 if coarse else g.uniform(0.01, 2, m)
    pos = g.integers(0, n_obj, nq)
    cand = g.integers(0, n_obj, (nq, c))
    cand[g.random((nq, c)) < 0.3] = -1
    cand[np.arange(nq), g.integers(0, c, nq)] = pos
    ips = np.take_along_axis(table, np.maximum(cand, 0)[None], axis=2)
    return ips, w, cand, pos, draw(st.sampled_from([0.1, 0.5, 1.0]))


@given(candidate_matrices())
@settings(max_examples=60, deadline=None)
def test_contrastive_step_matches_duckdb_on_random_candidates(args):
    ips, w, cand, pos, temperature = args
    m, nq = ips.shape[:2]
    want = duckdb_step(candidate_rows(ips, w, cand, pos), m, nq, temperature)
    assert_same_step(contrastive_step(ips, w, cand, pos, temperature), want, m)


def test_grad_step_zero_gradient_when_softmax_matches_labels():
    """If the positive has overwhelmingly higher joint IP, p ~ y and the
    gradient vanishes."""
    ips = np.array([[[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]])
    stats = contrastive_step(ips, np.array([50.0, 50.0]), np.array([[0, 1, 2]]), np.array([0]), 1.0)
    assert np.all(np.abs(stats["grad"]) < 1e-6)
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


def test_grad_step_matches_numpy_closed_form(cands):
    ips, w, cand, pos = cands
    stats = contrastive_step(ips, w, cand, pos, 1.0)
    loss, g0 = 0.0, 0.0
    for qid, grp in candidate_rows(ips, w, cand, pos).groupby("qid"):
        z = grp.ip_joint.to_numpy()
        p = np.exp(z - z.max())
        p /= p.sum()
        y = grp.is_pos.to_numpy().astype(float)
        loss += -np.log(p[y == 1][0])
        g0 += np.sum((p - y) * grp.ip_0.to_numpy())
    assert stats["loss"] == pytest.approx(loss / 6, rel=1e-6)
    assert stats["grad"][0] == pytest.approx(g0 / 6, rel=1e-6)
