"""Distributed exact top-k scans — the ``MUST--`` / ``MR--`` substrate.

Two implementations of the same relational semantics:

* :func:`topk_scan` — the production path. The distributed axis is the
  *query id*; query and object matrices ride along as Spark broadcasts
  and each partition scores its query batch with one matmul per modality
  (one :func:`repro.spark_map.lazy` map).
* :func:`topk_sql` — a pure-Catalyst cross join + window rank over
  ``array<double>`` columns, used by the tests to oracle-check the scan
  against DuckDB ``list_inner_product``.
"""
from __future__ import annotations

import time
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro import spark_map
from repro.ann.distance import joint_ip_col, joint_ip_matrix, topk_from_scores
from repro.core.fused_index import check_objects
from repro.core.joint_search import query_weights


def topk_numpy(
    qry_mats: Sequence[np.ndarray | None],
    obj_mats: Sequence[np.ndarray],
    weights: Sequence[float],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Driver-side exact joint top-k: ``(ids (nq,k), scores (nq,k))``.

    Used for ground-truth computation in efficiency tables
    (Recall@k(k) is measured against *exact* joint-similarity neighbors).
    """
    scores = joint_ip_matrix(qry_mats, obj_mats, weights)
    return topk_from_scores(scores, k)


def topk_scan(
    spark: SparkSession,
    qry_mats: Sequence[np.ndarray | None],
    obj_mats: Sequence[np.ndarray],
    weights: Sequence[float],
    k: int,
) -> DataFrame:
    """Exact joint top-k of every query as a distributed DataFrame job:
    each partition runs :func:`topk_numpy` on its query slice. Absent
    query modalities (``None``) contribute zero.

    The inputs must meet :func:`~repro.core.joint_search.query_weights`
    and :func:`~repro.core.fused_index.check_objects` (``ValueError``
    before any job). Output schema: ``qid, oid, rank (1-based),
    ip_joint, compute_s``. The scan's broadcasts live until the DataFrame
    is passed to :func:`repro.spark_map.release` (see that module).
    """
    weights, nq = query_weights(qry_mats, weights, obj_mats)
    check_objects(obj_mats)

    def score(qids: np.ndarray, q_mats_l, o_mats_l) -> pd.DataFrame:
        t0 = time.perf_counter()
        idx, vals = topk_numpy(
            [None if q is None else q[qids] for q in q_mats_l], o_mats_l, weights, k
        )
        out = pd.DataFrame({
            "qid": np.repeat(qids, idx.shape[1]),
            "oid": idx.ravel().astype(np.int64),
            "rank": np.tile(np.arange(1, idx.shape[1] + 1), len(qids)),
            "ip_joint": vals.ravel().astype(np.float64),
        })
        # per-row share of this batch's kernel seconds; summing the
        # column gives the total in-worker compute time (the paper's
        # single-thread tau, Tab. VII)
        out["compute_s"] = (time.perf_counter() - t0) / len(out)
        return out

    return spark_map.lazy(
        spark, nq, score,
        "qid long, oid long, rank int, ip_joint double, compute_s double",
        [None if a is None else np.asarray(a, dtype=np.float32) for a in qry_mats],
        [np.asarray(a, dtype=np.float32) for a in obj_mats],
    )


def topk_sql(
    queries_df: DataFrame,
    objects_df: DataFrame,
    weights: Sequence[float],
    k: int,
) -> DataFrame:
    """Pure-Catalyst exact top-k (cross join + window rank) over the
    columns ``q0..q{m-1}`` and ``v0..v{m-1}``.

    Quadratic — only for oracle-checked tests at small n. Ties broken by
    ``oid`` ascending, matching :func:`~repro.ann.distance.topk_from_scores`.
    """
    m = len(weights)
    joined = queries_df.crossJoin(objects_df).withColumn(
        "ip_joint",
        joint_ip_col([f"q{i}" for i in range(m)], [f"v{i}" for i in range(m)], weights),
    )
    w = Window.partitionBy("qid").orderBy(F.desc("ip_joint"), F.asc("id"))
    return (
        joined.withColumn("rank", F.row_number().over(w))
        .filter(F.col("rank") <= k)
        .select("qid", F.col("id").alias("oid"), "rank", "ip_joint")
    )
