"""Distributed exact top-k scans — the ``MUST--`` / ``MR--`` substrate.

Two implementations of the same relational semantics:

* :func:`topk_scan` — the production path. The distributed axis is the
  *query id*; query and object matrices ride along as Spark broadcasts
  and each partition scores its query batch with one matmul per modality
  (one :func:`repro.spark_map.lazy` map). Emits per-modality IPs so the
  weight-learning job can aggregate gradients straight off this output.
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


def topk_numpy(
    qry_mats: Sequence[np.ndarray],
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
    qry_mats: Sequence[np.ndarray],
    obj_mats: Sequence[np.ndarray],
    weights: Sequence[float],
    k: int,
    *,
    positives: np.ndarray | None = None,
) -> DataFrame:
    """Exact joint top-k of every query as a distributed DataFrame job.

    Output schema: ``qid, oid, rank (1-based), ip_joint, is_pos,
    ip_0..ip_{m-1}``. If ``positives`` maps each query to a known true
    object, that object's row is always present (rank ``k+1`` when it
    fell outside the top-k) so contrastive training always sees its
    positive example. The scan's broadcasts live until the DataFrame is
    passed to :func:`repro.spark_map.release` (see that module).
    """
    m = len(obj_mats)
    nq = qry_mats[0].shape[0]
    weights = [float(w) for w in weights]

    def score(qids: np.ndarray, q_mats_l, o_mats_l, pos) -> pd.DataFrame:
        t0 = time.perf_counter()
        ips = [q_mats_l[i][qids] @ o_mats_l[i].T for i in range(m)]
        joint = sum(np.float32(w) * ip for w, ip in zip(weights, ips))
        idx, vals = topk_from_scores(joint, k)
        rows = {
            "qid": np.repeat(qids, idx.shape[1]),
            "oid": idx.ravel().astype(np.int64),
            "rank": np.tile(np.arange(1, idx.shape[1] + 1), len(qids)),
            "ip_joint": vals.ravel().astype(np.float64),
        }
        rowsel = np.repeat(np.arange(len(qids)), idx.shape[1])
        for i in range(m):
            rows[f"ip_{i}"] = ips[i][rowsel, rows["oid"]].astype(np.float64)
        out = pd.DataFrame(rows)
        if pos is None:
            out["is_pos"] = False
        else:
            p = pos[qids]
            out["is_pos"] = out["oid"].to_numpy() == np.repeat(p, idx.shape[1])
            # per-query: is the positive absent from its own top-k?
            missing = np.array(
                [p[j] not in idx[j] for j in range(len(qids))], dtype=bool
            )
            if missing.any():
                mq = qids[missing]
                mo = p[missing]
                extra = {
                    "qid": mq,
                    "oid": mo,
                    "rank": np.full(len(mq), k + 1),
                    "ip_joint": np.zeros(len(mq)),
                    "is_pos": np.ones(len(mq), dtype=bool),
                }
                jsel = np.flatnonzero(missing)
                tot = np.zeros(len(mq))
                for i in range(m):
                    ipv = ips[i][jsel, mo].astype(np.float64)
                    extra[f"ip_{i}"] = ipv
                    tot += weights[i] * ipv
                extra["ip_joint"] = tot
                out = pd.concat([out, pd.DataFrame(extra)], ignore_index=True)
        # per-row share of this batch's kernel seconds; summing the
        # column gives the total in-worker compute time (the paper's
        # single-thread tau, Tab. VII)
        out["compute_s"] = (time.perf_counter() - t0) / len(out)
        return out[
            ["qid", "oid", "rank", "ip_joint", "is_pos", "compute_s"]
            + [f"ip_{i}" for i in range(m)]
        ]

    schema = (
        "qid long, oid long, rank int, ip_joint double, is_pos boolean, "
        "compute_s double, " + ", ".join(f"ip_{i} double" for i in range(m))
    )
    return spark_map.lazy(
        spark, nq, score, schema,
        [np.asarray(a, dtype=np.float32) for a in qry_mats],
        [np.asarray(a, dtype=np.float32) for a in obj_mats],
        None if positives is None else np.asarray(positives, dtype=np.int64),
    )


def topk_sql(
    queries_df: DataFrame,
    objects_df: DataFrame,
    weights: Sequence[float],
    k: int,
    *,
    q_cols: Sequence[str] | None = None,
    v_cols: Sequence[str] | None = None,
) -> DataFrame:
    """Pure-Catalyst exact top-k (cross join + window rank).

    Quadratic — only for oracle-checked tests at small n. Ties broken by
    ``oid`` ascending, matching :func:`~repro.ann.distance.topk_from_scores`.
    """
    m = len(weights)
    q_cols = list(q_cols or [f"q{i}" for i in range(m)])
    v_cols = list(v_cols or [f"v{i}" for i in range(m)])
    joined = queries_df.crossJoin(objects_df).withColumn(
        "ip_joint", joint_ip_col(q_cols, v_cols, weights)
    )
    w = Window.partitionBy("qid").orderBy(F.desc("ip_joint"), F.asc("id"))
    return (
        joined.withColumn("rank", F.row_number().over(w))
        .filter(F.col("rank") <= k)
        .select("qid", F.col("id").alias("oid"), "rank", "ip_joint")
    )
