"""Distributed exact top-k scan — the ``MUST--`` / ``MR--`` substrate.

:func:`topk_scan` distributes the *query ids*; query and object matrices
ride along as Spark broadcasts and each partition scores its query
batch with one matmul per modality (one :func:`repro.spark_map.lazy`
map). :func:`topk_numpy` is the same top-k on the driver. The tests
check the scan against DuckDB ``list_inner_product`` through the
Catalyst cross join kept in ``tests/reference_sql.py``.
"""
from __future__ import annotations

import time
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro import spark_map
from repro.ann.distance import check_objects, joint_ip_matrix, query_weights, topk_from_scores


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

    The inputs must meet :func:`~repro.ann.distance.query_weights`
    and :func:`~repro.ann.distance.check_objects` (``ValueError``
    before any job). Its rows are :data:`repro.spark_map.TOPK_SCHEMA`'s.
    The scan's broadcasts live until the DataFrame is passed to
    :func:`repro.spark_map.release` (see that module).
    """
    weights, nq = query_weights(qry_mats, weights, obj_mats)
    check_objects(obj_mats)

    def score(qids: np.ndarray, q_mats_l, o_mats_l) -> pd.DataFrame:
        t0 = time.perf_counter()
        idx, vals = topk_numpy(
            [None if q is None else q[qids] for q in q_mats_l], o_mats_l, weights, k
        )
        # summing the rows' compute_s gives the in-worker kernel time
        # (the paper's single-thread tau, Tab. VII)
        return spark_map.topk_rows(qids, idx, vals, time.perf_counter() - t0)

    return spark_map.lazy(
        spark, nq, score, spark_map.TOPK_SCHEMA,
        [None if a is None else np.asarray(a, dtype=np.float32) for a in qry_mats],
        [np.asarray(a, dtype=np.float32) for a in obj_mats],
    )
