"""The relational exact top-k, kept as the test oracle the distributed
scan :func:`repro.ann.bruteforce.topk_scan` is checked against.

:func:`topk_sql` is a pure-Catalyst cross join and window rank over
``array<double>`` columns; :func:`joint_ip_col` (Lemma 1's joint IP built
from :func:`array_ip_col`) scores each pair inside Spark SQL, with no
UDF, so the whole query can be diffed against DuckDB's
``list_inner_product``. :func:`objects_df` and :func:`queries_df` give a
dataset's matrices as the frames it reads.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.datasets import MSTMDataset


def objects_df(ds: MSTMDataset, spark: SparkSession) -> DataFrame:
    """Objects as ``(id bigint, v0 array<double>, ..., v{m-1})``."""
    data = {"id": np.arange(ds.n, dtype=np.int64)}
    for i, mat in enumerate(ds.obj_mats):
        data[f"v{i}"] = list(mat.astype(np.float64))
    return spark.createDataFrame(pd.DataFrame(data))


def queries_df(ds: MSTMDataset, spark: SparkSession) -> DataFrame:
    """Queries as ``(qid bigint, q0 array<double>, ..., q{m-1})``."""
    data = {"qid": np.arange(ds.nq, dtype=np.int64)}
    for i, mat in enumerate(ds.qry_mats):
        data[f"q{i}"] = list(mat.astype(np.float64))
    return spark.createDataFrame(pd.DataFrame(data))


def array_ip_col(a: str | Column, b: str | Column) -> Column:
    """Catalyst expression for the IP of two ``array<double>`` columns.

    Built from ``zip_with`` + ``aggregate`` so the whole scan stays inside
    Spark SQL (no UDF) and can be diffed against DuckDB's
    ``list_inner_product`` by the oracle.
    """
    a = F.col(a) if isinstance(a, str) else a
    b = F.col(b) if isinstance(b, str) else b
    prod = F.zip_with(a, b, lambda x, y: x * y)
    return F.aggregate(prod, F.lit(0.0), lambda acc, x: acc + x)


def joint_ip_col(
    q_cols: Sequence[str | Column | None],
    o_cols: Sequence[str | Column],
    weights: Sequence[float],
) -> Column:
    """Catalyst expression for the joint similarity of Lemma 1."""
    total: Column | None = None
    for q, o, w in zip(q_cols, o_cols, weights):
        if q is None or w == 0.0:
            continue
        term = array_ip_col(q, o) * F.lit(float(w))
        total = term if total is None else total + term
    if total is None:
        raise ValueError("query has no active modalities")
    return total


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
