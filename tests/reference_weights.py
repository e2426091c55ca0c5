"""The Spark SQL contrastive step that weight learning ran before its
numpy form, kept as the test oracle for
:func:`repro.core.weights.contrastive_step`.

``df`` holds one row per (anchor, candidate): ``qid, oid, ip_joint,
is_pos, ip_0..ip_{m-1}``. A window softmax over each anchor's rows is
followed by one ``agg`` giving the loss, Recall@1 and the ``m``
gradients ``g_0..g_{m-1}``. :func:`duckdb_step` is the same SQL in
DuckDB, and :func:`candidate_rows` turns candidate matrices into rows.
"""
import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def _grad_step(df: DataFrame, m: int, nq: int, temperature: float) -> dict:
    """One aggregation pass: softmax over each anchor's candidates, then
    loss / Recall@1 / per-modality gradients as Spark SQL aggregates."""
    wq = Window.partitionBy("qid")
    wrank = Window.partitionBy("qid").orderBy(F.desc("ip_joint"), F.asc("oid"))
    scored = (
        df.withColumn("mx", F.max("ip_joint").over(wq))
        .withColumn("e", F.exp((F.col("ip_joint") - F.col("mx")) / F.lit(temperature)))
        .withColumn("z", F.sum("e").over(wq))
        .withColumn("p", F.col("e") / F.col("z"))
        .withColumn("top1", (F.row_number().over(wrank) == 1).cast("double"))
    )
    y = F.col("is_pos").cast("double")
    aggs = [
        (F.sum(F.when(F.col("is_pos"), -F.log(F.col("p")))) / nq).alias("loss"),
        (F.sum(F.when(F.col("is_pos"), F.col("top1"))) / nq).alias("recall1"),
    ]
    for i in range(m):
        aggs.append((F.sum((F.col("p") - y) * F.col(f"ip_{i}")) / nq).alias(f"g_{i}"))
    return scored.agg(*aggs).collect()[0].asDict()


def candidate_rows(ips: np.ndarray, w: np.ndarray, cand: np.ndarray, pos: np.ndarray) -> pd.DataFrame:
    """The rows ``_grad_step`` reads for the candidate matrices that
    ``contrastive_step`` takes: one per id ``>= 0`` in ``cand``."""
    q, c = np.nonzero(cand >= 0)
    joint = np.tensordot(w, ips, axes=1)
    rows = {"qid": q, "oid": cand[q, c], "ip_joint": joint[q, c], "is_pos": cand[q, c] == pos[q]}
    for i, ip in enumerate(ips):
        rows[f"ip_{i}"] = ip[q, c]
    return pd.DataFrame(rows)


def duckdb_step(rows: pd.DataFrame, m: int, nq: int, temperature: float) -> dict:
    """``_grad_step``'s window softmax and aggregate as DuckDB SQL."""
    grads = ",\n".join(
        f"sum((p - CASE WHEN is_pos THEN 1.0 ELSE 0.0 END) * ip_{i}) / {nq} AS g_{i}"
        for i in range(m)
    )
    sql = f"""
        WITH mx AS (
            SELECT *,
                   max(ip_joint) OVER (PARTITION BY qid) AS m,
                   row_number() OVER (PARTITION BY qid ORDER BY ip_joint DESC, oid ASC) AS rn
            FROM cand
        ),
        ex AS (
            SELECT *, exp((ip_joint - m) / {float(temperature)!r}) AS e FROM mx
        ),
        sm AS (
            SELECT *, e / sum(e) OVER (PARTITION BY qid) AS p FROM ex
        )
        SELECT sum(CASE WHEN is_pos THEN -ln(p) END) / {nq} AS loss,
               sum(CASE WHEN is_pos AND rn = 1 THEN 1.0 ELSE 0.0 END) / {nq} AS recall1,
               {grads}
        FROM sm
    """
    con = duckdb.connect()
    try:
        con.register("cand", rows)
        return {k: float(v) for k, v in con.execute(sql).fetchdf().iloc[0].items()}
    finally:
        con.close()
