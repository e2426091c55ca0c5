"""Vector weight learning (paper §VI) as a distributed Spark job.

The model has only ``m`` scalar parameters ``w_i = omega_i^2``; the heavy
lifting per epoch is distributed:

1. **Hard-negative mining** (Eq. 5): a distributed exact top-k scan of
   every anchor against the true-object set ``T`` under the *current*
   weights (:func:`repro.ann.bruteforce.topk_scan`), emitting per-modality
   IP columns. The anchor's positive example is always force-included.
2. **Gradient via aggregation** (Eq. 6): the softmax-contrastive gradient

       dL/dw_i = mean_p  sum_c (softmax_c - y_c) * IP_i(p, c)

   is computed entirely in Spark SQL — a window softmax over each
   anchor's candidate rows followed by one ``agg`` producing the loss,
   Recall@1, and the ``m`` gradient scalars. Only those scalars are
   collected; the driver applies the gradient step.

The paper parameterizes by ``omega_i`` and our gradient is w.r.t.
``w_i = omega_i^2``; the two differ by the positive factor ``2*omega_i``
per coordinate, so minima coincide (weights are reported as ``omega^2``
in the paper's tables too). Random-negative mining (the paper's Fig. 9
ablation baseline) swaps step 1 for a uniform sample.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro import spark_map
from repro.ann.bruteforce import topk_scan


@dataclass
class WeightLearnResult:
    """Learned weights plus per-epoch training curves (loss/recall)."""

    weights: np.ndarray
    history: list[dict] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1]["loss"] if self.history else float("nan")


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


def learn_weights(
    spark: SparkSession,
    qry_mats: Sequence[np.ndarray],
    obj_mats: Sequence[np.ndarray],
    positives: np.ndarray,
    *,
    epochs: int = 30,
    lr: float = 0.5,
    n_neg: int = 10,
    temperature: float = 0.1,
    init: Sequence[float] | None = None,
    hard_negatives: bool = True,
    restrict_to_true_set: bool = True,
    seed: int = 0,
) -> WeightLearnResult:
    """Learn modality weights ``w_i = omega_i^2`` by contrastive descent.

    ``positives[j]`` is the true object index of anchor ``j``. Following
    Eq. 5, negatives are mined from the true-object set ``T`` (the unique
    positives) unless ``restrict_to_true_set=False``, in which case the
    whole corpus is scanned.
    """
    m = len(obj_mats)
    nq = qry_mats[0].shape[0]
    positives = np.asarray(positives, dtype=np.int64)
    rng = np.random.default_rng(seed)

    if restrict_to_true_set:
        t_ids = np.unique(positives)
        remap = {int(o): j for j, o in enumerate(t_ids)}
        mine_obj = [mat[t_ids] for mat in obj_mats]
        mine_pos = np.array([remap[int(p)] for p in positives], dtype=np.int64)
    else:
        t_ids = np.arange(obj_mats[0].shape[0])
        mine_obj = list(obj_mats)
        mine_pos = positives
    n_t = mine_obj[0].shape[0]

    w = np.full(m, 1.0 / m, dtype=np.float64) if init is None else np.asarray(
        init, dtype=np.float64
    ).copy()
    history: list[dict] = []

    for epoch in range(epochs):
        if hard_negatives:
            cand = topk_scan(
                spark, qry_mats, mine_obj, w, k=n_neg + 1, positives=mine_pos
            )
        else:
            # Random-negative ablation: uniform sample per anchor, scored
            # on the driver (tiny: nq x (n_neg+1) IPs).
            neg = rng.integers(0, n_t, size=(nq, n_neg))
            cand_ids = np.concatenate([mine_pos[:, None], neg], axis=1)
            rows = {
                "qid": np.repeat(np.arange(nq), n_neg + 1),
                "oid": cand_ids.ravel(),
                "is_pos": (cand_ids == mine_pos[:, None]).ravel(),
            }
            joint = np.zeros(nq * (n_neg + 1))
            for i in range(m):
                ipv = np.einsum(
                    "qd,qcd->qc", qry_mats[i], mine_obj[i][cand_ids]
                ).ravel()
                rows[f"ip_{i}"] = ipv.astype(np.float64)
                joint += w[i] * ipv
            rows["ip_joint"] = joint
            cand = spark.createDataFrame(pd.DataFrame(rows))

        try:
            stats = _grad_step(cand, m, nq, temperature)
        finally:
            spark_map.release(cand)  # the mining scan's broadcasts
        grad = np.array([stats[f"g_{i}"] for i in range(m)])
        w = np.clip(w - lr * grad, 1e-4, None)
        history.append(
            {
                "epoch": epoch,
                "loss": float(stats["loss"]),
                "recall1": float(stats["recall1"]),
                "weights": w.copy(),
            }
        )

    return WeightLearnResult(weights=w, history=history)
