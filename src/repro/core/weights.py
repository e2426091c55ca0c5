"""Vector weight learning (paper §VI): one Spark stage per epoch, the
contrastive step on the driver.

The model has only ``m`` scalar parameters ``w_i = omega_i^2``. Each epoch:

1. **Hard-negative mining** (Eq. 5): a distributed exact top-k scan of
   every anchor against the true-object set ``T`` under the *current*
   weights (:func:`repro.ann.bruteforce.topk_scan`), collected as an
   ``(nq, |N-|+1)`` id matrix. The anchor's positive is appended where
   the scan did not mine it.
2. **Contrastive step** (Eq. 6, :func:`contrastive_step`): the
   per-modality IPs of those ``nq x (|N-|+2)`` candidates are gathered
   on the driver, and the softmax-contrastive gradient

       dL/dw_i = mean_p  sum_c (softmax_c - y_c) * IP_i(p, c)

   is computed in numpy with the loss and Recall@1. The rows are few, so
   they need no Spark job; the driver applies the gradient step.

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
from pyspark.sql import SparkSession

from repro import spark_map
from repro.ann.bruteforce import topk_scan
from repro.ann.distance import check_objects, check_weights, query_weights


@dataclass
class WeightLearnResult:
    """Learned weights plus per-epoch training curves (loss/recall)."""

    weights: np.ndarray
    history: list[dict] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1]["loss"] if self.history else float("nan")


def contrastive_step(
    ips: np.ndarray, w: np.ndarray, cand: np.ndarray, pos: np.ndarray, temperature: float
) -> dict:
    """Loss, Recall@1 and the ``m`` gradients of one epoch (Eq. 6).

    ``cand`` is each anchor's ``(nq, c)`` candidate ids (``-1``: no
    candidate), ``ips`` their ``(m, nq, c)`` per-modality IPs and
    ``pos`` each anchor's positive id. Candidates are softmaxed over the
    joint IP ``sum_i w_i IP_i`` per anchor; every candidate equal to the
    positive is labelled 1. Recall@1 counts anchors whose top candidate,
    by joint IP desc then id asc, is the positive.
    """
    nq = cand.shape[0]
    valid = cand >= 0
    y = cand == pos[:, None]
    joint = np.tensordot(w, ips, axes=1)
    mx = np.max(joint, axis=1, where=valid, initial=-np.inf, keepdims=True)
    e = np.exp((joint - mx) / temperature, where=valid, out=np.zeros_like(joint))
    p = e / e.sum(axis=1, keepdims=True)
    top = np.where(valid & (joint == mx), cand, np.iinfo(cand.dtype).max).min(axis=1)
    return {
        "loss": -np.log(p[y]).sum() / nq,
        "recall1": np.count_nonzero(top == pos) / nq,
        "grad": ((p - y) * ips).sum(axis=(1, 2)) / nq,
    }


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
    whole corpus is scanned. The objects must meet :func:`check_objects`
    and the anchors :func:`query_weights` with no modality absent
    (``None``: its weight would get no gradient), in both mining modes;
    ``init`` must meet :func:`check_weights` (``m`` finite values >= 0),
    ``lr`` must be finite and >= 0 (0 keeps ``init``) and ``temperature``
    finite and > 0 (``ValueError`` before any Spark job).
    """
    check_objects(obj_mats)
    m = len(obj_mats)
    n = obj_mats[0].shape[0]
    w = np.full(m, 1.0 / m) if init is None else check_weights(init, m).copy()
    absent = [i for i, q in enumerate(qry_mats) if q is None]
    if absent:
        raise ValueError(f"anchor modality {absent[0]} is None: learning needs all {m}")
    _, nq = query_weights(qry_mats, w, obj_mats)
    positives = np.asarray(positives)
    if (
        positives.shape != (nq,)
        or not np.issubdtype(positives.dtype, np.integer)
        or not np.all((positives >= 0) & (positives < n))
    ):
        raise ValueError(f"positives must be {nq} integer object ids in [0, {n})")
    if not all(np.isfinite(q).all() for q in qry_mats):
        raise ValueError("anchor vectors must be finite")
    if not (np.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if not (np.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    rng = np.random.default_rng(seed)

    if restrict_to_true_set:
        t_ids, mine_pos = np.unique(positives, return_inverse=True)
        mine_obj = [mat[t_ids] for mat in obj_mats]
    else:
        mine_obj = list(obj_mats)
        mine_pos = positives
    n_t = mine_obj[0].shape[0]

    history: list[dict] = []

    for epoch in range(epochs):
        if hard_negatives:
            pdf = spark_map.to_pandas(topk_scan(spark, qry_mats, mine_obj, w, k=n_neg + 1))
            cand, _ = spark_map.scatter_topk(pdf, nq, n_neg + 1)
            # the positive is always a candidate: one more column where
            # the scan did not mine it
            mined = (cand == mine_pos[:, None]).any(axis=1)
            cand = np.column_stack([cand, np.where(mined, -1, mine_pos)])
        else:
            # Random-negative ablation: uniform sample per anchor
            cand = np.column_stack([mine_pos, rng.integers(0, n_t, size=(nq, n_neg))])
        ips = np.stack([
            np.einsum("qd,qcd->qc", q, o[np.maximum(cand, 0)])
            for q, o in zip(qry_mats, mine_obj)
        ]).astype(np.float64)
        stats = contrastive_step(ips, w, cand, mine_pos, temperature)
        w = np.clip(w - lr * stats["grad"], 1e-4, None)
        history.append(
            {
                "epoch": epoch,
                "loss": float(stats["loss"]),
                "recall1": float(stats["recall1"]),
                "weights": w.copy(),
            }
        )

    return WeightLearnResult(weights=w, history=history)
