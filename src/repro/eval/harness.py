"""Experiment harness: run (dataset x framework x encoder-combo) and emit
the rows of the paper's evaluation tables (see DESIGN.md §4).

Protocol shared by all accuracy tables:

* queries are split in half — the first half trains the vector-weight
  model (MUST only), the second half is evaluated for every framework
  (so MUST never scores the anchors it trained on);
* Recall@k(1) and SME are means over the evaluation split;
* all frameworks share the same encoders and the same graph machinery
  (paper §VIII-A "fair comparison" setup). JE (paper §III) fuses the
  query into one composition vector in the target modality's space, so
  it is MUST over the target-modality objects alone, weight 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.mr import fit_mr
from repro.core.must import fit_must
from repro.core.weights import WeightLearnResult, learn_weights
from repro.datasets import MSTMDataset
from repro.eval.metrics import recall_at_k, sme

FRAMEWORKS = ("must", "must--", "mr", "mr--", "je", "je--")


@dataclass
class EvalConfig:
    """Shared evaluation knobs (defaults sized for SF-test scale)."""

    ks: tuple[int, ...] = (1, 5, 10)
    l: int = 128            # result-set size of Algorithm 2
    l_cand: int = 100       # per-modality candidates for MR's merge
    gamma: int = 16
    eps: int = 3
    epochs: int = 20
    seed: int = 0


def split_queries(ds: MSTMDataset):
    """Deterministic train/eval split of the query ids: the first half
    trains."""
    n_train = ds.nq // 2
    return np.arange(n_train), np.arange(n_train, ds.nq)


def learn_on_train_half(
    spark: SparkSession, ds: MSTMDataset, *, epochs: int, seed: int
) -> WeightLearnResult:
    """Learn ``ds``'s modality weights on its training half of queries
    (:func:`split_queries`): the one place the tables and
    :func:`evaluate` learn weights."""
    tr, _ = split_queries(ds)
    return learn_weights(
        spark, [m[tr] for m in ds.qry_mats], ds.obj_mats, ds.gt[tr],
        epochs=epochs, seed=seed,
    )


def evaluate(
    spark: SparkSession,
    ds: MSTMDataset,
    framework: str,
    cfg: EvalConfig | None = None,
    *,
    weights=None,
    active: list[int] | None = None,
) -> dict:
    """One table row: recall@k / SME / timings for a framework on ``ds``.

    ``weights`` forces user-defined weights (Tab. IX); without them MUST
    learns its weights with :func:`learn_on_train_half`. ``active``
    restricts the query modalities (t < m, Tab. X/XIX/XX).
    """
    if framework not in FRAMEWORKS:
        raise ValueError(f"framework must be one of {FRAMEWORKS}")
    cfg = cfg or EvalConfig()
    _, eval_idx = split_queries(ds)
    k = max(cfg.ks)
    eval_q = [m[eval_idx] for m in ds.qry_mats]
    if active is not None:
        eval_q = [q if i in active else None for i, q in enumerate(eval_q)]
    gt_eval = ds.gt[eval_idx]

    row = {
        "dataset": ds.name,
        "framework": framework,
        "encoder": "+".join(ds.encoders),
        "n": ds.n,
        "nq_eval": len(eval_idx),
    }

    if framework in ("must", "must--"):
        if weights is None:
            weights = learn_on_train_half(spark, ds, epochs=cfg.epochs, seed=cfg.seed).weights
        model = fit_must(
            spark, ds.obj_mats, weights=weights, brute=framework == "must--",
            gamma=cfg.gamma, eps=cfg.eps, seed=cfg.seed,
        )
        out = model.search(eval_q, k=k, l=cfg.l, seed=cfg.seed)
        row["weights"] = [round(float(w), 4) for w in model.weights]
        build_s = model.index.build_seconds if model.index else 0.0
    elif framework in ("mr", "mr--"):
        model = fit_mr(
            spark, ds.obj_mats, brute=framework == "mr--",
            gamma=cfg.gamma, eps=cfg.eps, seed=cfg.seed,
        )
        out = model.search(eval_q, k=k, l_cand=cfg.l_cand, seed=cfg.seed)
        build_s = model.build_seconds
    else:  # je / je--: MUST over the target modality alone, weight 1
        model = fit_must(
            spark, [ds.obj_mats[0]], weights=[1.0], brute=framework == "je--",
            gamma=cfg.gamma, eps=cfg.eps, seed=cfg.seed,
        )
        out = model.search([eval_q[0]], k=k, l=cfg.l, seed=cfg.seed)
        build_s = model.index.build_seconds if model.index else 0.0

    row["build_s"] = round(build_s, 3)
    for kk in cfg.ks:
        row[f"recall@{kk}"] = round(recall_at_k(out.ids, gt_eval, kk), 4)
    row["sme"] = round(sme(out.ids, gt_eval, ds.obj_mats[0]), 4)
    row["search_s"] = round(out.elapsed_s, 3)
    row["qps"] = round(out.qps, 1)
    return row


def format_table(rows: list[dict]) -> str:
    """Monospace table of ``rows``: one column per key, in order of first
    appearance."""
    cols = list(dict.fromkeys(c for r in rows for c in r))
    header = " | ".join(f"{c:>12}" for c in cols)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(" | ".join(f"{str(r.get(c, '')):>12}" for c in cols))
    return "\n".join(lines)
