"""Baseline 2: Joint Embedding (paper §III, Fig. 2 upper-right).

JE fuses the whole multimodal query into one composition vector (a
``composition``-kind encoder in our zoo) and runs a single-channel
vector search over the *target-modality* object vectors. Structurally
this is MUST restricted to one modality, so it reuses the same index
and search machinery with ``m = 1``: search a fitted JE with
``je.search([composition_qry], k, l)``.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.fused_index import build_fused_index
from repro.core.must import Must


def fit_je(
    spark: SparkSession,
    target_obj_mat: np.ndarray,
    *,
    brute: bool = False,
    gamma: int = 30,
    eps: int = 3,
    seed: int = 0,
) -> Must:
    """Index over the target-modality corpus vectors only."""
    mat = np.ascontiguousarray(target_obj_mat, np.float32)
    index = None
    if not brute:
        index = build_fused_index(spark, [mat], [1.0], gamma=gamma, eps=eps, seed=seed)
    return Must(
        spark=spark, obj_mats=[mat], weights=np.array([1.0]), index=index
    )
