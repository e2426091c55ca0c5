"""End-to-end MUST framework facade (paper §IV, Fig. 4).

Ties the pieces together: fused-index construction (§VII-A) under the
weights it is given, and the merging-free joint search (§VII-B). The
weights are an input to the build whatever their source: explicit ones,
learned (§VI, :func:`repro.core.weights.learn_weights`) or user-defined
(Tab. IX), come before uniform ones. ``brute=True`` gives the paper's
``MUST--`` variant (distributed exact scan instead of the index).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from pyspark.sql import SparkSession

from repro import spark_map
from repro.ann.bruteforce import topk_scan
from repro.ann.distance import check_objects, check_weights, query_weights
from repro.core.fused_index import FusedIndex, build_fused_index
from repro.core.joint_search import SearchOutput, joint_search


@dataclass
class Must:
    """A ready-to-search MUST deployment."""

    spark: SparkSession
    obj_mats: list[np.ndarray]
    weights: np.ndarray
    index: FusedIndex | None  # None => brute-force-only (MUST--)

    def search(
        self,
        qry_mats: Sequence[np.ndarray | None],
        k: int,
        l: int | None = None,
        *,
        seed: int = 0,
    ) -> SearchOutput:
        """Joint search; falls back to the exact distributed scan when no
        index was built (``MUST--``). Either path reports its summed
        in-worker kernel seconds as ``stats["compute_s"]`` and its task
        count as ``stats["parts"]``."""
        if self.index is not None:
            return joint_search(
                self.spark, qry_mats, self.obj_mats, self.index, k,
                l or max(4 * k, 100), seed=seed,
            )
        weights, nq = query_weights(qry_mats, self.weights, self.obj_mats)
        t0 = time.perf_counter()
        pdf = spark_map.to_pandas(topk_scan(self.spark, qry_mats, self.obj_mats, weights, k))
        elapsed = time.perf_counter() - t0
        ids, ips = spark_map.scatter_topk(pdf, nq, k)
        return SearchOutput(
            ids=ids, ips=ips, elapsed_s=elapsed,
            stats={"compute_s": float(pdf["compute_s"].sum()), "parts": pdf.attrs["parts"]},
        )


def fit_must(
    spark: SparkSession,
    obj_mats: Sequence[np.ndarray],
    *,
    weights: Sequence[float] | None = None,
    brute: bool = False,
    gamma: int = 30,
    eps: int = 3,
    seed: int = 0,
) -> Must:
    """Build a MUST deployment under explicit ``weights`` (learned by
    :func:`~repro.core.weights.learn_weights`, or user-defined, Tab. IX),
    or else uniform ones. Objects and weights must meet
    :mod:`repro.ann.distance`'s input contract (``ValueError`` before any
    Spark job); they are checked once, by ``build_fused_index`` on the
    index path and here for ``MUST--``.
    """
    obj_mats = [np.ascontiguousarray(a, np.float32) for a in obj_mats]
    m = len(obj_mats)
    # m = 0 fails check_objects, here or in build_fused_index
    w = np.full(m, 1.0 / max(m, 1)) if weights is None else weights
    if brute:
        check_objects(obj_mats)
        return Must(spark=spark, obj_mats=obj_mats, weights=check_weights(w, m), index=None)
    index = build_fused_index(spark, obj_mats, w, gamma=gamma, eps=eps, seed=seed)
    return Must(spark=spark, obj_mats=obj_mats, weights=index.weights, index=index)
