"""The fused proximity-graph index of MUST (paper §VII-A).

The index is built in the *weighted concatenated* vector space
``[sqrt(w_0)*v_0, ..., sqrt(w_m-1)*v_m-1]`` — dot products there equal
the joint similarity (Lemma 1) — by the component pipeline in
:mod:`repro.ann` (distributed NNDescent ① → candidate acquisition ② →
MRNG selection ③ → centroid seed ④ → BFS connectivity ⑤). Its inputs
must meet :mod:`repro.ann.distance`'s input contract.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from pyspark.sql import SparkSession

from repro.ann.distance import check_objects, check_weights, concat_weighted
from repro.ann.graphs import GraphIndex, build_graph

@dataclass
class FusedIndex:
    """A fused graph plus the weights it was built under."""

    graph: GraphIndex
    weights: np.ndarray  # (m,) w_i = omega_i^2

    @property
    def build_seconds(self) -> float:
        return self.graph.build_seconds

    def nbytes(self) -> int:
        return self.graph.nbytes()


def build_fused_index(
    spark: SparkSession,
    obj_mats: Sequence[np.ndarray],
    weights: Sequence[float],
    *,
    gamma: int = 30,
    eps: int = 3,
    variant: str = "ours",
    seed: int = 0,
) -> FusedIndex:
    """Build the fused index over all modalities under ``weights``. The
    objects and weights are checked here, the one check of an index fit
    (``ValueError`` before any Spark job)."""
    check_objects(obj_mats)
    w = check_weights(weights, len(obj_mats))
    vecs = concat_weighted(obj_mats, w)
    graph = build_graph(spark, vecs, gamma=gamma, eps=eps, variant=variant, seed=seed)
    return FusedIndex(graph=graph, weights=w)
