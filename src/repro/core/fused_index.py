"""The fused proximity-graph index of MUST (paper §VII-A).

The index is built in the *weighted concatenated* vector space
``[sqrt(w_0)*v_0, ..., sqrt(w_m-1)*v_m-1]`` — dot products there equal
the joint similarity (Lemma 1) — by the component pipeline in
:mod:`repro.ann` (distributed NNDescent ① → candidate acquisition ② →
MRNG selection ③ → centroid seed ④ → BFS connectivity ⑤).

Input contract (checked before any Spark job): m object matrices with
the same row count, rows of L2 norm <= 1 (Lemma 4 bounds every IP by 1
on both sides; zero rows pass), and m finite weights >= 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from pyspark.sql import SparkSession

from repro.ann.distance import concat_weighted
from repro.ann.graphs import GraphIndex, build_graph

# Lemma 4 prunes with the bound IP <= 1, so a row's L2 norm may exceed 1
# only by float32 rounding of a normalized row (zero rows pass)
NORM_TOL = 1e-4


def check_unit_norm(mats: Sequence[np.ndarray | None], side: str) -> None:
    """Raise ``ValueError`` naming the first row of ``mats`` (``None``
    entries skipped) whose L2 norm exceeds ``1 + NORM_TOL``, or is NaN."""
    for i, a in enumerate(mats):
        if a is None:
            continue
        norms = np.linalg.norm(np.asarray(a, np.float64), axis=1)
        bad = np.flatnonzero(~(norms <= 1.0 + NORM_TOL))  # NaN fails too
        if len(bad):
            raise ValueError(
                f"{side} modality {i}, row {bad[0]}: L2 norm {norms[bad[0]]:.6g} > 1; "
                f"normalize {side} vectors (Lemma 4 assumes IP <= 1)"
            )


def check_weights(weights: Sequence[float], m: int) -> np.ndarray:
    """``weights`` as float64 ``(m,)``; ``ValueError`` unless there are
    ``m`` of them, all finite and >= 0."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ValueError(f"expected {m} modality weights, got {list(np.ravel(w))}")
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        raise ValueError(f"modality weights must be finite and >= 0, got {w.tolist()}")
    return w


def check_objects(obj_mats: Sequence[np.ndarray]) -> None:
    """``ValueError`` unless the object matrices are 2-D with one row
    count and rows of L2 norm <= 1."""
    if not obj_mats:
        raise ValueError("at least one object modality is needed")
    shapes = [np.shape(a) for a in obj_mats]
    if any(len(s) != 2 for s in shapes) or len({s[0] for s in shapes}) != 1:
        raise ValueError(f"object modalities must be 2-D with one row count, got shapes {shapes}")
    check_unit_norm(obj_mats, "object")


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
    """Build the fused index over all modalities under ``weights``."""
    check_objects(obj_mats)
    w = check_weights(weights, len(obj_mats))
    vecs = concat_weighted(obj_mats, w)
    graph = build_graph(spark, vecs, gamma=gamma, eps=eps, variant=variant, seed=seed)
    return FusedIndex(graph=graph, weights=w)
