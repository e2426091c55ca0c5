"""NNDescent-style initialization (paper Algorithm 1, lines 2-8, ①).

Each iteration is one distributed pass: the vertex ids are a DataFrame
partitioned across the cluster, and each worker refines its vertices'
neighbor lists against the *previous* iteration's lists and their
reverse lists (broadcast int32 matrices) plus the broadcast
concatenated-vector matrix. The per-vertex update is exactly the
paper's rule — merge neighbors and neighbors-of-neighbors, keep the
``gamma`` with the highest joint IP — which is candidate acquisition
over the lists ``(N, R)`` followed by the ``none`` selection rule, so a
sweep is :func:`repro.ann.pruning.select_neighbors` on those lists.

Synchronous-iteration note: the paper's sequential loop sees updates
from earlier vertices within the same sweep; our Spark version is
bulk-synchronous (all vertices read the previous sweep's state), the
standard distributed NNDescent formulation. Graph quality after
``eps = 3`` sweeps exceeds 0.99 either way (paper Appendix H, our
Table XI reproduction).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.ann.pruning import select_neighbors


def init_random(n: int, gamma: int, seed: int = 0) -> np.ndarray:
    """Random initial neighbor lists, no self-loops: (n, gamma) int32."""
    g = np.random.default_rng(seed)
    nbrs = g.integers(0, n - 1, size=(n, gamma), dtype=np.int64)
    row = np.arange(n)[:, None]
    nbrs[nbrs >= row] += 1  # shift to skip self
    return nbrs.astype(np.int32)


def nndescent_pass(
    spark: SparkSession,
    vecs_b,
    nbrs: np.ndarray,
    gamma: int,
) -> np.ndarray:
    """One distributed refinement sweep; returns the new (n, gamma) lists.

    ``vecs_b`` is an existing broadcast of the (n, D) float32 concat
    matrix (reused across sweeps to avoid re-shipping it).
    """
    n = nbrs.shape[0]
    # Reverse neighbors (capped at gamma per vertex, NNDescent-style):
    # without them convergence stalls ~0.87 quality; with them eps=3
    # reaches ~0.99 (paper Tab. XI).
    rev = np.full((n, gamma), -1, dtype=np.int32)
    src = np.repeat(np.arange(n, dtype=np.int32), nbrs.shape[1])
    dst = nbrs.ravel()
    ok = dst >= 0
    order = np.argsort(dst[ok], kind="stable")
    d_sorted = dst[ok][order]
    s_sorted = src[ok][order]
    first_idx = np.searchsorted(d_sorted, np.arange(n), side="left")
    pos_in_group = np.arange(len(d_sorted)) - first_idx[d_sorted]
    keep = pos_in_group < gamma
    rev[d_sorted[keep], pos_in_group[keep]] = s_sorted[keep]

    return select_neighbors(spark, vecs_b, (nbrs, rev), gamma, strategy="none")


def build_knn_graph(
    spark: SparkSession,
    vecs: np.ndarray,
    gamma: int,
    eps: int = 3,
    seed: int = 0,
    vecs_b=None,
) -> np.ndarray:
    """Component ①: ``eps`` distributed NNDescent sweeps from random init."""
    n = vecs.shape[0]
    own_bcast = vecs_b is None
    if own_bcast:
        vecs_b = spark.sparkContext.broadcast(np.ascontiguousarray(vecs, np.float32))
    try:
        nbrs = init_random(n, min(gamma, n - 1), seed)
        for _ in range(eps):
            nbrs = nndescent_pass(spark, vecs_b, nbrs, min(gamma, n - 1))
    finally:
        if own_bcast:
            vecs_b.destroy()
    return nbrs


def graph_quality(
    vecs: np.ndarray, nbrs: np.ndarray, sample: int = 500, seed: int = 0
) -> float:
    """Mean overlap of N(o) with the exact top-gamma by joint similarity
    (the paper's graph-quality metric, Appendix H / Table XI)."""
    n, gamma = nbrs.shape
    g = np.random.default_rng(seed)
    ids = g.choice(n, size=min(sample, n), replace=False)
    ips = vecs[ids] @ vecs.T
    ips[np.arange(len(ids)), ids] = -np.inf
    exact = np.argpartition(-ips, gamma - 1, axis=1)[:, :gamma]
    overlaps = [
        len(set(nbrs[o][nbrs[o] >= 0]).intersection(exact[j])) / gamma
        for j, o in enumerate(ids)
    ]
    return float(np.mean(overlaps))
