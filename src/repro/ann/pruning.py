"""Candidate acquisition + neighbor selection (paper Algorithm 1, ①-③).

One distributed pass over vertices: each worker receives broadcast
adjacency lists ``L_1..L_t``, forms the candidate set ``C(o)``, the
union of ``L_i(o)`` and ``L_j(L_i(o))`` over all pairs of lists
(component ②), and applies a pluggable selection strategy (component
③). Neighbor selection passes the kNN graph of ① alone, so ``C(o) =
N(o) ∪ N(N(o))``; each NNDescent sweep of ① is the same pass over the
lists ``(N, R)`` (``R``: reverse neighbors) under ``none``. The
strategies:

* ``mrng``  — the paper's choice (MRNG [25], Lemma 2): keep ``v`` only if
  it is closer to ``o`` than to every already-kept neighbor,
  ``IP(o,v) > IP(u,v)`` for all kept ``u``.
* ``alpha`` — Vamana-style relaxed pruning: reject ``v`` when some kept
  ``u`` has ``alpha * d(u,v) <= d(o,v)`` (alpha > 1 keeps more edges).
* ``angle`` — NSSG-style: reject ``v`` when the angle ``∠(v,o,u)`` with
  some kept ``u`` is below ``ANGLE_DEG`` (60 degrees).
* ``none``  — KGraph: keep the ``gamma`` nearest candidates.

These strategies are what the §VIII-G graph ablation re-assembles.

``none`` partitions the candidates' IPs at ``gamma`` (``argpartition``)
and sorts the ``gamma`` largest descending (stable): NNDescent's update,
so each sweep of ① keeps the ``gamma`` nearest of its candidates.

**Occlusion scan.** The other three rules are greedy: candidates are
visited in descending ``IP(o, v)`` order (stable, so equal IPs keep id
order) and ``v`` is kept iff no neighbor kept before it rejects it.
Rather than testing each candidate against the kept set,
:func:`_occlusion_scan` gathers ``V = vecs[C]`` once and loops over
*kept* neighbors only (at most gamma steps): each step keeps the first
candidate not yet occluded, scores it against every later candidate
with one matvec, and ORs the strategy's rejection test into a boolean
occlusion mask. This is exact: the kept set only grows, a candidate's
verdict depends only on the neighbors kept before it, and a candidate
is occluded after step ``j`` iff one of the first ``j`` kept neighbors
rejects it — the same candidates the per-candidate loop would have
skipped.

The comparisons are the per-candidate loop's, in the same precision, but
two operands come from different BLAS calls: ``IP(o,v)`` is the value
computed for the sort (a matvec, not one dot per candidate), and
``IP(u,v)`` comes from a matvec over the later candidates rather than
over the kept set. Their summation order differs, so either may differ
in the last bit. That can flip a decision only when its two sides agree
to float32 rounding, i.e. at exact ties such as duplicate vectors, where
either outcome satisfies the rule within rounding. On tie-free inputs the
graphs are bit-identical to the per-candidate loop's; the reference copy
of that loop in ``tests/reference_prune.py`` pins both cases.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import spark_map

STRATEGIES = ("mrng", "alpha", "angle", "none")
ANGLE_DEG = 60.0
_COS_THRESH = float(np.cos(np.deg2rad(ANGLE_DEG)))


def _occlusion_scan(
    o: int,
    cand: np.ndarray,
    vecs: np.ndarray,
    gamma: int,
    strategy: str,
    alpha: float,
) -> np.ndarray:
    """One vertex's kept neighbors, in admission order; ``cand`` is the
    deduplicated candidate set (any order, without ``o``)."""
    vo = vecs[o]
    V = vecs[cand]
    ips = V @ vo
    if strategy == "none":
        if len(cand) > gamma:
            keep = np.argpartition(-ips, gamma - 1)[:gamma]
            order = np.argsort(-ips[keep], kind="stable")
            cand = cand[keep][order]
        else:
            cand = cand[np.argsort(-ips, kind="stable")]
        return cand.astype(np.int32)
    order = np.argsort(-ips, kind="stable")
    cand, V, ips = cand[order], V[order], ips[order]
    if strategy == "alpha":
        # distances on normalized vectors: d^2 = 2 - 2*IP. d(o,v) is formed
        # in float64 and compared in float32, as a Python scalar would be.
        d_ov = np.maximum(2.0 - 2.0 * ips.astype(np.float64), 0.0).astype(np.float32)
        aa = alpha * alpha
    elif strategy == "angle":
        E = V - vo  # edge vectors v - o
        # |v - o| as a per-row dot (what np.linalg.norm does for one
        # vector) and |u - o| as a row reduction (what it does per axis)
        nv = np.sqrt(np.matmul(E[:, None, :], E[:, :, None]).ravel())
        nu = np.linalg.norm(E, axis=1)
    occluded = np.zeros(len(cand), dtype=bool)
    kept: list[int] = []
    j = 0
    while len(kept) < gamma:
        free = occluded[j:]
        if free.all():
            break
        j += int(free.argmin())  # first candidate not yet occluded
        kept.append(j)
        j += 1
        if strategy == "mrng":
            # keep v only if IP(o,v) > IP(u,v) for every kept u
            ok = ips[j:] > V[j:] @ V[j - 1]
        elif strategy == "alpha":
            d_uv = np.maximum(2.0 - 2.0 * (V[j:] @ V[j - 1]), 0.0)
            ok = aa * d_uv > d_ov[j:]
        else:  # angle
            denom = np.maximum(nv[j:] * nu[j - 1], 1e-12)
            ok = (E[j:] @ E[j - 1]) / denom < _COS_THRESH
        occluded[j:] |= ~ok
    return cand[kept].astype(np.int32)


def select_rows(
    vecs: np.ndarray,
    lists: tuple[np.ndarray, ...],
    ids,
    gamma: int,
    *,
    strategy: str = "mrng",
    alpha: float = 1.2,
) -> list[np.ndarray]:
    """Candidate acquisition (②) and selection (③) for the vertices
    ``ids`` on one machine: each vertex's kept neighbors (int32,
    admission order). ``lists`` are the ``-1``-padded adjacency matrices
    whose two-hop union forms ``C(o)``."""
    rows = []
    for o in ids:
        direct = np.concatenate([adj[o] for adj in lists])
        direct = direct[direct >= 0]
        two_hop = [adj[direct].ravel() for adj in lists]
        cand = np.unique(np.concatenate([direct, *two_hop]))
        cand = cand[(cand != o) & (cand >= 0)]
        rows.append(_occlusion_scan(o, cand, vecs, gamma, strategy, alpha))
    return rows


def select_neighbors(
    spark: SparkSession,
    vecs_b,
    lists: tuple[np.ndarray, ...],
    gamma: int,
    *,
    strategy: str = "mrng",
    alpha: float = 1.2,
) -> np.ndarray:
    """Components ②③ as one distributed pass; returns padded (n, gamma).

    ``vecs_b`` is a broadcast of the (n, D) concat matrix; ``lists`` are
    the adjacency matrices of :func:`select_rows` (each broadcast here):
    ``(knn,)`` to prune the component-① graph, ``(N, R)`` for a sweep of
    ① itself.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")

    def prune(ids: np.ndarray, vecs, *adj) -> pd.DataFrame:
        nbrs = select_rows(vecs, adj, ids, gamma, strategy=strategy, alpha=alpha)
        return pd.DataFrame({"id": ids, "nbrs": nbrs})

    n = lists[0].shape[0]
    result = spark_map.collect(
        spark, n, prune, "id long, nbrs array<int>", vecs_b, *lists
    )
    return spark_map.scatter_rows(result, n, gamma)
