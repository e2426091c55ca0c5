"""Baseline 1: Multi-streamed Retrieval (paper §III, Fig. 2 upper-left).

MR builds one *single-modality* vector index per modality, answers each
sub-query independently (top-``l_cand`` per modality), and merges by
candidate-set **intersection** — the paper's rule when modality
importance is unknown. Within the intersection, candidates are ordered
by rank-sum (no weights are available to MR by construction); when the
intersection has fewer than ``k`` objects the remainder is padded by
rank-sum over the union so a fixed-size result list always exists
(documented choice; the paper's MR likewise returns top-k from merged
candidates). ``MR--`` replaces the graph searches with one exact
distributed scan over all ``t`` sub-queries stacked (see :meth:`MR.search`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.ann.distance import check_objects, query_weights
from repro.core.fused_index import FusedIndex, build_fused_index
from repro.core.joint_search import SearchOutput
from repro.core.must import Must


@dataclass
class MR:
    """One single-modality index per modality (or none for MR--)."""

    spark: SparkSession
    obj_mats: list[np.ndarray]
    indexes: list[FusedIndex] | None
    build_seconds: float = 0.0

    def nbytes(self) -> int:
        return sum(ix.nbytes() for ix in self.indexes or [])

    def search(
        self,
        qry_mats: list[np.ndarray | None],
        k: int,
        l_cand: int,
        *,
        seed: int = 0,
    ) -> SearchOutput:
        """t separate vector searches + intersection merge. Reports the
        sub-searches' summed in-worker kernel seconds as
        ``stats["compute_s"]``, as :meth:`Must.search` does, and the
        largest sub-search's task count as ``stats["parts"]``.

        Graph MR searches each active modality's own index. MR-- runs the
        ``t`` sub-queries as ``t * nq`` rows of one exact scan over the
        active modalities under unit weights: sub-query ``(s, j)`` is query
        ``j``'s vector in modality ``active[s]`` and zeros elsewhere, so its
        joint IP is that modality's IP plus float32 zeros, which is the same
        value. Its candidates are the per-modality exact top-``l_cand``,
        ties to the smaller id, as ``t`` separate scans would return.
        """
        _, nq = query_weights(qry_mats, [1.0] * len(qry_mats), self.obj_mats)
        active = [i for i, q in enumerate(qry_mats) if q is not None]
        t = len(active)
        t0 = time.perf_counter()
        if self.indexes is None:
            stacked = [np.zeros((t, nq, self.obj_mats[i].shape[1]), np.float32) for i in active]
            for s, i in enumerate(active):
                stacked[s][s] = qry_mats[i]
            scan = Must(
                spark=self.spark,
                obj_mats=[self.obj_mats[i] for i in active],
                weights=np.ones(t),
                index=None,
            )
            outs = [scan.search([a.reshape(t * nq, -1) for a in stacked], k=l_cand, seed=seed)]
            cand = outs[0].ids.reshape(t, nq, l_cand).swapaxes(0, 1)
        else:
            outs = [
                Must(
                    spark=self.spark,
                    obj_mats=[self.obj_mats[i]],
                    weights=np.array([1.0]),
                    index=self.indexes[i],
                ).search([qry_mats[i]], k=l_cand, l=l_cand, seed=seed)
                for i in active
            ]
            cand = np.stack([out.ids for out in outs], axis=1)
        ids = merge_candidates(cand, k)
        elapsed = time.perf_counter() - t0
        stats = {
            "compute_s": sum(out.stats["compute_s"] for out in outs),
            "parts": max(out.stats["parts"] for out in outs),
        }
        return SearchOutput(ids=ids, ips=np.zeros((nq, k)), elapsed_s=elapsed, stats=stats)


def merge_candidates(cand: np.ndarray, k: int) -> np.ndarray:
    """MR's merge of ``(nq, t, L)`` candidate ids (``-1``: none) into
    ``(nq, k)`` ids, ``-1`` padded.

    An object's rank in a list is its 1-based position. Objects in all
    ``t`` lists come first, by (rank-sum, id); the rest of the union
    follows by (rank-sum + ``10 L`` per list that missed it, id).
    """
    nq, t, width = cand.shape
    ids = np.full((nq, k), -1, dtype=np.int64)
    valid = cand >= 0
    q, _, pos = np.nonzero(valid)
    if not len(q):
        return ids
    obj = cand[valid]
    # one group per (query, object), found by sorting one int64 key: its
    # size is the number of lists holding the object, its rank sum one
    # reduceat
    pair = q * (int(obj.max()) + 1) + obj
    order = np.argsort(pair)
    pair, q, obj, rank = pair[order], q[order], obj[order], pos[order] + 1
    start = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
    missed = t - np.diff(np.r_[start, len(q)])
    key = np.add.reduceat(rank, start) + 10 * width * missed  # <= 10 t L
    q, obj = q[start], obj[start]
    # the groups are in (query, id) order, so a stable sort on (query,
    # missed any list, key) keeps ties by id
    order = np.argsort((2 * q + (missed > 0)) * (10 * t * width + 1) + key, kind="stable")
    q, obj = q[order], obj[order]
    pos = np.arange(len(q)) - np.searchsorted(q, q)
    keep = pos < k
    ids[q[keep], pos[keep]] = obj[keep]
    return ids


def fit_mr(
    spark: SparkSession,
    obj_mats: list[np.ndarray],
    *,
    brute: bool = False,
    gamma: int = 30,
    eps: int = 3,
    seed: int = 0,
) -> MR:
    """Build MR: m single-modality graph indexes (skipped for MR--).

    The objects must meet :func:`check_objects` (``ValueError`` before
    any Spark job)."""
    obj_mats = [np.ascontiguousarray(a, np.float32) for a in obj_mats]
    check_objects(obj_mats)
    indexes = None
    t0 = time.perf_counter()
    if not brute:
        indexes = [
            build_fused_index(
                spark, [mat], [1.0], gamma=gamma, eps=eps, seed=seed + i
            )
            for i, mat in enumerate(obj_mats)
        ]
    return MR(
        spark=spark, obj_mats=obj_mats, indexes=indexes,
        build_seconds=time.perf_counter() - t0,
    )
