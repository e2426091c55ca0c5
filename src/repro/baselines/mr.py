"""Baseline 1: Multi-streamed Retrieval (paper §III, Fig. 2 upper-left).

MR builds one *single-modality* vector index per modality, answers each
sub-query independently (top-``l_cand`` per modality), and merges by
candidate-set **intersection** — the paper's rule when modality
importance is unknown. Within the intersection, candidates are ordered
by rank-sum (no weights are available to MR by construction); when the
intersection has fewer than ``k`` objects the remainder is padded by
rank-sum over the union so a fixed-size result list always exists
(documented choice; the paper's MR likewise returns top-k from merged
candidates). ``MR--`` replaces each graph search with the exact
distributed scan.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.fused_index import FusedIndex, build_fused_index
from repro.core.joint_search import SearchOutput, query_weights
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
        """t separate vector searches + intersection merge."""
        _, nq = query_weights(qry_mats, [1.0] * len(qry_mats))
        active = [i for i, q in enumerate(qry_mats) if q is not None]
        t0 = time.perf_counter()
        per_mod: list[np.ndarray] = []
        for i in active:
            sub = Must(
                spark=self.spark,
                obj_mats=[self.obj_mats[i]],
                weights=np.array([1.0]),
                index=None if self.indexes is None else self.indexes[i],
            )
            out = sub.search([qry_mats[i]], k=l_cand, l=l_cand, seed=seed)
            per_mod.append(out.ids)

        # Merge: intersection first (rank-sum order), then union pad.
        ids = np.full((nq, k), -1, dtype=np.int64)
        ips = np.zeros((nq, k))
        big = 10 * l_cand  # rank charged to a modality that missed the object
        for j in range(nq):
            ranksum: dict[int, int] = {}
            seen_in: dict[int, int] = {}
            for cand in per_mod:
                for r, o in enumerate(cand[j], start=1):
                    if o < 0:
                        continue
                    ranksum[o] = ranksum.get(o, 0) + r
                    seen_in[o] = seen_in.get(o, 0) + 1
            t_mod = len(per_mod)
            inter = [o for o, c in seen_in.items() if c == t_mod]
            inter.sort(key=lambda o: (ranksum[o], o))
            rest = [o for o in seen_in if seen_in[o] < t_mod]
            rest.sort(
                key=lambda o: (ranksum[o] + big * (t_mod - seen_in[o]), o)
            )
            merged = (inter + rest)[:k]
            ids[j, : len(merged)] = merged
        elapsed = time.perf_counter() - t0
        return SearchOutput(ids=ids, ips=ips, elapsed_s=elapsed, stats={})


def fit_mr(
    spark: SparkSession,
    obj_mats: list[np.ndarray],
    *,
    brute: bool = False,
    gamma: int = 30,
    eps: int = 3,
    seed: int = 0,
) -> MR:
    """Build MR: m single-modality graph indexes (skipped for MR--)."""
    obj_mats = [np.ascontiguousarray(a, np.float32) for a in obj_mats]
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
