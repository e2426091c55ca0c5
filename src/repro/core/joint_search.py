"""Merging-free joint search over the fused index (paper Algorithm 2),
distributed over the query batch.

Queries are the distributed axis (a DataFrame of qids split across
partitions); the fused graph adjacency and the per-modality object
matrices ride along as broadcasts. Each worker runs the numpy kernel
:func:`repro.ann.beam_search.beam_search` — greedy routing with the
multi-vector computation optimization — for its queries and emits
``(qid, oid, rank, ip_joint)`` rows plus per-query effort counters.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.ann.beam_search import beam_search_batch
from repro.core.fused_index import FusedIndex

# queries per lockstep batch inside a partition; bounds the (batch, n)
# score-cache memory at large n while amortizing numpy call overhead
_BATCH = 32


@dataclass
class SearchOutput:
    """Collected result of a distributed joint search."""

    ids: np.ndarray       # (nq, k) result object ids, rank order
    ips: np.ndarray       # (nq, k) joint IPs
    elapsed_s: float      # wall-clock of the whole distributed job
    stats: dict           # summed SearchStats counters over all queries

    @property
    def qps(self) -> float:
        return self.ids.shape[0] / max(self.elapsed_s, 1e-9)


def joint_search(
    spark: SparkSession,
    qry_mats: Sequence[np.ndarray | None],
    obj_mats: Sequence[np.ndarray],
    index: FusedIndex,
    k: int,
    l: int,
    *,
    optimize: bool = True,
    seed: int = 0,
) -> SearchOutput:
    """Distributed Algorithm 2 over all queries; absent query modalities
    (``qry_mats[i] is None``) contribute zero weight (§VII-B)."""
    m = len(obj_mats)
    nq = next(a for a in qry_mats if a is not None).shape[0]
    weights = [
        float(w) if qry_mats[i] is not None else 0.0
        for i, w in enumerate(index.weights)
    ]
    seed_vertex = index.graph.seed_vertex

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        obj = b_obj.value
        qry = b_qry.value
        nbrs = b_nbrs.value
        for pdf in batches:
            qids_all = pdf["qid"].to_numpy()
            for s in range(0, len(qids_all), _BATCH):
                qids = qids_all[s : s + _BATCH]
                if len(qids) == 0:
                    continue
                t0 = time.perf_counter()
                ids, ips, st = beam_search_batch(
                    qry, obj, weights, nbrs, seed_vertex, k, l, qids,
                    rng_base=seed, optimize=optimize,
                )
                dt = time.perf_counter() - t0
                kk = ids.shape[1]
                out = pd.DataFrame(
                    {
                        "qid": np.repeat(qids, kk),
                        "oid": ids.ravel(),
                        "rank": np.tile(np.arange(1, kk + 1), len(qids)),
                        "ip_joint": ips.ravel(),
                        "compute_s": dt / (len(qids) * kk),
                    }
                )
                # per-batch effort counters, attributed to the batch's
                # first result row so global sums are exact
                for c, val in (
                    ("n_expanded", st.n_expanded),
                    ("n_candidates", st.n_candidates),
                    ("n_dots", st.n_dots),
                    ("n_dots_saved", st.n_dots_saved),
                ):
                    out[c] = 0
                    out.loc[0, c] = val
                yield out[out["oid"] >= 0]

    parts = spark.sparkContext.defaultParallelism
    qid_df = spark.createDataFrame(
        pd.DataFrame({"qid": np.arange(nq, dtype=np.int64)})
    ).repartition(min(parts, nq))
    sc = spark.sparkContext
    b_obj = sc.broadcast([np.ascontiguousarray(a, np.float32) for a in obj_mats])
    b_qry = sc.broadcast(
        [None if a is None else np.ascontiguousarray(a, np.float32) for a in qry_mats]
    )
    b_nbrs = sc.broadcast(index.graph.nbrs)
    t0 = time.perf_counter()
    try:
        pdf = (
            qid_df.mapInPandas(
                run,
                schema="qid long, oid long, rank int, ip_joint double, compute_s double, "
                "n_expanded long, n_candidates long, n_dots long, n_dots_saved long",
            )
            .toPandas()
            .sort_values(["qid", "rank"])
        )
        elapsed = time.perf_counter() - t0
    finally:
        for b in (b_obj, b_qry, b_nbrs):
            b.destroy()

    ids = np.full((nq, k), -1, dtype=np.int64)
    ips = np.full((nq, k), -np.inf)
    for qid, grp in pdf.groupby("qid"):
        kk = min(len(grp), k)
        ids[qid, :kk] = grp["oid"].to_numpy()[:k]
        ips[qid, :kk] = grp["ip_joint"].to_numpy()[:k]
    stats = {
        c: int(pdf[c].sum())
        for c in ("n_expanded", "n_candidates", "n_dots", "n_dots_saved")
    }
    stats["compute_s"] = float(pdf["compute_s"].sum())
    return SearchOutput(ids=ids, ips=ips, elapsed_s=elapsed, stats=stats)
