"""Merging-free joint search over the fused index (paper Algorithm 2),
distributed over the query batch.

Queries are the distributed axis (:mod:`repro.spark_map` splits the
qids across partitions); the fused graph adjacency and the per-modality
object matrices ride along as broadcasts. Each worker runs the numpy
kernel :func:`repro.ann.beam_search.beam_search_batch` — lockstep-batched
greedy routing with the multi-vector computation optimization — over
``_BATCH``-query chunks of its queries and emits their top-k rows
(:func:`repro.spark_map.topk_rows`) plus per-chunk effort counters.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import spark_map
from repro.ann.beam_search import beam_search_batch
from repro.ann.distance import check_unit_norm, query_weights
from repro.core.fused_index import FusedIndex

# queries per lockstep batch inside a partition. The kernel's per-object
# state is one (batch, n) bool "scored" map: 256 B per object at any n,
# below the 288 B of the former 32-query batch with its float64 score
# cache and bool expanded map (9 B per object and query). The (batch, l)
# pools come on top, as before. A 128-query partition is one batch.
_BATCH = 256
_COUNTERS = ("n_expanded", "n_candidates", "n_dots", "n_dots_saved")


@dataclass
class SearchOutput:
    """Collected result of a distributed joint search."""

    ids: np.ndarray       # (nq, k) result object ids, rank order
    ips: np.ndarray       # (nq, k) joint IPs
    elapsed_s: float      # wall-clock of the whole distributed job
    stats: dict           # summed SearchStats counters over all queries,
                          # kernel seconds and the op's task count "parts"

    @property
    def qps(self) -> float:
        """Queries per second: #queries / response time (paper §VIII-A)."""
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
    (``qry_mats[i] is None``) contribute zero weight (§VII-B). Query rows
    must have L2 norm <= 1 (Lemma 4's bound); a longer row raises
    ``ValueError`` rather than silently losing neighbors."""
    weights, nq = query_weights(qry_mats, index.weights, obj_mats)
    check_unit_norm(qry_mats, "query")
    seed_vertex = index.graph.seed_vertex

    def run(qids_all: np.ndarray, obj, qry, nbrs) -> pd.DataFrame:
        frames = []
        for s in range(0, len(qids_all), _BATCH):
            qids = qids_all[s : s + _BATCH]
            t0 = time.perf_counter()
            ids, ips, st = beam_search_batch(
                qry, obj, weights, nbrs, seed_vertex, k, l, qids,
                rng_base=seed, optimize=optimize,
            )
            out = spark_map.topk_rows(qids, ids, ips, time.perf_counter() - t0)
            # per-batch effort counters, attributed to the batch's first
            # result row (rank 1, always a real object) so sums are exact
            for c in _COUNTERS:
                out[c] = 0
                out.loc[0, c] = getattr(st, c)
            frames.append(out)
        return pd.concat(frames, ignore_index=True)

    t0 = time.perf_counter()
    pdf = spark_map.collect(
        spark, nq, run,
        spark_map.TOPK_SCHEMA + "".join(f", {c} long" for c in _COUNTERS),
        [np.ascontiguousarray(a, np.float32) for a in obj_mats],
        [None if a is None else np.ascontiguousarray(a, np.float32) for a in qry_mats],
        index.graph.nbrs,
    )
    elapsed = time.perf_counter() - t0
    ids, ips = spark_map.scatter_topk(pdf, nq, k)
    stats = {c: int(pdf[c].sum()) for c in _COUNTERS}
    stats["compute_s"] = float(pdf["compute_s"].sum())
    stats["parts"] = pdf.attrs["parts"]
    return SearchOutput(ids=ids, ips=ips, elapsed_s=elapsed, stats=stats)
