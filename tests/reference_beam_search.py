"""Reference Algorithm 2: the per-query greedy search kernel.

This is the straightforward form of the paper's Algorithm 2 for one
query, with the Lemma-4 multi-vector computation optimization in
:func:`_score_candidates`. ``repro.ann.beam_search.beam_search_batch``
runs the same algorithm for a batch of queries in lockstep; the tests
compare the two (identical ids, IPs up to float32 summation order).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ann.beam_search import SearchStats


def _score_candidates(
    cand: np.ndarray,
    q_mats: Sequence[np.ndarray | None],
    obj_mats: Sequence[np.ndarray],
    weights: np.ndarray,
    threshold: float,
    optimize: bool,
    stats: SearchStats,
) -> np.ndarray:
    """Joint IP of candidates vs the query; pruned candidates get -inf.

    Scans modalities in order, keeping only candidates whose upper bound
    (partial joint IP + remaining weight mass) still beats ``threshold``.
    Lemma 4 guarantees pruned candidates cannot enter the result set.
    """
    m = len(obj_mats)
    # Scan modalities in descending weight order: the largest term is
    # resolved first, so the remaining-weight upper bound is tightest
    # (pure evaluation-order change — the final sums are identical).
    active_w = sorted(
        (i for i in range(m) if weights[i] != 0.0 and q_mats[i] is not None),
        key=lambda i: -weights[i],
    )
    scores = np.full(len(cand), -np.inf, dtype=np.float64)
    partial = np.zeros(len(cand), dtype=np.float64)
    alive = np.arange(len(cand))
    remaining = float(sum(weights[i] for i in active_w))
    stats.n_candidates += len(cand)
    for pos, i in enumerate(active_w):
        w = float(weights[i])
        ips = obj_mats[i][cand[alive]] @ q_mats[i]
        stats.n_dots += len(alive)
        partial[alive] += w * ips
        remaining -= w
        if optimize and pos < len(active_w) - 1:
            bound = partial[alive] + remaining
            keep = bound > threshold
            pruned = np.count_nonzero(~keep)
            if pruned:
                stats.n_dots_saved += pruned * (len(active_w) - pos - 1)
                alive = alive[keep]
                if len(alive) == 0:
                    break
    if len(alive):
        scores[alive] = partial[alive]
    return scores


def beam_search(
    q_mats: Sequence[np.ndarray | None],
    obj_mats: Sequence[np.ndarray],
    weights: Sequence[float],
    nbrs: np.ndarray,
    seed_vertex: int,
    k: int,
    l: int,
    *,
    rng: np.random.Generator | None = None,
    optimize: bool = True,
) -> tuple[np.ndarray, np.ndarray, SearchStats]:
    """Algorithm 2: greedy routing with result set size ``l >= k``.

    ``q_mats[i]`` is the query's i-th modality vector (or ``None`` when
    that modality is absent — its weight is treated as zero, §VII-B).
    ``nbrs`` is the padded adjacency matrix (-1 fill). Returns
    ``(top-k ids, their joint IPs, stats)``.
    """
    n = obj_mats[0].shape[0]
    l = max(l, k)
    weights = np.asarray(weights, dtype=np.float64)
    rng = rng or np.random.default_rng(0)
    stats = SearchStats()

    # R: fixed-size result pool, initialized with the seed vertex and
    # l-1 random vertices (paper Algorithm 2, lines 1-3).
    init = np.concatenate(
        [[seed_vertex], rng.choice(n, size=min(l - 1, n - 1), replace=False)]
    )
    init = np.unique(init)
    scores = np.full(n, np.nan, dtype=np.float64)  # score cache
    init_scores = _score_candidates(
        init, q_mats, obj_mats, weights, -np.inf, False, stats
    )
    scores[init] = init_scores

    r_ids = init[np.argsort(-init_scores, kind="stable")][:l]
    expanded = np.zeros(n, dtype=bool)  # H: visited (expanded) vertices

    while True:
        # unvisited vertex in R closest to q
        mask = ~expanded[r_ids]
        if not mask.any():
            break
        v = r_ids[mask][0]  # r_ids kept sorted by score desc
        expanded[v] = True
        stats.n_expanded += 1

        neigh = nbrs[v]
        neigh = neigh[neigh >= 0]
        neigh = neigh[~expanded[neigh]]
        # skip vertices already scored (they are in the cache / pool)
        neigh = neigh[np.isnan(scores[neigh])]
        if len(neigh) == 0:
            continue
        threshold = scores[r_ids[-1]] if len(r_ids) >= l else -np.inf
        c_scores = _score_candidates(
            neigh, q_mats, obj_mats, weights, threshold, optimize, stats
        )
        scores[neigh] = c_scores
        good = neigh[c_scores > threshold]
        if len(good) == 0:
            continue
        merged = np.concatenate([r_ids, good])
        order = np.argsort(-scores[merged], kind="stable")
        r_ids = merged[order][:l]

    top = r_ids[:k]
    return top, scores[top], stats
