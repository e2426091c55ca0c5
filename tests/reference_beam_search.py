"""Reference Algorithm 2 kernels, kept as test oracles.

:func:`beam_search` is the straightforward form of the paper's Algorithm 2
for one query, with the Lemma-4 multi-vector computation optimization in
:func:`_score_candidates`. :func:`beam_search_batch` is the first lockstep
form of it: a ``(batch, n)`` float64 score cache and expanded map, and a
full stable argsort of ``[pool | candidates]`` per iteration.
``repro.ann.beam_search.beam_search_batch`` runs the same algorithm with
pool-aligned state and an insertion merge; the tests compare it with
:func:`beam_search_batch` (identical ids, IPs and counters) and with
:func:`beam_search` (identical ids, IPs up to float32 summation order).
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


def beam_search_batch(
    q_mats: Sequence[np.ndarray | None],
    obj_mats: Sequence[np.ndarray],
    weights: Sequence[float],
    nbrs: np.ndarray,
    seed_vertex: int,
    k: int,
    l: int,
    qids: np.ndarray,
    *,
    rng_base: int = 0,
    optimize: bool = True,
) -> tuple[np.ndarray, np.ndarray, SearchStats]:
    """Lockstep-batched Algorithm 2: all queries of a batch expand one
    vertex per iteration, so candidate scoring and pool merging are a
    handful of vectorized numpy ops per iteration instead of per query.

    Query ``qid`` seeds its initial pool from
    ``default_rng((rng_base << 20) + qid)``, so its result does not depend
    on which batch it runs in. Matches the per-query reference kernel in
    ``tests/reference_beam_search.py`` (asserted in tests): identical ids;
    IPs agree up to float32 summation order.
    Returns ``(ids (b,k), ips (b,k), summed stats)``.
    """
    b = len(qids)
    n = obj_mats[0].shape[0]
    l = max(l, k)
    weights = np.asarray(weights, dtype=np.float64)
    m = len(obj_mats)
    order = sorted(
        (i for i in range(m) if weights[i] != 0.0 and q_mats[i] is not None),
        key=lambda i: -weights[i],
    )
    stats = SearchStats()

    scores = np.full((b, n), np.nan, dtype=np.float64)
    expanded = np.zeros((b, n), dtype=bool)
    qvecs = [None if q_mats[i] is None else q_mats[i][qids] for i in range(m)]

    def score_flat(rows: np.ndarray, cols: np.ndarray, thresholds: np.ndarray):
        """Joint IP for (row, candidate) pairs with Lemma-4 pruning;
        pruned pairs get -inf. Vectorized over the flat pair list."""
        res = np.full(len(rows), -np.inf, dtype=np.float64)
        partial = np.zeros(len(rows), dtype=np.float64)
        alive = np.arange(len(rows))
        remaining = float(sum(weights[i] for i in order))
        stats.n_candidates += len(rows)
        for pos, i in enumerate(order):
            w = float(weights[i])
            ip = np.einsum(
                "ij,ij->i", obj_mats[i][cols[alive]], qvecs[i][rows[alive]]
            )
            stats.n_dots += len(alive)
            partial[alive] += w * ip
            remaining -= w
            if optimize and pos < len(order) - 1:
                bound = partial[alive] + remaining
                keep = bound > thresholds[rows[alive]]
                pruned = np.count_nonzero(~keep)
                if pruned:
                    stats.n_dots_saved += pruned * (len(order) - pos - 1)
                    alive = alive[keep]
                    if len(alive) == 0:
                        break
        if len(alive):
            res[alive] = partial[alive]
        return res

    # init pools: seed + l-1 per-query random vertices
    pool = np.full((b, l), -1, dtype=np.int64)
    pool_len = np.zeros(b, dtype=np.int64)
    init_rows, init_cols = [], []
    inits = []
    for j, qid in enumerate(qids):
        g = np.random.default_rng((rng_base << 20) + int(qid))
        init = np.concatenate(
            [[seed_vertex], g.choice(n, size=min(l - 1, n - 1), replace=False)]
        )
        init = np.unique(init)
        inits.append(init)
        init_rows.extend([j] * len(init))
        init_cols.extend(init.tolist())
    init_rows = np.asarray(init_rows)
    init_cols = np.asarray(init_cols)
    vals = score_flat(init_rows, init_cols, np.full(b, -np.inf))
    scores[init_rows, init_cols] = vals
    for j, init in enumerate(inits):
        srt = init[np.argsort(-scores[j, init], kind="stable")][:l]
        pool[j, : len(srt)] = srt
        pool_len[j] = len(srt)

    active = np.ones(b, dtype=bool)
    width = nbrs.shape[1]
    while active.any():
        rows = np.flatnonzero(active)
        # first unexpanded entry of each active pool (pools sorted desc)
        pv = pool[rows]
        unexp = (pv >= 0) & ~expanded[rows[:, None], np.maximum(pv, 0)]
        has = unexp.any(axis=1)
        done = rows[~has]
        active[done] = False
        rows = rows[has]
        if len(rows) == 0:
            break
        first = np.argmax(unexp[has], axis=1)
        v = pool[rows, first]
        expanded[rows, v] = True
        stats.n_expanded += len(rows)

        neigh = nbrs[v]  # (r, width)
        rrep = np.repeat(rows, width)
        nflat = neigh.ravel()
        ok = (
            (nflat >= 0)
            & ~expanded[rrep, np.maximum(nflat, 0)]
            & np.isnan(scores[rrep, np.maximum(nflat, 0)])
        )
        rrep, nflat = rrep[ok], nflat[ok]
        # drop duplicate (row, candidate) pairs (shared neighbors)
        if len(rrep):
            key = rrep * n + nflat
            _, uniq_idx = np.unique(key, return_index=True)
            rrep, nflat = rrep[uniq_idx], nflat[uniq_idx]
        if len(rrep) == 0:
            continue
        thresholds = np.where(
            pool_len >= l, scores[np.arange(b), pool[:, l - 1]], -np.inf
        )
        vals = score_flat(rrep, nflat, thresholds)
        scores[rrep, nflat] = vals
        good = vals > thresholds[rrep]
        rrep, nflat = rrep[good], nflat[good]
        if len(rrep) == 0:
            continue
        # batched merge: for every affected row, [pool | its candidates]
        # -> stable argsort desc -> first l. One argsort for all rows.
        aff = np.unique(rrep)
        pos_in_aff = np.searchsorted(aff, rrep)
        grp_order = np.argsort(pos_in_aff, kind="stable")
        pia_sorted = pos_in_aff[grp_order]
        nflat_sorted = nflat[grp_order]
        first = np.searchsorted(pia_sorted, np.arange(len(aff)))
        col = np.arange(len(pia_sorted)) - first[pia_sorted]
        maxc = int(col.max()) + 1
        cand_ids = np.full((len(aff), maxc), -1, dtype=np.int64)
        cand_sc = np.full((len(aff), maxc), -np.inf)
        cand_ids[pia_sorted, col] = nflat_sorted
        cand_sc[pia_sorted, col] = scores[aff[pia_sorted], nflat_sorted]
        pool_ids = pool[aff]
        pool_sc = np.where(
            pool_ids >= 0, scores[aff[:, None], np.maximum(pool_ids, 0)], -np.inf
        )
        merged_ids = np.concatenate([pool_ids, cand_ids], axis=1)
        merged_sc = np.concatenate([pool_sc, cand_sc], axis=1)
        srt = np.argsort(-merged_sc, axis=1, kind="stable")[:, :l]
        top_ids = np.take_along_axis(merged_ids, srt, axis=1)
        top_sc = np.take_along_axis(merged_sc, srt, axis=1)
        valid = top_sc > -np.inf
        pool[aff] = np.where(valid, top_ids, -1)
        pool_len[aff] = valid.sum(axis=1)

    ids = np.full((b, k), -1, dtype=np.int64)
    ips = np.full((b, k), -np.inf)
    for j in range(b):
        kk = min(k, pool_len[j])
        ids[j, :kk] = pool[j, :kk]
        ips[j, :kk] = scores[j, pool[j, :kk]]
    return ids, ips, stats
