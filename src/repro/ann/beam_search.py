"""Greedy joint search on a proximity graph (paper Algorithm 2).

:func:`beam_search_batch` is the kernel: plain numpy over a batch of
queries, distributed over queries by
:func:`repro.core.joint_search.joint_search` (graph adjacency and
per-modality object matrices ride along as broadcasts).

Implements the paper's **multi-vector computation optimization**
(§VII-B, Lemma 4): per-modality IPs of a candidate are accumulated
incrementally and a candidate is discarded as soon as its joint-IP upper
bound (partial sum + sum of remaining modality weights, valid because
normalized vectors have ``IP <= 1``) falls below the worst element of
the result set. Pruning counters are reported so the ablation
(paper Fig. 10(c)) can quantify the saved modality-dot-products.

State is pool-aligned, so an iteration touches its new candidates, one
flag per pool slot, and the pool tails the candidates land in:

* each query's result pool R is three ``(b, l)`` arrays that move
  together -- ids, joint IPs and "expanded" flags -- sorted by IP
  descending (empty slots: id ``-1``, IP ``-inf``, flagged expanded);
* one ``(b, n)`` bool map marks every (query, object) pair already
  scored. An expanded vertex was always scored first, so "not scored" is
  the whole test for a new candidate: 1 byte of state per object and
  query.

Merge by insertion: each admitted candidate's insertion point in its
sorted row is the number of pool entries whose IP is ``>=`` its own
(bisection). The step's candidates are inserted there, in descending
IP with ties in ascending id, and the row is cut back to ``l``; only
the row's tail from its first insertion point moves. That
is the order a stable descending sort of ``[pool | candidates in
ascending id]`` gives -- on equal IPs, pool entries first, then
candidates by id -- so ids, IPs and counters are bit-identical to the
argsort merge this replaced (kept as the test oracle
``beam_search_batch`` in ``tests/reference_beam_search.py``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class SearchStats:
    """Per-query search effort counters."""

    n_expanded: int = 0       # vertices whose neighbor list was visited
    n_candidates: int = 0     # candidate vertices scored
    n_dots: int = 0           # modality-level dot products actually computed
    n_dots_saved: int = 0     # modality-level dot products skipped by Lemma 4


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
    on which batch it runs in. Matches the reference kernels in
    ``tests/reference_beam_search.py`` (asserted in tests): the lockstep
    one exactly (ids, IPs, counters), the per-query one in ids with IPs
    up to float32 summation order.
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

    scored = np.zeros((b, n), dtype=bool)
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

    # init pools: seed + l-1 per-query random vertices (at most l ids)
    inits = []
    for qid in qids:
        g = np.random.default_rng((rng_base << 20) + int(qid))
        init = np.concatenate(
            [[seed_vertex], g.choice(n, size=min(l - 1, n - 1), replace=False)]
        )
        inits.append(np.unique(init))
    init_rows = np.repeat(np.arange(b), [len(init) for init in inits])
    init_cols = np.concatenate(inits)
    vals = score_flat(init_rows, init_cols, np.full(b, -np.inf))
    scored[init_rows, init_cols] = True
    srt = np.lexsort((-vals, init_rows))  # by row, IP desc, ties by id
    slot = np.arange(len(srt)) - np.searchsorted(init_rows, init_rows)
    pool = np.full((b, l), -1, dtype=np.int64)
    pool_sc = np.full((b, l), -np.inf)
    pool_exp = np.ones((b, l), dtype=bool)  # an empty slot has nothing to expand
    pool[init_rows, slot] = init_cols[srt]
    pool_sc[init_rows, slot] = vals[srt]
    pool_exp[init_rows, slot] = False

    active = np.arange(b)
    steps = int(l - 1).bit_length()
    while len(active):
        # first unexpanded entry of each active pool (pools sorted desc)
        unexp = ~pool_exp[active]
        first = np.argmax(unexp, axis=1)
        has = unexp[np.arange(len(active)), first]
        active, first = active[has], first[has]
        if len(active) == 0:
            break
        v = pool[active, first]
        pool_exp[active, first] = True
        stats.n_expanded += len(active)

        # candidates: unscored neighbors, per row in ascending id, once each
        neigh = np.sort(nbrs[v], axis=1)
        fresh = neigh >= 0
        fresh[:, 1:] &= neigh[:, 1:] != neigh[:, :-1]
        rrep = np.broadcast_to(active[:, None], neigh.shape)[fresh]
        nflat = neigh[fresh]
        unseen = ~scored[rrep, nflat]
        rrep, nflat = rrep[unseen], nflat[unseen]
        if len(rrep) == 0:
            continue
        scored[rrep, nflat] = True
        thresholds = pool_sc[:, l - 1]  # -inf while a pool is not full
        vals = score_flat(rrep, nflat, thresholds)
        good = vals > thresholds[rrep]
        if not good.any():
            continue
        # insertion merge: candidates by row, IP desc, ties in ascending id
        # (their order so far); each goes after every pool entry with IP >=
        # its own. good => IP > pool_sc[row, l-1], so that count is < l.
        srt = np.flatnonzero(good)[np.lexsort((-vals[good], rrep[good]))]
        rrep, nflat, vals = rrep[srt], nflat[srt], vals[srt]
        base = rrep * l
        flat_sc = pool_sc.reshape(-1)
        lo = np.zeros(len(rrep), dtype=np.int64)
        hi = np.full(len(rrep), l - 1, dtype=np.int64)
        for _ in range(steps):
            mid = (lo + hi) >> 1
            ge = flat_sc[base + mid] >= vals
            lo = np.where(ge, mid + 1, lo)
            hi = np.where(ge, hi, mid)
        # Only each affected row's tail, from its first insertion point,
        # changes. One permutation of [tails | candidates] serves all three
        # arrays: np.insert the candidates' indices at their points (equal
        # points keep argument order), cut each tail back to its length.
        head = np.flatnonzero(np.r_[True, rrep[1:] != rrep[:-1]])
        seg = l - lo[head]
        cum = np.cumsum(seg) - seg
        tails = np.repeat(base[head] + lo[head] - cum, seg) + np.arange(cum[-1] + seg[-1])
        at = np.repeat(cum - lo[head], np.diff(np.r_[head, len(rrep)])) + lo
        keep = np.arange(len(tails)) + np.repeat(head, seg)
        perm = np.insert(np.arange(len(tails)), at, len(tails) + np.arange(len(at)))[keep]
        unexpanded = np.zeros(len(at), dtype=bool)
        for arr, new in ((pool, nflat), (pool_sc, vals), (pool_exp, unexpanded)):
            flat = arr.reshape(-1)
            flat[tails] = np.concatenate((flat[tails], new))[perm]

    return pool[:, :k].copy(), pool_sc[:, :k].copy(), stats
