"""Reference MR search: the oracle ``MR.search`` is checked against.

One ``Must.search`` per active query modality (a Spark job each), then
a per-query dict merge: the intersection by (rank-sum, id), then the
rest of the union by (rank-sum + ``10 * l_cand`` per missed modality,
id). ``repro.baselines.mr`` runs MR-- as one stacked scan and merges
with array ops; both must return these ids exactly.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.mr import MR
from repro.ann.distance import query_weights
from repro.core.must import Must


def dict_merge(per_mod: list[np.ndarray], nq: int, k: int, l_cand: int) -> np.ndarray:
    """``t`` candidate arrays ``(nq, L)`` (``-1`` = no candidate) → merged
    ``(nq, k)`` ids, ``-1`` padded."""
    # Merge: intersection first (rank-sum order), then union pad.
    ids = np.full((nq, k), -1, dtype=np.int64)
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
    return ids


def mr_search(
    mr: MR, qry_mats: list[np.ndarray | None], k: int, l_cand: int, *, seed: int = 0
) -> np.ndarray:
    """t separate vector searches + intersection merge → ``(nq, k)`` ids."""
    _, nq = query_weights(qry_mats, [1.0] * len(qry_mats), mr.obj_mats)
    active = [i for i, q in enumerate(qry_mats) if q is not None]
    per_mod: list[np.ndarray] = []
    for i in active:
        sub = Must(
            spark=mr.spark,
            obj_mats=[mr.obj_mats[i]],
            weights=np.array([1.0]),
            index=None if mr.indexes is None else mr.indexes[i],
        )
        out = sub.search([qry_mats[i]], k=l_cand, l=l_cand, seed=seed)
        per_mod.append(out.ids)
    return dict_merge(per_mod, nq, k, l_cand)
