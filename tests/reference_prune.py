"""Reference neighbor selection: the per-candidate greedy loop.

This is the straightforward form of components ②③: for every candidate
``v`` of ``C(o) = N(o) ∪ N(N(o))``, in descending ``IP(o, v)`` order,
re-gather the vectors of the neighbors kept so far and test ``v``
against all of them. ``repro.ann.pruning`` computes the same rows with
an occlusion scan; the tests compare the two with ``np.array_equal``.
"""
from __future__ import annotations

import numpy as np


def _select_one(
    o: int,
    cand: np.ndarray,
    vecs: np.ndarray,
    gamma: int,
    strategy: str,
    alpha: float,
    cos_thresh: float,
) -> np.ndarray:
    """Apply one vertex's neighbor selection; ``cand`` sorted by IP desc."""
    if strategy == "none":
        return cand[:gamma]
    kept: list[int] = []
    vo = vecs[o]
    for v in cand:
        if len(kept) >= gamma:
            break
        if not kept:
            kept.append(int(v))
            continue
        ku = vecs[kept]  # (|kept|, D)
        if strategy == "mrng":
            # IP(o,v) > IP(u,v) for all kept u
            ok = bool(np.all(vecs[v] @ vo > ku @ vecs[v]))
        elif strategy == "alpha":
            # distances on normalized vectors: d^2 = 2 - 2*IP
            d_ov = max(2.0 - 2.0 * float(vecs[v] @ vo), 0.0)
            d_uv = np.maximum(2.0 - 2.0 * (ku @ vecs[v]), 0.0)
            ok = bool(np.all(alpha * alpha * d_uv > d_ov))
        else:  # angle
            ev = vecs[v] - vo
            eu = ku - vo
            nv = np.linalg.norm(ev)
            nu = np.linalg.norm(eu, axis=1)
            denom = np.maximum(nv * nu, 1e-12)
            cosang = (eu @ ev) / denom
            ok = bool(np.all(cosang < cos_thresh))
        if ok:
            kept.append(int(v))
    return np.asarray(kept, dtype=np.int32)


def reference_select(
    vecs: np.ndarray,
    knn: np.ndarray,
    ids,
    gamma: int,
    *,
    strategy: str = "mrng",
    alpha: float = 1.2,
    angle_deg: float = 60.0,
) -> list[np.ndarray]:
    """Kept neighbors of every vertex in ``ids``, in admission order."""
    cos_thresh = float(np.cos(np.deg2rad(angle_deg)))
    rows = []
    for o in ids:
        direct = knn[o]
        direct = direct[direct >= 0]
        cand = np.unique(np.concatenate([direct, knn[direct].ravel()]))
        cand = cand[(cand != o) & (cand >= 0)]
        ips = vecs[cand] @ vecs[o]
        cand = cand[np.argsort(-ips, kind="stable")]
        rows.append(_select_one(o, cand, vecs, gamma, strategy, alpha, cos_thresh))
    return rows
