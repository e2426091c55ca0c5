"""Output checks. Each returns ``None`` when the output is correct and a
one-line reason otherwise; the caller counts the reason as a failed op."""
from __future__ import annotations

import numpy as np

from repro.ann.distance import joint_ip_matrix

# sgemm row blocking can reorder exact near-ties between two scans of the
# same scores; a swap is allowed only between scores this close
TIE_TOL = 1e-6


def result_ids(ids: np.ndarray, n: int, k: int) -> str | None:
    """Graph-search ids: shape ``(nq, k)``, in ``[0, n)``, no ``-1``,
    unique within each row."""
    if ids.ndim != 2 or ids.shape[1] != k:
        return f"ids shape {ids.shape}, expected (nq, {k})"
    if (ids < 0).any() or (ids >= n).any():
        return f"{int(((ids < 0) | (ids >= n)).sum())} ids out of [0, {n})"
    srt = np.sort(ids, axis=1)
    dup = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
    if dup.any():
        return f"{int(dup.sum())} rows repeat an id"
    return None


def exact_ids(
    ids: np.ndarray,
    qry: list[np.ndarray],
    obj: list[np.ndarray],
    weights,
    gt_ids: np.ndarray,
    gt_scores: np.ndarray,
) -> str | None:
    """Scan ids equal the exact top-k, up to swaps of near-tied scores."""
    if (msg := result_ids(ids, obj[0].shape[0], gt_ids.shape[1])) is not None:
        return msg
    for j in np.flatnonzero((ids != gt_ids).any(axis=1)):
        row = joint_ip_matrix([q[j : j + 1] for q in qry], obj, weights)[0]
        if not np.all(np.abs(row[ids[j]] - gt_scores[j]) <= TIE_TOL):
            return f"query row {j}: ids {ids[j].tolist()} != exact {gt_ids[j].tolist()}"
    return None


def reachable_frac(nbrs: np.ndarray, seed_vertex: int) -> float:
    """Share of vertices reachable from ``seed_vertex`` (array BFS)."""
    n = nbrs.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[seed_vertex] = True
    frontier = np.array([seed_vertex])
    while len(frontier):
        nxt = nbrs[frontier].ravel()
        nxt = np.unique(nxt[nxt >= 0])
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt
    return float(seen.mean())


def graph(nbrs: np.ndarray, seed_vertex: int) -> str | None:
    """Every built graph: no self-loops, all vertices reachable from the
    seed vertex (component ⑤'s guarantee)."""
    loops = int((nbrs == np.arange(nbrs.shape[0])[:, None]).sum())
    if loops:
        return f"{loops} self-loops"
    frac = reachable_frac(nbrs, seed_vertex)
    if frac != 1.0:
        return f"reachable_frac {frac:.6f} from seed {seed_vertex}"
    return None


def weights(w) -> str | None:
    """Learned weights are finite and non-negative."""
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)) or (w < 0).any():
        return f"learned weights {w.tolist()}"
    return None
