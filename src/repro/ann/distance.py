"""Similarity kernels shared by every index and search path.

All vectors are L2-normalized per modality (paper §III), so inner product
(IP) is the similarity and ``IP = 1 - 0.5 * ||a-b||^2`` (paper Eq. 8).
The *joint* similarity between multi-vector objects is the weighted sum of
per-modality IPs with weights ``w_i = omega_i^2`` (paper Lemma 1):

    IP(q_hat, o_hat) = sum_i w_i * IP(phi_i(q), phi_i(o))

The kernels operate on per-modality numpy matrices. The same joint IP as
a Catalyst expression over ``array<double>`` columns, for the DuckDB
oracle, is kept in ``tests/reference_sql.py``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def normalize(mat: np.ndarray) -> np.ndarray:
    """L2-normalize rows of ``mat``; zero rows are left at zero."""
    mat = np.asarray(mat, dtype=np.float32)
    norms = np.linalg.norm(mat, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def joint_ip_matrix(
    q_mats: Sequence[np.ndarray],
    o_mats: Sequence[np.ndarray],
    weights: Sequence[float],
) -> np.ndarray:
    """Joint similarity matrix (nq, n) per Lemma 1.

    Modalities absent from the query (``q_mats[i] is None``) contribute
    zero, matching the paper's ``omega_i = 0 for t <= i < m`` rule.
    """
    out: np.ndarray | None = None
    for q, o, w in zip(q_mats, o_mats, weights):
        if q is None or w == 0.0:
            continue
        term = (q @ o.T) * np.float32(w)
        out = term if out is None else out + term
    if out is None:
        raise ValueError("query has no active modalities")
    return out


def concat_weighted(mats: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Concatenated vectors ``[sqrt(w_0)*v_0, ..., sqrt(w_m-1)*v_m-1]``.

    A plain dot product of two such concatenations equals the joint
    similarity (Lemma 1), which is what the fused index is built on.
    """
    parts = [m * np.float32(np.sqrt(w)) for m, w in zip(mats, weights)]
    return np.ascontiguousarray(np.concatenate(parts, axis=1), dtype=np.float32)


def topk_from_scores(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k (indices, values) by descending score, ties by index.

    Deterministic: the order of a *stable* sort on descending score, so
    ties resolve to the smallest index — matching the SQL/DuckDB
    oracle's ``ORDER BY ip DESC, id ASC``. Only the head is sorted:
    ``np.partition`` finds each row's k-th largest score, every score
    >= it survives (so ties across the boundary do too), and the
    survivors are stable-sorted by (row, -score), in index order. A row
    with fewer than k non-NaN scores keeps all of them, NaN last, as the
    full sort does.
    """
    n = scores.shape[-1]
    k = min(k, n)
    neg = -scores.reshape(-1, n)
    idx = np.empty((len(neg), k), dtype=np.intp)
    if k:
        kth = np.partition(neg, k - 1, axis=-1)[:, k - 1 : k]
        rows, cols = np.nonzero((neg <= kth) | np.isnan(kth))
        order = np.lexsort((neg[rows, cols], rows))
        count = np.bincount(rows, minlength=len(neg))
        idx = cols[order][(np.cumsum(count) - count)[:, None] + np.arange(k)]
    idx = idx.reshape(scores.shape[:-1] + (k,))
    return idx, np.take_along_axis(scores, idx, axis=-1)
