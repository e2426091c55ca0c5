"""Similarity kernels shared by every index and search path.

All vectors are L2-normalized per modality (paper §III), so inner product
(IP) is the similarity and ``IP = 1 - 0.5 * ||a-b||^2`` (paper Eq. 8).
The *joint* similarity between multi-vector objects is the weighted sum of
per-modality IPs with weights ``w_i = omega_i^2`` (paper Lemma 1):

    IP(q_hat, o_hat) = sum_i w_i * IP(phi_i(q), phi_i(o))

The kernels operate on per-modality numpy matrices. The same joint IP as
a Catalyst expression over ``array<double>`` columns, for the DuckDB
oracle, is kept in ``tests/reference_sql.py``.

Input contract (checked before any Spark job by every entry point that
takes vectors or weights): m object matrices with the same row count,
rows of L2 norm <= 1 (Lemma 4 bounds every IP by 1 on both sides; zero
rows pass), m finite weights >= 0, and query matrices of one row count
with their object modality's column count (:func:`query_weights`); the
graph search also needs query rows of L2 norm <= 1.
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


# Lemma 4 prunes with the bound IP <= 1, so a row's L2 norm may exceed 1
# only by float32 rounding of a normalized row (zero rows pass)
NORM_TOL = 1e-4


def check_unit_norm(mats: Sequence[np.ndarray | None], side: str) -> None:
    """Raise ``ValueError`` naming the first row of ``mats`` (``None``
    entries skipped) whose L2 norm exceeds ``1 + NORM_TOL``, or is NaN."""
    for i, a in enumerate(mats):
        if a is None:
            continue
        norms = np.linalg.norm(np.asarray(a, np.float64), axis=1)
        bad = np.flatnonzero(~(norms <= 1.0 + NORM_TOL))  # NaN fails too
        if len(bad):
            raise ValueError(
                f"{side} modality {i}, row {bad[0]}: L2 norm {norms[bad[0]]:.6g} > 1; "
                f"normalize {side} vectors (Lemma 4 assumes IP <= 1)"
            )


def check_weights(weights: Sequence[float], m: int) -> np.ndarray:
    """``weights`` as float64 ``(m,)``; ``ValueError`` unless there are
    ``m`` of them, all finite and >= 0."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ValueError(f"expected {m} modality weights, got {list(np.ravel(w))}")
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        raise ValueError(f"modality weights must be finite and >= 0, got {w.tolist()}")
    return w


def check_objects(obj_mats: Sequence[np.ndarray]) -> None:
    """``ValueError`` unless the object matrices are 2-D with one row
    count and rows of L2 norm <= 1."""
    if not obj_mats:
        raise ValueError("at least one object modality is needed")
    shapes = [np.shape(a) for a in obj_mats]
    if any(len(s) != 2 for s in shapes) or len({s[0] for s in shapes}) != 1:
        raise ValueError(f"object modalities must be 2-D with one row count, got shapes {shapes}")
    check_unit_norm(obj_mats, "object")


def query_weights(
    qry_mats: Sequence[np.ndarray | None],
    weights: Sequence[float],
    obj_mats: Sequence[np.ndarray],
) -> tuple[list[float], int]:
    """The weights a query batch is scored under, and its size: an absent
    query modality (``qry_mats[i] is None``) gets weight 0 (§VII-B).
    There must be one weight per modality, finite and >= 0; the given
    query matrices must share one row count, and each must have its
    object modality's column count."""
    if len(qry_mats) != len(obj_mats):
        raise ValueError(f"{len(qry_mats)} query modalities for {len(obj_mats)} object modalities")
    w = check_weights(weights, len(obj_mats))
    given = [(i, np.shape(q)) for i, q in enumerate(qry_mats) if q is not None]
    if not given:
        raise ValueError("every query modality is None; at least one must be given")
    nq = given[0][1][0]
    for i, shape in given:
        want = (nq, np.shape(obj_mats[i])[1])
        if shape != want:
            raise ValueError(
                f"query modality {i} has shape {shape}, expected {want}: one row "
                "count across query modalities, its object modality's column count"
            )
    return [float(x) if q is not None else 0.0 for q, x in zip(qry_mats, w)], nq
