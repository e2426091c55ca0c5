"""Evaluation metrics of the paper: Recall@k(k') and SME (§VIII-A); QPS
is :attr:`repro.core.joint_search.SearchOutput.qps`."""
from __future__ import annotations

import numpy as np


def recall_at_k(results: np.ndarray, gt: np.ndarray, k: int) -> float:
    """Mean ``Recall@k(k')`` (paper Eq. 1) over a query batch.

    ``results`` is ``(nq, >=k)`` returned object ids (rank order,
    ``-1`` padding allowed); ``gt`` is ``(nq,)`` for k'=1 or ``(nq, k')``
    for exact-neighbor ground truth.
    """
    if gt.ndim == 1:
        gt = gt[:, None]
    nq, kp = gt.shape
    hits = 0
    for j in range(nq):
        top = results[j, :k]
        hits += len(set(top[top >= 0]).intersection(gt[j]))
    return hits / (nq * kp)


def sme(results: np.ndarray, gt: np.ndarray, target_obj_mat: np.ndarray) -> float:
    """Mean similarity measure error (paper Eq. 4) of the top-1 result.

    ``SME(a, r) = 1 - IP(phi_0(a^0), phi_0(r^0))`` in the target-modality
    object space; queries whose result list is empty count the full error.
    """
    errs = []
    for j in range(gt.shape[0]):
        r = results[j, 0] if results.shape[1] > 0 else -1
        if r < 0:
            errs.append(1.0)
            continue
        a = int(gt[j]) if gt.ndim == 1 else int(gt[j, 0])
        errs.append(1.0 - float(target_obj_mat[a] @ target_obj_mat[int(r)]))
    return float(np.mean(errs))
