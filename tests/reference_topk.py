"""Reference top-k: the oracle ``repro.ann.distance.topk_from_scores`` is
checked against.

A stable argsort of every score, descending, cut to ``k``: ties resolve
to the smallest index. ``topk_from_scores`` sorts only the scores at or
above each row's k-th largest and must return these indices and values
exactly.
"""
from __future__ import annotations

import numpy as np


def topk_full_sort(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k (indices, values) by descending score, ties by index."""
    n = scores.shape[-1]
    k = min(k, n)
    idx = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    vals = np.take_along_axis(scores, idx, axis=-1)
    return idx, vals
