"""Reference NNDescent sweep: the per-vertex refinement kernel.

This is the straightforward form of one sweep of component ①: every
vertex merges its neighbors and reverse neighbors with their neighbors
and reverse neighbors, and keeps the ``gamma`` with the highest IP.
``repro.ann.nndescent.nndescent_pass`` computes the same lists as
candidate acquisition over ``(N, R)`` plus the ``none`` selection rule
of ``repro.ann.pruning``; the tests compare the two with
``np.array_equal``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def reverse_lists(nbrs: np.ndarray, gamma: int) -> np.ndarray:
    """``R(o)``: the first ``gamma`` vertices listing ``o``, by vertex id
    and then list position; ``-1`` fill."""
    n = nbrs.shape[0]
    rev = np.full((n, gamma), -1, dtype=np.int32)
    count = np.zeros(n, dtype=np.int64)
    for src in range(n):
        for dst in nbrs[src]:
            if dst >= 0 and count[dst] < gamma:
                rev[dst, count[dst]] = src
                count[dst] += 1
    return rev


def reference_pass(vecs: np.ndarray, nbrs: np.ndarray, gamma: int) -> np.ndarray:
    """One sweep over all vertices on one machine: padded ``(n, gamma)``."""
    n = nbrs.shape[0]
    rev = reverse_lists(nbrs, gamma)

    def refine(ids: np.ndarray, vecs, prev, prev_rev) -> pd.DataFrame:
        out_nbrs = []
        for o in ids:
            base = np.concatenate([prev[o], prev_rev[o]])
            base = base[base >= 0]
            cand = np.unique(
                np.concatenate([base, prev[base].ravel(), prev_rev[base].ravel()])
            )
            cand = cand[(cand != o) & (cand >= 0)]
            ips = vecs[cand] @ vecs[o]
            if len(cand) > gamma:
                keep = np.argpartition(-ips, gamma - 1)[:gamma]
                order = np.argsort(-ips[keep], kind="stable")
                cand = cand[keep][order]
            else:
                cand = cand[np.argsort(-ips, kind="stable")]
            out_nbrs.append(cand.astype(np.int32))
        return pd.DataFrame({"id": ids, "nbrs": out_nbrs})

    rows = refine(np.arange(n), vecs, nbrs, rev)
    out = np.full((n, gamma), -1, dtype=np.int32)
    for o, row in zip(rows["id"], rows["nbrs"]):
        out[o, : len(row)] = row
    return out
