"""The list-of-lists connectivity repair (component ⑤) that
:func:`repro.ann.graphs.ensure_connectivity` replaced, kept as its test
oracle: the BFS walks Python lists, one vertex at a time, and the repair
edges are appended to those lists before the padded array is rebuilt.
"""
from __future__ import annotations

import numpy as np


def ensure_connectivity(nbrs: np.ndarray, seed_vertex: int, vecs: np.ndarray) -> np.ndarray:
    """Component ⑤: BFS from the seed; bridge unreached regions.

    Whenever BFS exhausts with unreached vertices left, an edge is added
    from the *nearest visited vertex* to one unreached vertex and BFS
    continues — the paper's repair rule. Runs on the driver over the
    collected adjacency (documented deviation, DESIGN.md §5).
    """
    n, width = nbrs.shape
    adj = [row[row >= 0].tolist() for row in nbrs]
    visited = np.zeros(n, dtype=bool)
    frontier = [seed_vertex]
    visited[seed_vertex] = True
    added: list[tuple[int, int]] = []
    while True:
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if not visited[u]:
                        visited[u] = True
                        nxt.append(u)
            frontier = nxt
        if visited.all():
            break
        unreached = np.flatnonzero(~visited)
        target = int(unreached[0])
        vis_ids = np.flatnonzero(visited)
        src = int(vis_ids[np.argmax(vecs[vis_ids] @ vecs[target])])
        adj[src].append(target)
        added.append((src, target))
        visited[target] = True
        frontier = [target]
    if not added:
        return nbrs
    new_width = max(width, max(len(a) for a in adj))
    out = np.full((n, new_width), -1, dtype=np.int32)
    for i, a in enumerate(adj):
        out[i, : len(a)] = a
    return out
