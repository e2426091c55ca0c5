"""Graph assembly: seed preprocessing, connectivity, named variants
(paper Algorithm 1 components ④⑤ and the §VIII-G ablation family).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession

from repro.ann.nndescent import build_knn_graph
from repro.ann.pruning import select_neighbors


@dataclass
class GraphIndex:
    """A built proximity graph over concatenated vectors.

    ``nbrs`` is a padded int32 adjacency (``-1`` fill; width may exceed
    gamma by a few connectivity-repair edges), ``seed_vertex`` the
    centroid-nearest start vertex (④), ``build_seconds`` the wall-clock
    build time, ``meta`` free-form provenance for the ablation tables.
    """

    nbrs: np.ndarray
    seed_vertex: int
    build_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.nbrs.shape[0]

    @property
    def n_edges(self) -> int:
        return int((self.nbrs >= 0).sum())

    def nbytes(self) -> int:
        return int(self.nbrs.nbytes)


def centroid_seed(vecs: np.ndarray) -> int:
    """Component ④: the vertex whose concat vector is nearest (by IP)
    to the centroid of all concat vectors."""
    centroid = vecs.mean(axis=0)
    return int(np.argmax(vecs @ centroid))


def ensure_connectivity(nbrs: np.ndarray, seed_vertex: int, vecs: np.ndarray) -> np.ndarray:
    """Component ⑤: BFS from the seed; bridge unreached regions.

    Whenever BFS exhausts with unreached vertices left, an edge is added
    from the *nearest visited vertex* to the lowest unreached id and BFS
    continues from there — the paper's repair rule. The BFS expands a
    whole frontier at a time over the padded array, on the driver
    (documented deviation, DESIGN.md §5). A graph that needs no repair
    comes back as given; otherwise each row keeps its edges as a prefix,
    followed by its repair edges in the order they were added, and the
    width grows to fit.
    """
    n = len(nbrs)
    visited = np.zeros(n, dtype=bool)
    visited[seed_vertex] = True
    frontier = np.array([seed_vertex])
    added: list[tuple[int, int]] = []
    while True:
        while len(frontier):
            reached = nbrs[frontier].ravel()
            reached = np.unique(reached[reached >= 0])
            frontier = reached[~visited[reached]]
            visited[frontier] = True
        if visited.all():
            break
        target = int(np.argmin(visited))
        vis_ids = np.flatnonzero(visited)
        src = int(vis_ids[np.argmax(vecs[vis_ids] @ vecs[target])])
        added.append((src, target))
        visited[target] = True
        frontier = np.array([target])
    if not added:
        return nbrs
    valid = nbrs >= 0
    deg = valid.sum(axis=1)
    extra = np.bincount([src for src, _ in added], minlength=n)
    out = np.full((n, max(nbrs.shape[1], int((deg + extra).max()))), -1, dtype=np.int32)
    out[np.nonzero(valid)[0], np.cumsum(valid, axis=1)[valid] - 1] = nbrs[valid]
    for src, target in added:
        out[src, deg[src]] = target
        deg[src] += 1
    return out


# Named variants for the §VIII-G ablation: (selection strategy, kwargs,
# whether to run connectivity repair). All share the component-① NNDescent
# initialization; differences are the re-assembled components, mirroring
# how the paper re-assembles KGraph/NSG/NSSG on its pipeline.
VARIANTS: dict[str, dict] = {
    "ours": {"strategy": "mrng", "connect": True},
    "kgraph": {"strategy": "none", "connect": False},
    "nssg": {"strategy": "angle", "connect": True},
    "vamana": {"strategy": "alpha", "alpha": 1.2, "connect": True},
}


def build_graph(
    spark: SparkSession,
    vecs: np.ndarray,
    *,
    gamma: int = 30,
    eps: int = 3,
    variant: str = "ours",
    seed: int = 0,
) -> GraphIndex:
    """Full Algorithm-1 pipeline (①-⑤) for a named variant."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {sorted(VARIANTS)}")
    cfg = VARIANTS[variant]
    vecs = np.ascontiguousarray(vecs, dtype=np.float32)
    t0 = time.perf_counter()
    vecs_b = spark.sparkContext.broadcast(vecs)
    try:
        knn = build_knn_graph(spark, vecs, gamma, eps=eps, seed=seed, vecs_b=vecs_b)
        if cfg["strategy"] == "none":
            nbrs = knn
        else:
            nbrs = select_neighbors(
                spark,
                vecs_b,
                (knn,),
                gamma,
                strategy=cfg["strategy"],
                alpha=cfg.get("alpha", 1.2),
            )
    finally:
        vecs_b.destroy()
    g = centroid_seed(vecs)
    if cfg["connect"]:
        nbrs = ensure_connectivity(nbrs, g, vecs)
    return GraphIndex(
        nbrs=nbrs,
        seed_vertex=g,
        build_seconds=time.perf_counter() - t0,
        meta={"variant": variant, "gamma": gamma, "eps": eps},
    )
