"""Span recorder for the traced run, and the per-layer metrics it yields.

The benchmark never edits ``src/``: :meth:`Tracer.install` replaces the
program's public functions at the module attributes their callers look
up (``repro.core.must.joint_search``, ``repro.ann.graphs.select_neighbors``,
...) with wrappers that record a span ``{name, start, end, parent,
op_id}``. Spans stay in memory and are written out when the run ends. A
layer's self time is its span minus the spans of its children.

Post-processing that needs the program's outputs (graph health, the
single-thread kernel replays, the mining scan timed alone) runs between
ops, outside every op span, and lands in :attr:`Tracer.samples`.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

from perfbench import checks
from perfbench.harness import median


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = False
        self.op_id: str | None = None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[dict] = []
        self._stash: dict[str, list] = defaultdict(list)

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the block; yields a dict the caller may
        fill with counts. Free when tracing is off."""
        if not self.enabled:
            yield {}
            return
        rec = {
            "name": name, "id": len(self.spans), "op_id": self.op_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(), "end": None, "info": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec["info"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(s["name"] == name for s in self._stack)

    def _wrap(self, module: str, attr: str, name: str, after=None) -> None:
        mod = importlib.import_module(module)
        orig = getattr(mod, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            with self.span(name) as info:
                out = orig(*args, **kwargs)
            if after is not None:
                after(info, args, kwargs, out)
            return out

        setattr(mod, attr, traced)

    def install(self) -> None:
        """Wrap each layer's public entry points where the program calls them."""
        w = self._wrap
        w("repro.core.weights", "topk_scan", "weights.mine", self._after_mine)
        w("repro.core.must", "build_fused_index", "fused.build")
        w("repro.core.fused_index", "build_graph", "graphs.build")
        w("repro.ann.graphs", "build_knn_graph", "nndescent.build", self._after_knn)
        w("repro.ann.nndescent", "nndescent_pass", "nndescent.pass")
        w("repro.ann.graphs", "select_neighbors", "prune.select", self._after_prune)
        w("repro.ann.graphs", "centroid_seed", "graphs.seed")
        w("repro.ann.graphs", "ensure_connectivity", "graphs.connect", self._after_connect)
        w("repro.core.must", "joint_search", "joint_search", self._after_joint_search)
        w("repro.core.must", "topk_scan", "topk_scan", self._after_topk_scan)

        mr = importlib.import_module("repro.baselines.mr")
        tracer = self

        class TracedMust(mr.Must):
            """MR's per-modality sub-searches, as MR looks ``Must`` up."""

            def search(self, *args, **kwargs):
                with tracer.span("mr.sub_search"):
                    return super().search(*args, **kwargs)

        mr.Must = TracedMust

    # -- hooks: cheap, they only read outputs or keep references ----------

    def learned(self, info: dict, res) -> None:
        info["epochs"] = len(res.history)
        self.samples["weights.final_loss"].append(res.final_loss)
        self.samples["weights.recall1"].append(res.history[-1]["recall1"])

    def _after_mine(self, info, args, kwargs, df) -> None:
        self._stash["mine"] = [(args, kwargs)]  # the last epoch's scan

    def _after_knn(self, info, args, kwargs, knn) -> None:
        if self._inside("fused.build"):
            self._stash["knn"].append((args[1], knn))

    def _after_prune(self, info, args, kwargs, pruned) -> None:
        if self._inside("fused.build"):
            self._stash["pruned"].append(pruned)

    def _after_connect(self, info, args, kwargs, out) -> None:
        if self._inside("fused.build"):
            self._stash["connect"].append((args[0], args[1], out))

    def _after_joint_search(self, info, args, kwargs, out) -> None:
        spark, qry, obj, index = args[:4]
        nq = out.ids.shape[0]
        info.update(out.stats)
        info["nq"] = nq
        info["parts"] = min(spark.sparkContext.defaultParallelism, nq)
        info["broadcast_bytes"] = (
            sum(np.asarray(a, np.float32).nbytes for a in obj)
            + sum(np.asarray(a, np.float32).nbytes for a in qry if a is not None)
            + index.graph.nbrs.nbytes
        )

    def _after_topk_scan(self, info, args, kwargs, df) -> None:
        to_pandas = df.toPandas

        def traced_to_pandas():
            if not self.enabled:
                return to_pandas()
            with self.span("topk_scan.collect") as cinfo:
                pdf = to_pandas()
            cinfo["tau_s"] = float(pdf["compute_s"].sum())
            return pdf

        df.toPandas = traced_to_pandas

    # -- post-processing between ops --------------------------------------

    def graph_health(self) -> None:
        """Graph quality, prune keep ratio, repair edges, reachability and
        degree of every fused build since the last call."""
        from repro.ann.nndescent import graph_quality

        knns, pruned = self._stash.pop("knn", []), self._stash.pop("pruned", [])
        for (vecs, knn), kept in zip(knns, pruned):
            self.samples["nndescent.graph_quality"].append(graph_quality(vecs, knn))
            self.samples["prune.keep_frac"].append(
                float((kept >= 0).sum() / candidate_counts(knn).sum()))
        for before, seed_vertex, after in self._stash.pop("connect", []):
            deg = (after >= 0).sum(axis=1)
            self.samples["graphs.repair_edges"].append(int(deg.sum() - (before >= 0).sum()))
            self.samples["graphs.reachable_frac"].append(checks.reachable_frac(after, seed_vertex))
            self.samples["graphs.degree_mean"].append(float(deg.mean()))
            self.samples["graphs.degree_max"].append(int(deg.max()))

    def time_mining(self) -> None:
        """The last hard-negative mining scan, materialized alone (inside
        ``learn_weights`` it is fused lazily into the gradient job)."""
        from repro.ann.bruteforce import topk_scan

        for args, kwargs in self._stash.pop("mine", []):
            t0 = time.perf_counter()
            topk_scan(*args, **kwargs).toPandas()
            self.samples["weights.mine_s"].append(time.perf_counter() - t0)

    def replay_search(self, qry, obj, index, k: int, l: int) -> None:
        """Algorithm 2's kernel single-threaded on the driver, on the first
        worker-sized chunk of a batch joint_search just answered."""
        from repro.ann.beam_search import beam_search_batch
        from repro.core.joint_search import _BATCH

        qids = np.arange(min(_BATCH, qry[0].shape[0]))
        t0 = time.perf_counter()
        beam_search_batch(qry, obj, [float(w) for w in index.weights],
                          index.graph.nbrs, index.graph.seed_vertex, k, l, qids)
        self.samples["beam_search.replay_ms_per_q"].append(
            (time.perf_counter() - t0) * 1e3 / len(qids))

    def replay_scan(self, qry, obj, weights, k: int, parts: int) -> None:
        """The exact scan split into its matmul and its top-k select, on
        the driver, one partition-sized block at a time."""
        from repro.ann.distance import joint_ip_matrix, topk_from_scores

        nq = qry[0].shape[0]
        t_mm = t_sel = 0.0
        for blk in np.array_split(np.arange(nq), min(parts, nq)):
            t0 = time.perf_counter()
            scores = joint_ip_matrix([q[blk] for q in qry], obj, weights)
            t1 = time.perf_counter()
            topk_from_scores(scores, k)
            t_mm += t1 - t0
            t_sel += time.perf_counter() - t1
        self.samples["scan.matmul_ms_per_q"].append(t_mm * 1e3 / nq)
        self.samples["scan.select_ms_per_q"].append(t_sel * 1e3 / nq)

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "samples": self.samples}, default=float))


def candidate_counts(knn: np.ndarray) -> np.ndarray:
    """|C(o)| for every vertex, C(o) = N(o) ∪ N(N(o)) minus o (the
    candidate set ``select_neighbors`` forms from the kNN graph)."""
    n = knn.shape[0]
    two_hop = np.where(knn[:, :, None] >= 0, knn[np.maximum(knn, 0)], -1)
    cand = np.sort(np.concatenate([knn, two_hop.reshape(n, -1)], axis=1), axis=1)
    fresh = np.ones(cand.shape, dtype=bool)
    fresh[:, 1:] = cand[:, 1:] != cand[:, :-1]
    fresh &= (cand >= 0) & (cand != np.arange(n)[:, None])
    return fresh.sum(axis=1)


# --------------------------------------------------------------------------
# Aggregation


# spans whose per-call self time is reported (every workload produces each)
SELF_SPANS = (
    "op.search", "op.scan", "op.mr_search", "joint_search", "topk_scan.collect",
    "mr.sub_search", "weights.learn", "fused.build", "graphs.build",
    "nndescent.build", "nndescent.pass", "prune.select", "graphs.seed",
    "graphs.connect",
)


def per_layer(tr: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of the traced run, by name."""
    spans = [s for s in tr.spans if s["end"] is not None]
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    kids: dict[int, list[dict]] = defaultdict(list)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    by_id = {s["id"]: s for s in spans}

    def op_kind(s: dict) -> str | None:
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"].startswith("op."):
                return s["name"][3:]
        return None

    def med(xs) -> float:
        return median(xs) if xs else float("nan")

    out: dict[str, float] = {}

    js = [s for s in by_name["joint_search"] if op_kind(s) == "search"]
    out["joint_search.wall_ms"] = med([dur[s["id"]] * 1e3 for s in js])
    out["joint_search.tau_ms"] = med([s["info"]["compute_s"] * 1e3 for s in js])
    out["joint_search.non_kernel_ms"] = med(
        [(dur[s["id"]] - s["info"]["compute_s"] / s["info"]["parts"]) * 1e3 for s in js])
    out["joint_search.broadcast_bytes"] = med([s["info"]["broadcast_bytes"] for s in js])
    nq = sum(s["info"]["nq"] for s in js)
    tot = {c: sum(s["info"][c] for s in js)
           for c in ("n_expanded", "n_candidates", "n_dots", "n_dots_saved")}
    out["beam_search.replay_ms_per_q"] = med(tr.samples["beam_search.replay_ms_per_q"])
    out["beam_search.expanded_per_q"] = tot["n_expanded"] / nq
    out["beam_search.candidates_per_q"] = tot["n_candidates"] / nq
    out["beam_search.dots_per_q"] = tot["n_dots"] / nq
    out["beam_search.dots_saved_frac"] = tot["n_dots_saved"] / (tot["n_dots"] + tot["n_dots_saved"])

    scans = by_name["op.scan"]
    scan_parts = [[c for c in kids[s["id"]] if c["name"] in ("topk_scan", "topk_scan.collect")]
                  for s in scans]
    out["topk_scan.wall_ms"] = med([sum(dur[c["id"]] for c in p) * 1e3 for p in scan_parts])
    out["topk_scan.tau_ms"] = med(
        [sum(c["info"].get("tau_s", 0.0) for c in p) * 1e3 for p in scan_parts])
    out["scan.matmul_ms_per_q"] = med(tr.samples["scan.matmul_ms_per_q"])
    out["scan.select_ms_per_q"] = med(tr.samples["scan.select_ms_per_q"])

    fused = {s["id"] for s in by_name["fused.build"]}

    def in_fused(s: dict) -> bool:
        while s["parent"] is not None:
            if s["parent"] in fused:
                return True
            s = by_id[s["parent"]]
        return False

    def fused_walls(name: str) -> list[float]:
        return [dur[s["id"]] for s in by_name[name] if in_fused(s)]

    out["nndescent.pass_s"] = med(fused_walls("nndescent.pass"))
    out["nndescent.total_s"] = med(fused_walls("nndescent.build"))
    out["prune.select_s"] = med(fused_walls("prune.select"))
    out["graphs.seed_s"] = med(fused_walls("graphs.seed"))
    out["graphs.connect_s"] = med(fused_walls("graphs.connect"))
    for name in ("nndescent.graph_quality", "prune.keep_frac", "graphs.repair_edges",
                 "graphs.reachable_frac", "graphs.degree_mean", "graphs.degree_max",
                 "weights.final_loss", "weights.recall1"):
        out[name] = med(tr.samples[name])

    learn = by_name["weights.learn"]
    out["weights.epoch_s"] = med([dur[s["id"]] / s["info"]["epochs"] for s in learn])
    out["weights.mine_s"] = med(tr.samples["weights.mine_s"])
    out["weights.grad_s"] = out["weights.epoch_s"] - out["weights.mine_s"]

    per_mod, merge = [], []
    for s in by_name["op.mr_search"]:
        sub = sum(dur[c["id"]] for c in kids[s["id"]] if c["name"] == "mr.sub_search")
        per_mod.append(sub * 1e3)
        merge.append((dur[s["id"]] - sub) * 1e3)
    out["mr.per_modality_ms"] = med(per_mod)
    out["mr.merge_ms"] = med(merge)

    for name in SELF_SPANS:
        selfs = [dur[s["id"]] - sum(dur[c["id"]] for c in kids[s["id"]]) for s in by_name[name]]
        out[f"self_ms.{name}"] = float(np.mean(selfs)) * 1e3 if selfs else float("nan")

    out.update(extra)
    return out
