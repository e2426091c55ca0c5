"""The benchmark's workloads.

Each drives the program only through its public API (``learn_weights``,
``fit_must``, ``Must.search``, ``fit_mr``/``MR.search``) from one
process, as one closed-loop client: an op is sent only after the
previous one returned. Query batches are drawn without replacement from
a pool the seed permutes, so no query repeats within a run.

Set-up is repeated ``SETUP_REPS`` times: generate the data and build the
fused index under the user's fixed weights (Tab. IX). That is the write
side: every run yields three build times, and a build that degrades the
graph shows as lower ``recall_at_10`` in the ops that follow. The traced
run also learns weights on training anchors (§VI) for the ``weights.*``
layer metrics.

* ``interactive-m2`` — 16-query batches on 2 modalities: Spark
  scheduling, broadcast shipping and collect dominate every op.
* ``bulk-m3`` — 512-query batches at l=400 on 3 modalities: the in-worker
  kernel (Algorithm 2 with Lemma 4, the scan's top-k select) dominates.

MR runs as MR-- (exact per-modality scans, then MR's merge): building its
per-modality graphs would add m builds to every run.
"""
from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

from perfbench import checks
from perfbench.harness import median
from perfbench.tracing import Tracer

from repro.ann.bruteforce import topk_numpy, topk_scan
from repro.baselines.mr import fit_mr
from repro.core import weights as weights_mod
from repro.core.must import Must, fit_must
from repro.datasets import MSTMDataset, imagetext, mscoco_lite
from repro.eval.metrics import recall_at_k
from repro.oracle import assert_equivalent

K = 10
GAMMA, EPS = 24, 3
MR_L_CAND = 100
WARMUP_BATCH = 16  # warm-up ops run each code path once, on small batches
SETUP_REPS = 3  # setup_s is the median of this many program set-ups
ANCHORS, LEARN_EPOCHS = 100, 2  # weight learning in the traced run


@dataclass(frozen=True)
class Serve:
    """One serving workload; see the module docstring."""

    make: Callable[[int, int], MSTMDataset]  # (seed, n queries) -> dataset
    weights: tuple[float, ...]  # fixed user weights (paper Tab. IX)
    batch: int
    l: int
    min_op_s: float  # typical fastest op wall; sizes the query pool
    min_cycles: int  # fewest op cycles measured, however slow the ops


WORKLOADS = {
    "interactive-m2": Serve(
        make=lambda seed, nq: imagetext(2000, ("resnet50", "lstm"), nq=nq, seed=seed),
        weights=(0.8, 0.75), batch=16, l=100, min_op_s=0.15, min_cycles=6,
    ),
    "bulk-m3": Serve(
        make=lambda seed, nq: mscoco_lite(("resnet50", "gru", "resnet50"), n=2000, nq=nq, seed=seed),
        weights=(0.5, 0.3, 0.2), batch=512, l=400, min_op_s=0.5, min_cycles=3,
    ),
}


class Pool:
    """Query ids ``[0, size)`` in a seeded order, handed out once each."""

    def __init__(self, size: int, seed: int):
        self.order = np.random.default_rng(seed).permutation(size)
        self.pos = 0

    def left(self) -> int:
        return len(self.order) - self.pos

    def take(self, b: int) -> np.ndarray:
        ids = self.order[self.pos : self.pos + b]
        self.pos += b
        return ids


class Bench:
    """One run: the session, the tracer, and everything measured."""

    def __init__(self, spark, tracer: Tracer, seed: int, seconds: float, traced: bool):
        self.spark, self.tr, self.seed = spark, tracer, seed
        self.seconds, self.traced = seconds, traced
        self.walls = {True: defaultdict(list), False: defaultdict(list)}  # traced? -> kind -> s
        self.queries = {True: defaultdict(int), False: defaultdict(int)}
        self.hits = self.recall_queries = 0
        self.build_s: list[float] = []
        self.index_bytes: list[int] = []
        self.gen_s: list[float] = []
        self.gt_s: list[float] = []
        self.setup_s = 0.0
        self.attempted = self.failed = 0

    # -- checks -------------------------------------------------------------

    def check(self, what: str, msg: str | None) -> None:
        self.attempted += 1
        if msg is not None:
            self.failed += 1
            print(f"CHECK FAILED {what}: {msg}", file=sys.stderr)

    def check_build(self, must: Must) -> None:
        g = must.index.graph
        self.check("build", checks.graph(g.nbrs, g.seed_vertex))
        self.build_s.append(must.index.build_seconds)
        self.index_bytes.append(must.index.nbytes())
        if self.tr.enabled:
            self.tr.graph_health()

    def oracle(self, ds: MSTMDataset, weights, k: int = 5) -> None:
        """DuckDB oracle on a small slice: ``topk_scan`` equals ``topk_sql``'s
        query (cross join, rank by joint IP desc, id asc) run in DuckDB over
        ``list_inner_product``."""
        obj, qry = [a[:40] for a in ds.obj_mats], [a[:5] for a in ds.qry_mats]
        tables = {
            "objects": pd.DataFrame({"id": np.arange(40), **{
                f"v{i}": list(a.astype(np.float64)) for i, a in enumerate(obj)}}),
            "queries": pd.DataFrame({"qid": np.arange(5), **{
                f"q{i}": list(a.astype(np.float64)) for i, a in enumerate(qry)}}),
        }
        ip = " + ".join(
            f"{w} * list_inner_product(q.q{i}, o.v{i})" for i, w in enumerate(weights)
        )
        sql = f"""
            SELECT qid, oid, rank FROM (
                SELECT q.qid, o.id AS oid, row_number() OVER (
                    PARTITION BY q.qid ORDER BY {ip} DESC, o.id ASC) AS rank
                FROM queries q CROSS JOIN objects o
            ) WHERE rank <= {k}
        """
        got = topk_scan(self.spark, qry, obj, weights, k).select("qid", "oid", "rank")
        try:
            assert_equivalent(got, sql, **tables)
            self.check("oracle", None)
        except AssertionError as e:
            self.check("oracle", str(e).splitlines()[0])

    # -- ops ----------------------------------------------------------------

    def _timed(self, kind: str, fn, nq: int, record: bool):
        with self.tr.span("op." + kind):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        if record:
            self.walls[self.tr.enabled][kind].append(dt)
            self.queries[self.tr.enabled][kind] += nq
        return out, dt

    def _truth(self, q, obj, weights):
        t0 = time.perf_counter()
        ids, scores = topk_numpy(q, obj, weights, K)
        self.gt_s.append(time.perf_counter() - t0)
        return ids, scores

    def search(self, must: Must, q, l: int, record: bool) -> float:
        nq, n = q[0].shape[0], must.obj_mats[0].shape[0]
        out, dt = self._timed("search", lambda: must.search(q, k=K, l=l), nq, record)
        self.check("search", checks.result_ids(out.ids, n, K))
        gt_ids, _ = self._truth(q, must.obj_mats, must.weights)
        if record:
            self.hits += round(recall_at_k(out.ids, gt_ids, K) * nq * K)
            self.recall_queries += nq
        if self.tr.enabled:
            self.tr.replay_search(q, must.obj_mats, must.index, K, l)
        return dt

    def scan(self, brute: Must, q, record: bool) -> float:
        nq = q[0].shape[0]
        out, dt = self._timed("scan", lambda: brute.search(q, k=K), nq, record)
        gt_ids, gt_scores = self._truth(q, brute.obj_mats, brute.weights)
        self.check("scan", checks.exact_ids(out.ids, q, brute.obj_mats, brute.weights, gt_ids, gt_scores))
        if self.tr.enabled:
            parts = self.spark.sparkContext.defaultParallelism
            self.tr.replay_scan(q, brute.obj_mats, brute.weights, K, parts)
        return dt

    def mr_search(self, mr, q, record: bool) -> float:
        nq, n = q[0].shape[0], mr.obj_mats[0].shape[0]
        out, dt = self._timed("mr_search", lambda: mr.search(q, k=K, l_cand=MR_L_CAND), nq, record)
        self.check("mr_search", checks.result_ids(out.ids, n, K))
        return dt

    def learn(self, ds: MSTMDataset, anchors: np.ndarray) -> None:
        """``learn_weights`` on the anchors (traced run only)."""
        with self.tr.span("weights.learn") as info:
            res = weights_mod.learn_weights(
                self.spark, [a[anchors] for a in ds.qry_mats], ds.obj_mats,
                ds.gt[anchors], epochs=LEARN_EPOCHS, seed=self.seed,
            )
        self.check("weights", checks.weights(res.weights))
        self.tr.learned(info, res)
        self.tr.time_mining()

    def loop(self, cycle: list[str], run_op: Callable[[str, bool], float], pool: Pool,
             batch: int, min_cycles: int) -> None:
        """Closed loop over whole cycles of ``cycle`` until the ops have
        run ``seconds`` of wall time (checks excluded), so every kind gets
        the same number of batches, and at least ``min_cycles``. A traced
        run runs every other cycle untraced, which gives the tracing overhead.
        Ops far faster than the pool was sized for end the loop early
        rather than repeat a query."""
        busy, c = 0.0, 0
        while busy < self.seconds or c < min_cycles:
            if pool.left() < len(cycle) * batch:
                print(f"[perfbench] query pool used up after {busy:.1f} s", file=sys.stderr)
                break
            self.tr.enabled = self.traced and c % 2 == 0
            for i, kind in enumerate(cycle):
                self.tr.op_id = f"cycle{c}.{i}"
                busy += run_op(kind, True)
            c += 1
        self.tr.enabled, self.tr.op_id = self.traced, None

    def gen(self, make, nq: int) -> MSTMDataset:
        with self.tr.span("datasets.gen"):
            t0 = time.perf_counter()
            ds = make(self.seed, nq)
            self.gen_s.append(time.perf_counter() - t0)
        return ds


def run(name: str, b: Bench) -> None:
    cfg = WORKLOADS[name]
    cycle = ["search", "scan", "mr_search"]
    # the warm-up cycle, the measured ops (at least min_op_s each, or
    # min_cycles cycles) and the overshoot to a cycle boundary
    pool_n = cfg.batch * (math.ceil(b.seconds / cfg.min_op_s) + len(cycle) * (cfg.min_cycles + 2))
    anchors = np.arange(pool_n, pool_n + ANCHORS)

    reps = []
    for r in range(SETUP_REPS):
        b.tr.op_id = f"setup{r}"
        t0 = time.perf_counter()
        ds = b.gen(cfg.make, pool_n + ANCHORS)
        must = fit_must(b.spark, ds.obj_mats, weights=cfg.weights, gamma=GAMMA, eps=EPS, seed=b.seed)
        reps.append(time.perf_counter() - t0)
        b.check_build(must)

    b.tr.op_id = "setup"
    t0 = time.perf_counter()
    mr = fit_mr(b.spark, ds.obj_mats, brute=True)
    brute = fit_must(b.spark, ds.obj_mats, weights=cfg.weights, brute=True)
    pool = Pool(pool_n, b.seed)

    def run_op(kind: str, record: bool, batch: int = cfg.batch) -> float:
        ids = pool.take(batch)
        q = [a[ids] for a in ds.qry_mats]
        if kind == "search":
            return b.search(must, q, cfg.l, record)
        if kind == "scan":
            return b.scan(brute, q, record)
        return b.mr_search(mr, q, record)

    for kind in cycle:  # warm-up: one op of each kind
        run_op(kind, False, WARMUP_BATCH)
    b.setup_s = median(reps) + time.perf_counter() - t0
    t0 = time.perf_counter()
    b.oracle(ds, list(cfg.weights))
    print(f"[perfbench] set-up reps {[round(r, 2) for r in reps]} s, then "
          f"{b.setup_s - median(reps):.2f} s; oracle check {time.perf_counter() - t0:.2f} s",
          file=sys.stderr)
    if b.traced:
        b.learn(ds, anchors)
    b.loop(cycle, run_op, pool, cfg.batch, cfg.min_cycles)
