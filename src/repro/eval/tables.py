"""One function per paper table (DESIGN.md §4 maps table -> module).

Each ``table*`` function returns a list of row dicts. Its scale knobs
default to the full size; :data:`TABLES` names every table once, with the
arguments ``jobs/run_table.py`` and ``benchmarks/bench_tables.py`` call it
with, and tests call the functions at smaller ``n``/``nq``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from pyspark.sql import SparkSession

from repro import datasets as D
from repro.ann.bruteforce import topk_numpy
from repro.ann.distance import concat_weighted
from repro.ann.graphs import VARIANTS
from repro.ann.nndescent import graph_quality, init_random, nndescent_pass
from repro.core.fused_index import build_fused_index
from repro.core.joint_search import joint_search
from repro.core.must import fit_must
from repro.baselines.mr import fit_mr
from repro.eval.harness import EvalConfig, evaluate, learn_on_train_half, split_queries
from repro.eval.metrics import recall_at_k

# Encoder combos of the accuracy tables (paper Tab. III-VI): JE's
# composition encoder with the text encoder its dataset is built with,
# then the combos MR and MUST run on.
TABLE3_JE = [("tirg", "lstm"), ("clip", "lstm")]
TABLE3_COMBOS = [
    ("resnet17", "lstm"), ("resnet50", "lstm"),
    ("resnet17", "transformer"), ("resnet50", "transformer"),
    ("tirg", "lstm"), ("tirg", "transformer"),
    ("clip", "lstm"), ("clip", "transformer"),
]
TABLE4_JE = [("tirg", "encoding"), ("clip", "encoding")]
TABLE4_COMBOS = [
    ("resnet17", "encoding"), ("resnet50", "encoding"),
    ("tirg", "encoding"), ("clip", "encoding"),
]
TABLE5_JE = [("tirg", "encoding")]
TABLE5_COMBOS = [("resnet17", "encoding"), ("tirg", "encoding")]
TABLE6_JE = [("mpc", "gru", "resnet50")]
TABLE6_COMBOS = [
    ("mpc", "gru", "resnet50"), ("resnet50", "gru", "resnet50"),
]


def _shopping(category: str):
    """The Shopping builder of one category, called like the others."""
    return lambda enc, n, nq: D.shopping_lite(category, enc, n=n, nq=nq)


def _accuracy_table(
    spark: SparkSession, builder, je_combos, combos, *,
    n: int, nq: int, cfg: EvalConfig, weights_from=None,
) -> list[dict]:
    """JE rows, then MR rows, then MUST rows. MUST's weights are learned
    on the training half of the same combo's dataset from ``builder``,
    or, given ``weights_from = (name, source)``, from ``source`` (those
    rows tagged ``weights_from: name``)."""
    rows = [evaluate(spark, builder(c, n=n, nq=nq), "je", cfg) for c in je_combos]
    rows += [evaluate(spark, builder(c, n=n, nq=nq), "mr", cfg) for c in combos]
    name, source = weights_from or (None, builder)
    for combo in combos:
        w = learn_on_train_half(
            spark, source(combo, n=n, nq=nq), epochs=cfg.epochs, seed=cfg.seed).weights
        row = evaluate(spark, builder(combo, n=n, nq=nq), "must", cfg, weights=w)
        rows.append(row if name is None else {**row, "weights_from": name})
    return rows


def table3_mitstates(spark, *, n=12000, nq=400, cfg=None) -> list[dict]:
    """Tab. III: search accuracy on MIT-States."""
    return _accuracy_table(
        spark, D.mitstates_lite, TABLE3_JE, TABLE3_COMBOS, n=n, nq=nq, cfg=cfg or EvalConfig())


def table4_celeba(spark, *, n=12000, nq=400, cfg=None) -> list[dict]:
    """Tab. IV: search accuracy on CelebA."""
    return _accuracy_table(
        spark, D.celeba_lite, TABLE4_JE, TABLE4_COMBOS, n=n, nq=nq, cfg=cfg or EvalConfig())


def table5_shopping(spark, *, category="tshirt", n=12000, nq=400, cfg=None) -> list[dict]:
    """Tab. V (tshirt) / Tab. XXI (bottoms): accuracy on Shopping.

    For ``bottoms`` the weights are the ones *learned on tshirt* — the
    paper's generalization check (Appendix M).
    """
    return _accuracy_table(
        spark, _shopping(category), TABLE5_JE, TABLE5_COMBOS, n=n, nq=nq, cfg=cfg or EvalConfig(),
        weights_from=None if category == "tshirt" else ("tshirt", _shopping("tshirt")))


def table6_mscoco(spark, *, n=8000, nq=300, cfg=None) -> list[dict]:
    """Tab. VI: accuracy on MS-COCO (3 modalities), Recall@10/50/100."""
    return _accuracy_table(
        spark, D.mscoco_lite, TABLE6_JE, TABLE6_COMBOS, n=n, nq=nq,
        cfg=cfg or EvalConfig(ks=(10, 50, 100), l=256, l_cand=200))


def table7_scale(
    spark, *, scales=(10_000, 20_000, 40_000, 80_000, 160_000),
    nq=200, gamma=24, eps=3, target_recall=0.99, seed=0,
) -> list[dict]:
    """Tab. VII: response time of MUST-- vs MUST at Recall@10(10) >
    ``target_recall`` across a x16 data-volume sweep (paper: 1M-16M,
    ours: 10k-160k — DESIGN.md §2). Recall is against the *exact* joint
    top-10 under the learned weights. Also emits build time / index size
    per scale (the Fig. 7 shape, reported as numbers)."""
    rows = []
    # learn weights once at the smallest scale (paper uses one learned
    # weight set per dataset family, Tab. XVIII)
    ds0 = D.imagetext(scales[0], nq=nq, seed=seed)
    w = learn_on_train_half(spark, ds0, epochs=15, seed=seed).weights
    for n in scales:
        ds = D.imagetext(n, nq=nq, seed=seed)
        gt10, _ = topk_numpy(ds.qry_mats, ds.obj_mats, w, 10)

        brute = fit_must(spark, ds.obj_mats, weights=w, brute=True).search(ds.qry_mats, 10)
        brute_tau = brute.stats["compute_s"]

        must = fit_must(spark, ds.obj_mats, weights=w, gamma=gamma, eps=eps, seed=seed)
        if n == scales[0]:
            # unmeasured warm-up: the first row's tau then excludes the
            # workers' first kernel call, like every later row's
            must.search(ds.qry_mats, 10, 100, seed=seed)
        rec, out = 0.0, None
        for l in (100, 140, 200, 280, 400, 560, 800, 1120, 1600, 3200):
            out = must.search(ds.qry_mats, 10, l, seed=seed)
            rec = recall_at_k(out.ids, gt10, 10)
            if rec >= target_recall:
                break
        must_tau = out.stats["compute_s"]
        rows.append(
            {
                # tau = summed in-worker kernel seconds (the paper's
                # single-thread response time); wall = distributed job
                # wall-clock incl. Spark overhead; tau to 4 significant
                # digits, since a one-task scan at small n takes < 1 ms
                "scale": n,
                "must--_tau_s": float(f"{brute_tau:.4g}"),
                "must_tau_s": float(f"{must_tau:.4g}"),
                "reduction_pct": round(100 * (1 - must_tau / brute_tau), 1),
                "must--_wall_s": round(brute.elapsed_s, 2),
                "must_wall_s": round(out.elapsed_s, 2),
                "recall@10(10)": round(rec, 4),
                "l": l,
                "build_s": round(must.index.build_seconds, 1),
                "index_MB": round(must.index.nbytes() / 2**20, 2),
            }
        )
    return rows


def table8_modalities(spark, *, n=8000, nq=300, cfg=None) -> list[dict]:
    """Tab. VIII: recall vs number of modalities m on CelebA+ for MUST
    and MR (the paper's point: MR's merge degrades at m=4)."""
    cfg = cfg or EvalConfig()
    full = D.celeba_plus(n=n, nq=nq)
    rows = []
    for m in (2, 3, 4):
        sub = D.MSTMDataset(
            name=f"celeba+[m={m}]", encoders=full.encoders[:m], world=full.world,
            obj_mats=full.obj_mats[:m], qry_mats=full.qry_mats[:m], gt=full.gt,
        )
        for fw in ("mr", "must"):
            row = evaluate(spark, sub, fw, cfg)
            row["m"] = m
            rows.append(row)
    return rows


def table9_user_weights(spark, *, n=8000, nq=300, cfg=None) -> list[dict]:
    """Tab. IX: user-defined weights. Sweeping omega_0^2 from .5 to .9
    shifts the returned objects' similarity from modality 1 to 0."""
    cfg = cfg or EvalConfig()
    ds = D.mitstates_lite(("resnet50", "lstm"), n=n, nq=nq)
    _, ev = split_queries(ds)
    rows = []
    for w0 in (0.5, 0.6, 0.7, 0.8, 0.9):
        w = np.array([w0, 1.0 - w0])
        model = fit_must(
            spark, ds.obj_mats, weights=w,
            gamma=cfg.gamma, eps=cfg.eps, seed=cfg.seed,
        )
        out = model.search([m[ev] for m in ds.qry_mats], k=1, l=cfg.l, seed=cfg.seed)
        top1 = out.ids[:, 0]
        ip0 = float(np.mean(np.sum(ds.qry_mats[0][ev] * ds.obj_mats[0][top1], axis=1)))
        ip1 = float(np.mean(np.sum(ds.qry_mats[1][ev] * ds.obj_mats[1][top1], axis=1)))
        rows.append(
            {"w0^2": w0, "w1^2": round(1 - w0, 1),
             "IP(q0,r0)": round(ip0, 4), "IP(q1,r1)": round(ip1, 4)}
        )
    return rows


def table10_single_modality(spark, *, n=12000, nq=400, cfg=None) -> list[dict]:
    """Tab. X/XIX/XX: accuracy with a single query modality (t=1),
    evaluated with the exact scan (modality weight pattern [1,0]/[0,1])."""
    cfg = cfg or EvalConfig()
    rows = []
    cases = [
        ("mitstates", D.mitstates_lite, ("resnet17", "lstm")),
        ("mitstates", D.mitstates_lite, ("resnet50", "lstm")),
        ("mitstates", D.mitstates_lite, ("resnet50", "transformer")),
        ("celeba", D.celeba_lite, ("resnet17", "encoding")),
        ("celeba", D.celeba_lite, ("resnet50", "encoding")),
        ("shopping", _shopping("tshirt"), ("resnet17", "encoding")),
    ]
    seen = set()
    for name, builder, combo in cases:
        ds = builder(combo, n=n, nq=nq)
        for active, which in (([0], "target"), ([1], "auxiliary")):
            enc = combo[active[0]]
            key = (name, which, enc)
            if key in seen:
                continue
            seen.add(key)
            row = evaluate(
                spark, ds, "must--", cfg,
                weights=[1.0 if i in active else 0.0 for i in range(ds.m)],
                active=active,
            )
            row["modality"] = which
            row["encoder"] = enc
            rows.append(row)
    return rows


def table11_graph_quality(spark, *, n=20000, gamma=24, seed=0) -> list[dict]:
    """Tab. XI: graph quality vs NNDescent iterations eps on the three
    million-scale stand-ins (imagetext/audiotext/videotext -> seeds).
    One run of three sweeps per dataset, measured after each sweep."""
    rows = []
    for name, s in (("ImageText", 0), ("AudioText", 1), ("VideoText", 2)):
        ds = D.imagetext(n, nq=50, seed=s)
        w = np.full(ds.m, 1.0 / ds.m)
        vecs = concat_weighted(ds.obj_mats, w)
        width = min(gamma, vecs.shape[0] - 1)
        vecs_b = spark.sparkContext.broadcast(vecs)
        try:
            nbrs = init_random(vecs.shape[0], width, seed)
            for eps in (1, 2, 3):
                nbrs = nndescent_pass(spark, vecs_b, nbrs, width)
                rows.append(
                    {"dataset": name, "eps": eps,
                     "graph_quality": round(graph_quality(vecs, nbrs, seed=seed), 4)}
                )
        finally:
            vecs_b.destroy()
    return rows


def _sweep_setup(spark: SparkSession, n: int, nq: int, seed: int):
    """The set-up of the efficiency sweeps (Tab. XII, Fig. 10):
    ``imagetext(n)``, its evaluation query ids, weights learned on the
    training half, the evaluation query matrices and their exact joint
    top-10 under those weights, as ``(ds, ev, w, qry, gt10)``."""
    ds = D.imagetext(n, nq=nq, seed=seed)
    _, ev = split_queries(ds)
    w = learn_on_train_half(spark, ds, epochs=15, seed=seed).weights
    qry = [m[ev] for m in ds.qry_mats]
    gt10, _ = topk_numpy(qry, ds.obj_mats, w, 10)
    return ds, ev, w, qry, gt10


def table12_l_sweep(
    spark, *, n=20000, nq=300, gamma=24,
    ls=(10, 20, 40, 80, 160, 320, 640), seed=0,
) -> list[dict]:
    """Tab. XII + the §VIII-D efficiency claims as a table: MUST l-sweep
    (Recall@10(10) + response time) and MR l_cand-sweep (semantic recall
    plateau + QPS; MUST is ~10x faster at matched recall)."""
    ds, ev, w, qry, gt10 = _sweep_setup(spark, n, nq, seed)
    must = fit_must(spark, ds.obj_mats, weights=w, gamma=gamma, seed=seed)
    rows = []
    for l in ls:
        out = must.search(qry, 10, l, seed=seed)
        rows.append(
            {"method": "MUST", "l": l,
             "recall@10(10)": round(recall_at_k(out.ids, gt10, 10), 4),
             "recall@10(1)": round(recall_at_k(out.ids, ds.gt[ev], 10), 4),
             "time_ms_per_q": round(1000 * out.elapsed_s / len(ev), 2),
             "qps": round(out.qps, 1)}
        )
    mr = fit_mr(spark, ds.obj_mats, gamma=gamma, seed=seed)
    for l in ls:
        out = mr.search(qry, k=10, l_cand=l, seed=seed)
        rows.append(
            {"method": "MR", "l": l,
             "recall@10(10)": "",
             "recall@10(1)": round(recall_at_k(out.ids, ds.gt[ev], 10), 4),
             "time_ms_per_q": round(1000 * out.elapsed_s / len(ev), 2),
             "qps": round(out.qps, 1)}
        )
    return rows


def table13_learned_weights(spark, *, n=8000, nq=300, epochs=20, seed=0) -> list[dict]:
    """Tab. XIII-XVIII: the learned w_i = omega_i^2 per dataset/combo."""
    cases = [
        ("mitstates", D.mitstates_lite, c) for c in TABLE3_COMBOS
    ] + [
        ("celeba", D.celeba_lite, c) for c in TABLE4_COMBOS
    ] + [
        ("shopping-tshirt", _shopping("tshirt"), c) for c in TABLE5_COMBOS
    ] + [
        ("mscoco", D.mscoco_lite, c) for c in TABLE6_COMBOS
    ] + [
        ("celeba+", D.celeba_plus, ("clip", "encoding", "resnet17", "resnet50")),
        ("imagetext", lambda enc, n, nq: D.imagetext(n, enc, nq=nq), ("resnet50", "lstm")),
    ]
    rows = []
    for name, builder, combo in cases:
        res = learn_on_train_half(spark, builder(combo, n=n, nq=nq), epochs=epochs, seed=seed)
        rows.append(
            {"dataset": name, "encoder": "+".join(combo),
             **{f"w{i}^2": round(float(v), 4) for i, v in enumerate(res.weights)},
             "final_loss": round(res.final_loss, 4),
             "train_recall@1": round(res.history[-1]["recall1"], 4)}
        )
    return rows


def ablation_graphs(
    spark, *, n=20000, nq=300, gamma=24, l=100, seed=0
) -> list[dict]:
    """§VIII-G as tables: graph-variant build/search comparison plus the
    multi-vector computation optimization on/off (Fig. 10 shapes)."""
    ds, _, w, qry, gt10 = _sweep_setup(spark, n, nq, seed)
    rows = []
    for variant in VARIANTS:
        index = build_fused_index(spark, ds.obj_mats, w, gamma=gamma, variant=variant, seed=seed)
        for optimize in ((True, False) if variant == "ours" else (True,)):
            # warmup run first: the recorded pass then excludes broadcast
            # shipping / executor warm-up from the QPS comparison
            joint_search(spark, qry, ds.obj_mats, index, 10, l, optimize=optimize, seed=seed)
            out = joint_search(spark, qry, ds.obj_mats, index, 10, l, optimize=optimize, seed=seed)
            rows.append(
                {"variant": variant, "optimize": optimize,
                 "build_s": round(index.build_seconds, 2),
                 "edges": index.graph.n_edges,
                 "recall@10(10)": round(recall_at_k(out.ids, gt10, 10), 4),
                 "qps": round(out.qps, 1),
                 "dots_saved_pct": round(
                     100 * out.stats["n_dots_saved"]
                     / max(out.stats["n_dots"] + out.stats["n_dots_saved"], 1), 1)}
            )
    return rows


@dataclass(frozen=True)
class Table:
    """A registry entry: ``fn(spark, **args)`` is the table at full
    scale, ``fn(spark, **args, **bench)`` at benchmark scale."""

    title: str
    fn: Callable[..., list[dict]]
    bench: dict
    args: dict = field(default_factory=dict)


# Benchmark scale (SF~0.1-equivalent). MS-COCO reports Recall@10/50/100
# (paper Tab. VI), so it searches with a larger l and l_cand.
BENCH_CFG = EvalConfig(ks=(1, 5, 10), l=128, l_cand=100, gamma=16, eps=3, epochs=10)
BENCH_COCO_CFG = replace(BENCH_CFG, ks=(10, 50, 100), l=256, l_cand=200)
_BENCH_ACCURACY = {"n": 6000, "nq": 240, "cfg": BENCH_CFG}

# Every table once, keyed by the name of its ``results/bench_<name>.json``.
TABLES: dict[str, Table] = {
    "table3": Table("Table III: accuracy on MIT-States (lite)", table3_mitstates, _BENCH_ACCURACY),
    "table4": Table("Table IV: accuracy on CelebA (lite)", table4_celeba, _BENCH_ACCURACY),
    "table5": Table(
        "Table V: accuracy on Shopping T-shirt (lite)", table5_shopping, _BENCH_ACCURACY),
    "table5_bottoms": Table(
        "Table XXI: accuracy on Shopping Bottoms, weights learned on T-shirt",
        table5_shopping, _BENCH_ACCURACY, {"category": "bottoms"},
    ),
    "table6": Table(
        "Table VI: accuracy on MS-COCO (lite)", table6_mscoco,
        {"n": 6000, "nq": 240, "cfg": BENCH_COCO_CFG},
    ),
    "table7": Table(
        "Table VII: response time vs data volume", table7_scale,
        {"scales": (5_000, 10_000, 20_000, 40_000, 80_000), "nq": 200, "gamma": 20},
    ),
    "table8": Table("Table VIII: recall vs #modalities", table8_modalities, _BENCH_ACCURACY),
    "table9": Table("Table IX: user-defined weights", table9_user_weights, _BENCH_ACCURACY),
    "table10": Table(
        "Tables X/XIX/XX: single query modality", table10_single_modality, _BENCH_ACCURACY),
    "table11": Table(
        "Table XI: graph quality vs iterations", table11_graph_quality,
        {"n": 10_000, "gamma": 20},
    ),
    "table12": Table(
        "Table XII + Fig. 6: l sweep, MUST vs MR", table12_l_sweep,
        {"n": 10_000, "nq": 240, "gamma": 20},
    ),
    "table13": Table(
        "Tables XIII-XVIII: learned weights", table13_learned_weights,
        {"n": 6000, "nq": 240, "epochs": 15},
    ),
    "ablation_graphs": Table(
        "Fig. 10 ablation: graph variants + multi-vector optimization", ablation_graphs,
        {"n": 10_000, "nq": 240, "gamma": 20},
    ),
}
