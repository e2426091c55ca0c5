"""Structural tests for the table runners (repro.eval.tables) at tiny
scale — every paper table's code path executes end to end — and for the
registry the job runner and the benchmark read."""
import inspect

import numpy as np
import pytest

from repro.ann.nndescent import build_knn_graph
from repro.eval import tables as T
from repro.eval.harness import EvalConfig

TINY = EvalConfig(ks=(1, 5), l=40, l_cand=30, gamma=8, eps=2, epochs=2)


@pytest.mark.parametrize(
    "fn,kw,n_rows",
    [
        (T.table3_mitstates, {}, 2 + 8 + 8),
        (T.table4_celeba, {}, 2 + 4 + 4),
        (T.table5_shopping, {}, 1 + 2 + 2),
        (T.table6_mscoco, {}, 1 + 2 + 2),
    ],
)
def test_accuracy_tables_shape(spark, fn, kw, n_rows):
    cfg = TINY if fn is not T.table6_mscoco else EvalConfig(
        ks=(5, 10), l=40, l_cand=30, gamma=8, eps=2, epochs=2
    )
    rows = fn(spark, n=250, nq=30, cfg=cfg, **kw)
    assert len(rows) == n_rows
    fws = [r["framework"] for r in rows]
    assert fws.count("je") >= 1 and "mr" in fws and "must" in fws
    for r in rows:
        assert any(k.startswith("recall@") for k in r)


def test_table5_bottoms_uses_tshirt_weights(spark):
    rows = T.table5_shopping(spark, category="bottoms", n=250, nq=30, cfg=TINY)
    must_rows = [r for r in rows if r["framework"] == "must"]
    assert all(r.get("weights_from") == "tshirt" for r in must_rows)
    assert all("shopping-bottoms" in r["dataset"] for r in must_rows)


def test_table7_scale_rows(spark):
    rows = T.table7_scale(
        spark, scales=(300, 600), nq=20, gamma=8, eps=2, target_recall=0.8
    )
    assert [r["scale"] for r in rows] == [300, 600]
    for r in rows:
        assert r["must--_tau_s"] > 0 and r["must_tau_s"] > 0
        assert r["must--_wall_s"] > 0 and r["must_wall_s"] > 0
        assert 0 <= r["recall@10(10)"] <= 1
        assert r["index_MB"] > 0


def test_table7_first_scale_is_measured_after_a_warm_up(spark, monkeypatch):
    """Every search of the first scale but the first may be recorded: the
    spy tags each call's tau with its call number, and the first row's
    tau is not call 0's."""
    from repro.core import must

    calls, real = [], must.joint_search

    def spy(spark_, qry_mats, obj_mats, *args, **kwargs):
        out = real(spark_, qry_mats, obj_mats, *args, **kwargs)
        calls.append(len(obj_mats[0]))
        out.stats["compute_s"] = float(len(calls))
        return out

    monkeypatch.setattr(must, "joint_search", spy)
    rows = T.table7_scale(
        spark, scales=(300, 600), nq=20, gamma=8, eps=2, target_recall=0.8
    )
    assert calls[0] == 300
    recorded = [int(r["must_tau_s"]) - 1 for r in rows]
    assert calls[recorded[0]] == 300 and recorded[0] != 0, (calls, recorded)
    assert calls[recorded[1]] == 600


def test_table8_modalities_rows(spark):
    rows = T.table8_modalities(spark, n=250, nq=30, cfg=TINY)
    assert [r["m"] for r in rows] == [2, 2, 3, 3, 4, 4]
    assert {r["framework"] for r in rows} == {"mr", "must"}


def test_table9_weights_sweep_monotone(spark):
    rows = T.table9_user_weights(spark, n=400, nq=60, cfg=TINY)
    assert [r["w0^2"] for r in rows] == [0.5, 0.6, 0.7, 0.8, 0.9]
    ip0 = [r["IP(q0,r0)"] for r in rows]
    ip1 = [r["IP(q1,r1)"] for r in rows]
    # paper Tab. IX shape: modality-0 similarity rises, modality-1 falls
    assert ip0[-1] > ip0[0]
    assert ip1[-1] < ip1[0]


def test_table10_single_modality_rows(spark):
    rows = T.table10_single_modality(spark, n=250, nq=30, cfg=TINY)
    assert {r["modality"] for r in rows} == {"target", "auxiliary"}
    keys = {(r["dataset"], r["modality"], r["encoder"]) for r in rows}
    assert len(keys) == len(rows)  # dedup respected


def test_table11_graph_quality_rows(spark):
    rows = T.table11_graph_quality(spark, n=400, gamma=8)
    assert len(rows) == 9
    for name in ("ImageText", "AudioText", "VideoText"):
        qs = [r["graph_quality"] for r in rows if r["dataset"] == name]
        assert qs[0] <= qs[1] <= qs[2] + 1e-9  # quality grows with eps
    # one run of three sweeps gives each eps's separate build
    vecs = T.concat_weighted(T.D.imagetext(400, nq=50, seed=0).obj_mats, [0.5, 0.5])
    for r in rows[:3]:
        knn = build_knn_graph(spark, vecs, 8, eps=r["eps"], seed=0)
        assert r["graph_quality"] == round(T.graph_quality(vecs, knn, seed=0), 4)


def test_table12_l_sweep_rows(spark):
    rows = T.table12_l_sweep(spark, n=400, nq=40, gamma=8, ls=(10, 40, 160))
    must = [r for r in rows if r["method"] == "MUST"]
    mr = [r for r in rows if r["method"] == "MR"]
    assert len(must) == len(mr) == 3
    # recall@10(10) grows with l for MUST
    recs = [r["recall@10(10)"] for r in must]
    assert recs[-1] >= recs[0]


def test_table13_learned_weights_rows(spark):
    rows = T.table13_learned_weights(spark, n=250, nq=30, epochs=2)
    assert len(rows) == 8 + 4 + 2 + 2 + 2
    for r in rows:
        assert "w0^2" in r and r["w0^2"] >= 0
    four = [r for r in rows if r["dataset"] == "celeba+"]
    assert "w3^2" in four[0]


def test_ablation_graphs_rows(spark):
    rows = T.ablation_graphs(spark, n=400, nq=30, gamma=8, l=40)
    variants = {r["variant"] for r in rows}
    assert variants == {"ours", "kgraph", "nssg", "vamana"}
    ours = [r for r in rows if r["variant"] == "ours"]
    assert {r["optimize"] for r in ours} == {True, False}
    opt_on = next(r for r in ours if r["optimize"])
    assert opt_on["dots_saved_pct"] >= 0


def test_every_table_function_is_registered():
    """Every public table function has a ``TABLES`` entry, and each
    entry's arguments are parameters of its function (no Spark)."""
    public = {
        name for name, fn in inspect.getmembers(T, inspect.isfunction)
        if fn.__module__ == T.__name__ and name.startswith(("table", "ablation_"))
    }
    assert public == {t.fn.__name__ for t in T.TABLES.values()}
    for t in T.TABLES.values():
        inspect.signature(t.fn).bind(None, **t.args, **t.bench)


def test_every_registry_name_is_rendered(monkeypatch):
    """``jobs/render_experiments.py`` loads exactly the
    ``results/bench_<name>.json`` files the registry names (no Spark)."""
    from jobs import render_experiments

    loaded = []
    monkeypatch.setattr(render_experiments, "load", loaded.append)
    render_experiments.main()
    assert sorted(loaded) == sorted(f"bench_{name}" for name in T.TABLES)


def test_rendered_experiments_match_the_results():
    """EXPERIMENTS.md is ``jobs/render_experiments.py`` run over the
    committed ``results/*.json``, byte for byte (no Spark)."""
    from jobs import render_experiments

    assert render_experiments.main() == (render_experiments.ROOT / "EXPERIMENTS.md").read_text()
