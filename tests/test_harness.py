"""Tests for the evaluation harness (repro.eval.harness)."""
import numpy as np
import pytest

from repro.datasets import mitstates_lite
from repro.eval.harness import (
    EvalConfig, FRAMEWORKS, evaluate, format_table, learn_on_train_half, split_queries,
)

CFG = EvalConfig(ks=(1, 5), l=40, l_cand=30, gamma=8, eps=2, epochs=3)


@pytest.fixture(scope="module")
def ds():
    return mitstates_lite(("resnet50", "lstm"), n=300, nq=40)


def test_split_queries_disjoint(ds):
    tr, ev = split_queries(ds)
    assert len(tr) + len(ev) == ds.nq
    assert set(tr).isdisjoint(ev)
    np.testing.assert_array_equal(tr, np.arange(20))


@pytest.mark.parametrize("fw", FRAMEWORKS)
def test_evaluate_all_frameworks(spark, ds, fw):
    row = evaluate(spark, ds, fw, CFG)
    assert row["framework"] == fw
    assert 0.0 <= row["recall@1"] <= row["recall@5"] <= 1.0
    assert 0.0 <= row["sme"] <= 2.0
    assert row["qps"] > 0
    assert row["nq_eval"] == 20
    assert row["build_s"] == round(row["build_s"], 3)  # fits format_table's columns
    if fw in ("must", "must--"):
        assert len(row["weights"]) == ds.m


def test_evaluate_with_user_weights(spark, ds):
    row = evaluate(spark, ds, "must--", CFG, weights=[0.2, 0.8])
    assert row["weights"] == [0.2, 0.8]


@pytest.mark.parametrize("fw", ["must", "must--"])
def test_evaluate_learns_on_train_half(spark, ds, fw, monkeypatch):
    """Without weights, MUST runs under exactly the weights
    ``learn_on_train_half`` learns with the config's epochs and seed."""
    from repro.eval import harness

    want = learn_on_train_half(spark, ds, epochs=CFG.epochs, seed=CFG.seed).weights
    fitted, fit = [], harness.fit_must

    def spy(*args, **kwargs):
        model = fit(*args, **kwargs)
        fitted.append(model.weights)
        return model

    monkeypatch.setattr(harness, "fit_must", spy)
    row = evaluate(spark, ds, fw, CFG)
    assert len(fitted) == 1
    assert fitted[0].dtype == want.dtype and fitted[0].tobytes() == want.tobytes()
    assert row["weights"] == [round(float(w), 4) for w in want]


def test_evaluate_active_restriction(spark, ds):
    full = evaluate(spark, ds, "must--", CFG, weights=[0.3, 0.7])
    aux = evaluate(spark, ds, "must--", CFG, weights=[0.0, 1.0], active=[1])
    assert aux["recall@5"] <= full["recall@5"]


def test_evaluate_unknown_framework(spark, ds):
    with pytest.raises(ValueError):
        evaluate(spark, ds, "faiss", CFG)


def test_format_table():
    rows = [{"a": 1, "b": "x"}, {"a": 2}]
    out = format_table(rows)
    lines = out.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "b" in lines[0]
    assert "2" in lines[3]
