"""How many tasks an op runs (``repro.spark_map``): a 16-query batch runs
as one task, a 512-query batch and every build pass over all cores;
``stats["parts"]`` is the executed frame's partition count, and no id or
counter depends on it. The graph search's IPs do not either; the exact
scan's float32 matmul may round differently in the last bit, because
the BLAS picks its kernel by the task's row count (a one-row task is a
matrix-vector product)."""
import numpy as np
import pytest

from repro import spark_map
from repro.baselines.mr import MR, fit_mr
from repro.core.fused_index import build_fused_index
from repro.core.must import fit_must
from repro.datasets import imagetext

W = [0.8, 0.75]


@pytest.fixture(scope="module")
def setup(spark):
    ds = imagetext(300, ("resnet50", "lstm"), nq=512, seed=3)
    return ds, {
        "index": fit_must(spark, ds.obj_mats, weights=W, gamma=8, eps=2),
        "brute": fit_must(spark, ds.obj_mats, weights=W, brute=True),
        "mr": fit_mr(spark, ds.obj_mats, brute=True),
        "mr_graph": fit_mr(spark, ds.obj_mats, gamma=8, eps=2),
    }


@pytest.fixture
def executed(monkeypatch):
    """The partition count of every frame ``spark_map.lazy`` builds."""
    parts = []
    lazy = spark_map.lazy

    def spy(*args, **kwargs):
        df = lazy(*args, **kwargs)
        parts.append(df.rdd.getNumPartitions())
        return df

    monkeypatch.setattr(spark_map, "lazy", spy)
    return parts


def search(model, qry):
    if isinstance(model, MR):
        return model.search(qry, k=10, l_cand=20)
    return model.search(qry, k=10, l=40)


@pytest.mark.parametrize("nq", [16, 512])
@pytest.mark.parametrize("path", ["index", "brute", "mr", "mr_graph"])
def test_task_count_follows_the_batch(spark, setup, executed, monkeypatch, path, nq):
    """16 queries (MR--: 32 stacked rows) are one task, 512 are one per
    core; the same batch forced over one task per core (one id per task
    at least) returns the same ids and effort counters, and the same IPs
    (the scan's to float32 rounding)."""
    ds, models = setup
    dp = spark.sparkContext.defaultParallelism
    qry = [m[:nq] for m in ds.qry_mats]
    out = search(models[path], qry)
    assert out.stats["parts"] == max(executed) == (1 if nq == 16 else dp)
    executed.clear()
    monkeypatch.setattr(spark_map, "MIN_IDS_PER_TASK", 1)
    forced = search(models[path], qry)
    assert forced.stats["parts"] == max(executed) == dp
    np.testing.assert_array_equal(out.ids, forced.ids)
    if path == "brute":
        np.testing.assert_allclose(out.ips, forced.ips, rtol=0, atol=1e-6)
    else:
        np.testing.assert_array_equal(out.ips, forced.ips)
    assert out.stats.keys() == forced.stats.keys()
    for name in out.stats.keys() - {"compute_s", "parts"}:
        assert out.stats[name] == forced.stats[name], name


def test_build_passes_run_over_every_core(spark, setup, executed):
    ds, _ = setup
    build_fused_index(spark, ds.obj_mats, W, gamma=8, eps=2)
    assert executed and set(executed) == {spark.sparkContext.defaultParallelism}
