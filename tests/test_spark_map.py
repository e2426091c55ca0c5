"""The distributed map's id frame: one stage, no shuffle, the ids
``0..n-1`` each exactly once over ``min(defaultParallelism, n)``
partitions (an empty range plans as an empty relation); and the worker
import state each task leaves behind."""
import importlib
import sys
import zipimport

import numpy as np
import pandas as pd
import pytest

from repro import spark_map


def echo(ids: np.ndarray, offset: int) -> pd.DataFrame:
    return pd.DataFrame({"id": ids + offset})


@pytest.mark.parametrize("n", [0, 1, 3, 50])
def test_id_frame_is_one_stage(spark, n):
    df = spark_map.lazy(spark, n, echo, "id long", 0)
    try:
        assert sorted(r.id for r in df.collect()) == list(range(n))
        plan = df._jdf.queryExecution().executedPlan().toString()
        assert "Exchange" not in plan, plan
        assert df.rdd.getNumPartitions() == min(spark.sparkContext.defaultParallelism, n)
    finally:
        spark_map.release(df)


def worker_imports(ids: np.ndarray) -> pd.DataFrame:
    zips = [k for k, v in sys.path_importer_cache.items() if isinstance(v, zipimport.zipimporter)]
    jars = [p for p in sys.path if p.endswith(".jar")]
    return pd.DataFrame({"zips": [" ".join(zips)], "jars": [" ".join(jars)]})


def test_tasks_leave_no_zip_importer(spark):
    """After one op, the next op's tasks find no zip importer to refresh
    and no jar on ``sys.path``: pyspark's per-task
    ``importlib.invalidate_caches()`` then re-reads no archive. One row
    per task, one task per partition, so every worker of the op is seen."""
    parts = spark.sparkContext.defaultParallelism
    spark_map.collect(spark, parts, echo, "id long", 0)
    pdf = spark_map.collect(spark, parts, worker_imports, "zips string, jars string")
    assert len(pdf) == parts
    assert (pdf["zips"] == "").all(), pdf["zips"].tolist()
    assert (pdf["jars"] == "").all(), pdf["jars"].tolist()


_FRESH = "pyspark.instrumentation_utils"


def import_fresh(ids: np.ndarray) -> pd.DataFrame:
    assert _FRESH not in sys.modules
    mod = importlib.import_module(_FRESH)
    return pd.DataFrame({"id": ids, "file": mod.__file__})


def test_unimported_pyspark_module_imports_after_the_trim(spark):
    """A kernel can still import a ``pyspark`` module the worker has not
    loaded: its dropped zip importer is rebuilt on demand."""
    parts = spark.sparkContext.defaultParallelism
    spark_map.collect(spark, parts, echo, "id long", 0)
    pdf = spark_map.collect(spark, parts, import_fresh, "id long, file string")
    assert sorted(pdf["id"]) == list(range(parts))
    assert pdf["file"].str.endswith("instrumentation_utils.py").all()
