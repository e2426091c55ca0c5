"""The distributed map's id frame: one stage, no shuffle, the ids
``0..n-1`` each exactly once over ``min(defaultParallelism, n)``
partitions (an empty range plans as an empty relation)."""
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
