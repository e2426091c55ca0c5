"""The distributed map's id frame: one stage, no shuffle, the ids
``0..n-1`` each exactly once over
``min(defaultParallelism, ceil(n / MIN_IDS_PER_TASK))`` partitions (an
empty range plans as an empty relation); the worker import state each
task leaves behind; and the socket transport between the workers and
the JVM."""
import importlib
import math
import os
import sys
import tempfile
import zipimport

import numpy as np
import pandas as pd
import pytest

from jobs._common import MAX_SOCKET_DIR, python_socket_dir, python_sockets
from repro import spark_map


def echo(ids: np.ndarray, offset: int) -> pd.DataFrame:
    return pd.DataFrame({"id": ids + offset})


@pytest.mark.parametrize("n", [0, 1, 3, 32, 33, 50, 200])
def test_id_frame_is_one_stage(spark, n):
    df = spark_map.lazy(spark, n, echo, "id long", 0)
    try:
        assert sorted(r.id for r in df.collect()) == list(range(n))
        plan = df._jdf.queryExecution().executedPlan().toString()
        assert "Exchange" not in plan, plan
        parts = min(spark.sparkContext.defaultParallelism,
                    math.ceil(n / spark_map.MIN_IDS_PER_TASK))
        assert df.rdd.getNumPartitions() == parts
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
    n = parts * spark_map.MIN_IDS_PER_TASK
    spark_map.collect(spark, n, echo, "id long", 0)
    pdf = spark_map.collect(spark, n, worker_imports, "zips string, jars string")
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
    n = spark.sparkContext.defaultParallelism * spark_map.MIN_IDS_PER_TASK
    spark_map.collect(spark, n, echo, "id long", 0)
    pdf = spark_map.collect(spark, n, import_fresh, "id long, file string")
    assert sorted(pdf["id"]) == list(range(n))
    assert pdf["file"].str.endswith("instrumentation_utils.py").all()


@pytest.mark.parametrize("tmpdir", ["/tmp", "/" + "d" * (MAX_SOCKET_DIR - 1)])
def test_short_temp_dir_gives_unix_sockets_there(tmpdir):
    assert python_socket_dir(tmpdir) == tmpdir


@pytest.mark.parametrize("tmpdir", [
    "/" + "d" * MAX_SOCKET_DIR,
    "/" + "d" * 64,
    "/" + "d" * 84,
    "/" + "\u00e9" * 31,  # 32 characters, 63 bytes
])
def test_long_temp_dir_keeps_tcp(tmpdir):
    """A socket path is the dir plus 43 bytes and AF_UNIX allows 107;
    Spark rejects a socket dir of more than 61 characters."""
    assert python_socket_dir(tmpdir) is None


def worker_transport(ids: np.ndarray) -> pd.DataFrame:
    uds = os.environ.get("PYTHON_UNIX_DOMAIN_ENABLED", "false").lower() == "true"
    return pd.DataFrame({"id": ids, "uds": uds})


def test_session_runs_the_chosen_transport(spark):
    """The session's Python sockets follow the temp dir: Unix domain
    sockets in it when it is short enough, TCP otherwise; and every
    worker of an op was started on that transport."""
    sock_dir = python_socket_dir(tempfile.gettempdir())
    conf = spark.sparkContext.getConf()
    if sock_dir is None:
        assert python_sockets(spark) == "tcp"
    else:
        assert conf.get("spark.python.unix.domain.socket.enabled") == "true"
        assert conf.get("spark.python.unix.domain.socket.dir") == sock_dir
        assert python_sockets(spark) == f"unix:{sock_dir}"
    n = spark.sparkContext.defaultParallelism * spark_map.MIN_IDS_PER_TASK
    pdf = spark_map.collect(spark, n, worker_transport, "id long, uds boolean")
    assert sorted(pdf["id"]) == list(range(n))
    assert (pdf["uds"] == (sock_dir is not None)).all(), pdf["uds"].tolist()
