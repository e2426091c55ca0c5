"""One distributed map over an id range: the Spark plumbing every pass shares.

Algorithm 1's passes (① NNDescent, ②③ neighbor selection) are per-vertex
kernels; Algorithm 2 and the exact scan are per-query kernels. Each runs
the same way: the ids ``0..n-1`` form a ``spark.range`` over
``min(defaultParallelism, ceil(n / MIN_IDS_PER_TASK))`` partitions (an
empty range plans as none), the read-mostly state rides along as
broadcasts, and ``mapInPandas`` calls the kernel
``fn(ids, *values) -> pd.DataFrame`` once per non-empty Arrow batch, with
``values`` the broadcasts' contents in the order given.

Op size: each task gets at least :data:`MIN_IDS_PER_TASK` ids, up to one
task per core. A task costs an op more than merging small kernel batches
costs: a no-op over 16 ids took 58 ms as one task and 101 ms as four,
while one kernel call over 16 queries took 29 ms against 23 ms over 4
(search, l=100; 104 against 75 ms at l=400; the scan under 1 ms). So a
16-query op runs as one task and a 512-query op over every core
(DESIGN.md §5). :func:`to_pandas` reports the op's partition count as
``attrs["parts"]`` of the frame it returns.

The range is generated on the executors, one contiguous id split per
partition, so an op is one stage: nothing is uploaded from the driver and
nothing is shuffled. Each kernel computes an id's rows from that id
alone, so the split decides only which task computes them.

Broadcast ownership: a value that is already a ``Broadcast`` is the
caller's and passes through unreleased (``build_graph`` ships ``vecs``
once for all of its passes). Any other value is broadcast here and
destroyed by :func:`release`, which :func:`collect` and :func:`to_pandas`
call in ``try/finally``. Whoever consumes a :func:`lazy` DataFrame
otherwise calls it once no job on that DataFrame, or on one derived from
it, will run again. Garbage collection cannot tell when that is: a
DataFrame derived from a temporary (``lazy(...).select(...)``) still
needs the broadcasts after the temporary is gone.

Worker import state: pyspark 4.1 starts every Python task with
``importlib.invalidate_caches()``, which makes each cached zip importer
re-read its archive's directory (``pyspark.zip`` and its sub-packages,
the py4j zip, the spark-core jar: 16 importers on a reused worker, the
bulk of the per-task floor, DESIGN.md §5). Each task therefore ends with
:func:`_drop_zip_importers`, so the next task on the reused worker has
none to refresh.
"""
from __future__ import annotations

import sys
import zipimport
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.broadcast import Broadcast
from pyspark.sql import DataFrame, SparkSession

# the fewest ids a task runs, unless the op has fewer (DESIGN.md §5)
MIN_IDS_PER_TASK = 32


def _drop_zip_importers() -> None:
    """Forget the worker's zip importers and its ``.jar`` path entries.

    ``sys.path_importer_cache`` is a cache: a later import of a module not
    yet loaded rebuilds the importer through ``sys.path_hooks`` (one
    directory read), and loaded modules keep their own loaders. The jars
    on ``sys.path`` (the spark-core jar) hold no Python.
    """
    sys.path[:] = [p for p in sys.path if not p.endswith(".jar")]
    for key, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[key]


def _destroy(owned: list[Broadcast]) -> None:
    for b in owned:
        b.destroy()


def lazy(
    spark: SparkSession, n: int, fn: Callable[..., pd.DataFrame], schema: str, *values
) -> DataFrame:
    """``fn`` over the ids ``0..n-1`` as an unexecuted DataFrame over
    ``min(defaultParallelism, ceil(n / MIN_IDS_PER_TASK))`` partitions."""
    parts = min(spark.sparkContext.defaultParallelism, -(-n // MIN_IDS_PER_TASK))
    ids = spark.range(0, n, 1, max(1, parts))
    shipped, owned = [], []

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        try:
            vals = [b.value for b in shipped]
            for pdf in batches:
                batch = pdf["id"].to_numpy()
                if len(batch):
                    yield fn(batch, *vals)
        finally:
            _drop_zip_importers()

    try:
        for v in values:
            if not isinstance(v, Broadcast):
                v = spark.sparkContext.broadcast(v)
                owned.append(v)
            shipped.append(v)
        df = ids.mapInPandas(run, schema=schema)
    except BaseException:
        _destroy(owned)
        raise
    df._spark_map_owned = owned
    df._spark_map_parts = parts
    return df


def release(df: DataFrame) -> None:
    """Destroy the broadcasts :func:`lazy` made for ``df`` (once; a no-op
    for any other DataFrame)."""
    _destroy(vars(df).pop("_spark_map_owned", []))


def to_pandas(df: DataFrame) -> pd.DataFrame:
    """Collect a :func:`lazy` DataFrame, then release it. The rows carry
    the op's partition count as ``attrs["parts"]``."""
    try:
        pdf = df.toPandas()
    finally:
        release(df)
    pdf.attrs["parts"] = df._spark_map_parts
    return pdf


def collect(
    spark: SparkSession, n: int, fn: Callable[..., pd.DataFrame], schema: str, *values
) -> pd.DataFrame:
    """Run ``fn`` over the ids ``0..n-1`` and collect its rows."""
    return to_pandas(lazy(spark, n, fn, schema, *values))


def scatter_rows(pdf: pd.DataFrame, n: int, width: int) -> np.ndarray:
    """``(id, nbrs)`` list rows → padded int32 ``(n, width)``, ``-1`` fill."""
    out = np.full((n, width), -1, dtype=np.int32)
    for i, row in zip(pdf["id"].to_numpy(), pdf["nbrs"]):
        out[i, : len(row)] = row
    return out


# the rows of a per-query top-k: one per (query, result), rank 1-based
TOPK_SCHEMA = "qid long, oid long, rank int, ip_joint double, compute_s double"


def topk_rows(
    qids: np.ndarray, ids: np.ndarray, ips: np.ndarray, seconds: float
) -> pd.DataFrame:
    """``(len(qids), k)`` ids and IPs → :data:`TOPK_SCHEMA` rows, the
    inverse of :func:`scatter_topk`. ``-1`` ids are dropped; ``seconds``
    (the batch's kernel time) is spread evenly over the rows kept, so
    summing ``compute_s`` gives it back."""
    k = ids.shape[1]
    keep = ids.ravel() >= 0
    return pd.DataFrame({
        "qid": np.repeat(qids, k)[keep],
        "oid": ids.ravel()[keep].astype(np.int64),
        "rank": np.tile(np.arange(1, k + 1), len(qids))[keep],
        "ip_joint": ips.ravel()[keep].astype(np.float64),
        "compute_s": seconds / max(int(keep.sum()), 1),
    })


def scatter_topk(pdf: pd.DataFrame, nq: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(qid, rank, oid, ip_joint)`` rows → ``(nq, k)`` ids (``-1`` fill)
    and joint IPs (``-inf`` fill); ranks are 1-based, ranks above ``k``
    are dropped."""
    ids = np.full((nq, k), -1, dtype=np.int64)
    ips = np.full((nq, k), -np.inf)
    rank = pdf["rank"].to_numpy(np.int64)
    sel = rank <= k
    at = (pdf["qid"].to_numpy(np.int64)[sel], rank[sel] - 1)
    ids[at] = pdf["oid"].to_numpy(np.int64)[sel]
    ips[at] = pdf["ip_joint"].to_numpy(np.float64)[sel]
    return ids, ips
