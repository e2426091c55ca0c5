"""Process-level pieces of the benchmark: the Spark session, the Spark
floor probe, peak-RSS sampling and the statistics it reports.

Nothing here starts at import; :mod:`perfbench.run` sets the environment
(master, driver memory, local dirs, ``PYTHONPATH``) before the first
``pyspark`` import.
"""
from __future__ import annotations

import os
import signal
import statistics
import subprocess
import threading
import time

import numpy as np
import pandas as pd


# --------------------------------------------------------------------------
# Spark session lifetime


def start_spark(app: str):
    """Session from the program's own ``jobs/_common.get_spark``, so a
    session-config change in the program is measured; master, memory and
    UI settings come from ``PYSPARK_SUBMIT_ARGS``."""
    from jobs._common import get_spark

    spark = get_spark(app)
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark, timeout_s: float = 60.0) -> None:
    """Stop the session, then the JVM, then wait for every process this
    one started (JVM, Python daemon and workers) to exit."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is not None:
        proc = getattr(gw, "proc", None)
        gw.shutdown()
        if proc is not None:
            # the gateway JVM exits when its stdin closes
            proc.stdin.close()
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout_s)
        SparkContext._gateway = None
        SparkContext._jvm = None
    deadline = time.monotonic() + timeout_s
    while (left := descendants(os.getpid())) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while descendants(os.getpid()) and time.monotonic() < deadline + 10:
        time.sleep(0.1)


def noop_job_ms(spark) -> float:
    """One empty ``mapInPandas`` job over ``defaultParallelism``
    partitions: the Spark scheduling floor under every small-batch op."""
    parts = spark.sparkContext.defaultParallelism
    t0 = time.perf_counter()
    df = spark.createDataFrame(pd.DataFrame({"x": np.arange(parts, dtype=np.int64)}))
    df.repartition(parts).mapInPandas(lambda it: it, schema="x long").toPandas()
    return (time.perf_counter() - t0) * 1e3


# --------------------------------------------------------------------------
# Peak RSS of the driver process tree, from /proc (psutil is not installed)


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may contain spaces; fields after ')' are fixed
        ppid = int(stat.rpartition(")")[2].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def descendants(root: int) -> list[int]:
    kids = _children_map()
    out, stack = [], list(kids.get(root, []))
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(kids.get(pid, []))
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb(root: int) -> float:
    return sum(_rss_kb(p) for p in [root, *descendants(root)]) / 1024.0


class PeakRSS:
    """Samples the summed VmRSS of this process and its descendants (the
    Spark JVM and its Python workers) on a background thread."""

    def __init__(self, period_s: float = 0.5):
        self.period_s = period_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        root = os.getpid()
        while True:
            self.peak_mb = max(self.peak_mb, tree_rss_mb(root))
            if self._stop.wait(self.period_s):
                return

    def __enter__(self) -> "PeakRSS":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# --------------------------------------------------------------------------
# Statistics


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, as
    ``(percentile, value)``; ``None`` below eleven samples."""
    xs = sorted(xs)
    if len(xs) < 11:
        return None
    i = len(xs) - 11
    return 100.0 * (i + 1) / len(xs), float(xs[i])
