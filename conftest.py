import os
import sys


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback. spark.driver.memory is read at JVM launch, not
    from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS before pyspark is
    imported anywhere — this runs at conftest import, which pytest loads
    before any test module.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            with open(p) as f:
                raw = f.read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark(pytestconfig) -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). The session is the program's own
    ``jobs/_common.get_spark``, so tests run under the session config the
    table jobs and the benchmark use; only the test-only shuffle partition
    count (read per query) is set on top.
    """
    from jobs._common import get_spark, python_sockets

    s = get_spark("repro")
    s.conf.set("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
    # One line in the test log that says whether the cgroup derivation saw
    # the real limit and which socket transport the workers use
    # (README § Spark target). Written past pytest's output capture, which
    # would otherwise show it only when the first test using it fails.
    with pytestconfig.pluginmanager.getplugin("capturemanager").global_and_fixture_disabled():
        print(
            f"\n[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
            f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
            f"master={s.sparkContext.master} "
            f"defaultParallelism={s.sparkContext.defaultParallelism} "
            f"python_sockets={python_sockets(s)}",
            file=sys.stderr,
        )
    yield s
    s.stop()


@pytest.fixture
def local_map(monkeypatch):
    """Replace the distributed map by a local call: the kernel runs once
    over all ids on the driver, and its rows report one task, as
    ``spark_map.to_pandas`` does (no Spark needed)."""
    import numpy as np

    from repro import spark_map

    def local(spark, n, fn, schema, *values):
        pdf = fn(np.arange(n), *values)
        pdf.attrs["parts"] = 1
        return pdf

    monkeypatch.setattr(spark_map, "lazy", local)
    monkeypatch.setattr(spark_map, "to_pandas", lambda pdf: pdf)
    monkeypatch.setattr(spark_map, "collect", local)
