"""The SparkSession the table jobs, the tests and the benchmark share."""
from __future__ import annotations

import os
import sys
import tempfile

from pyspark.sql import SparkSession

# PySpark names each Unix domain socket ``<dir>/.<uuid4>.sock``, 43 bytes
# more than its directory, and AF_UNIX paths hold at most 107 bytes; Spark
# 4.1 itself rejects ``spark.python.unix.domain.socket.dir`` values of more
# than 61 characters at the first Python job. 61 bytes satisfies both.
MAX_SOCKET_DIR = 61


def python_socket_dir(tmpdir: str) -> str | None:
    """The directory for PySpark's Unix domain sockets, or None when
    ``tmpdir`` is too long for a socket path (the sockets stay on TCP)."""
    return tmpdir if len(os.fsencode(tmpdir)) <= MAX_SOCKET_DIR else None


def python_sockets(spark: SparkSession) -> str:
    """``unix:<dir>`` or ``tcp``: how this session's Python workers, the
    accumulator server and the Arrow collect reach the JVM."""
    conf = spark.sparkContext.getConf()
    if conf.get("spark.python.unix.domain.socket.enabled", "false") == "true":
        return f"unix:{conf.get('spark.python.unix.domain.socket.dir')}"
    return "tcp"


def get_spark(app: str) -> SparkSession:
    """The session, with PySpark's Python sockets on Unix domain sockets
    in the temp dir. Over loopback TCP each worker's first Arrow batch
    waits ~40 ms for a delayed ACK (Spark sets no ``TCP_NODELAY`` there);
    DESIGN.md §5 has the measurement. The dir is set explicitly so the
    JVM and this driver agree on it."""
    builder = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
    )
    tmpdir = tempfile.gettempdir()
    sock_dir = python_socket_dir(tmpdir)
    if sock_dir is None:
        print(f"get_spark: temp dir {tmpdir!r} is longer than {MAX_SOCKET_DIR} "
              "bytes for a Unix socket path; Python sockets stay on TCP",
              file=sys.stderr)
    else:
        builder = (builder.config("spark.python.unix.domain.socket.enabled", "true")
                   .config("spark.python.unix.domain.socket.dir", sock_dir))
    return builder.getOrCreate()
