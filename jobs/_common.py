"""The SparkSession the table jobs, the tests and the benchmark share."""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
