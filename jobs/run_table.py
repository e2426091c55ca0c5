"""Run one paper table at its full default scale and print its rows.

    python jobs/run_table.py <name>      # or: spark-submit jobs/run_table.py <name>

``<name>`` is a key of :data:`repro.eval.tables.TABLES`: ``table3`` …
``table13``, ``table5_bottoms`` (Tab. XXI) or ``ablation_graphs``
(Fig. 10). The rows go to stdout as a monospace table and to stderr as
one JSON line.
"""
from __future__ import annotations

import argparse
import json
import sys

from _common import get_spark
from repro.eval.harness import format_table
from repro.eval.tables import TABLES

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Run one paper table at full scale.")
    ap.add_argument("name", choices=list(TABLES))
    table = TABLES[ap.parse_args().name]
    spark = get_spark(table.title)
    try:
        spark.sparkContext.setLogLevel("ERROR")
        rows = table.fn(spark, **table.args)
    finally:
        # also on failure: stopping removes the session's Unix socket files
        spark.stop()
    print(f"\n== {table.title} ==")
    print(format_table(rows))
    print(json.dumps(rows, default=str), file=sys.stderr)
