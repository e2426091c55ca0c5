"""Benchmark: Tabs. XIII-XVIII — learned weights.

Runs the table reproduction once at SF~0.1 scale; rows are printed and
saved to ``results/bench_table13.json`` (recorded in EXPERIMENTS.md).
"""
from _bench_util import run_table
from repro.eval.tables import table13_learned_weights


def test_bench_table13(benchmark, spark):
    rows = run_table(benchmark, table13_learned_weights, "bench_table13", **dict(spark=spark, n=6000, nq=240, epochs=15))
    assert rows
