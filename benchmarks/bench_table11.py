"""Benchmark: Tab. XI — graph quality vs iterations.

Runs the table reproduction once at SF~0.1 scale; rows are printed and
saved to ``results/bench_table11.json`` (recorded in EXPERIMENTS.md).
"""
from _bench_util import run_table
from repro.eval.tables import table11_graph_quality


def test_bench_table11(benchmark, spark):
    rows = run_table(benchmark, table11_graph_quality, "bench_table11", **dict(spark=spark, n=10_000, gamma=20))
    assert rows
