"""Benchmark: Tab. VII — response time vs data volume.

Runs the table reproduction once at SF~0.1 scale; rows are printed and
saved to ``results/bench_table7.json`` (recorded in EXPERIMENTS.md).
"""
from _bench_util import run_table
from repro.eval.tables import table7_scale


def test_bench_table7(benchmark, spark):
    rows = run_table(benchmark, table7_scale, "bench_table7", **dict(spark=spark, scales=(5_000, 10_000, 20_000, 40_000, 80_000), nq=200, gamma=20))
    assert rows
