"""Benchmark: Tab. XII / Fig. 6 — l sweep, MUST vs MR.

Runs the table reproduction once at SF~0.1 scale; rows are printed and
saved to ``results/bench_table12.json`` (recorded in EXPERIMENTS.md).
"""
from _bench_util import run_table
from repro.eval.tables import table12_l_sweep


def test_bench_table12(benchmark, spark):
    rows = run_table(benchmark, table12_l_sweep, "bench_table12", **dict(spark=spark, n=10_000, nq=240, gamma=20))
    assert rows
