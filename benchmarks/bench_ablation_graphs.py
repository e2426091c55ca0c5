"""Benchmark: Fig. 10 — graph variants + multi-vector opt.

Runs the table reproduction once at SF~0.1 scale; rows are printed and
saved to ``results/bench_ablation_graphs.json`` (recorded in EXPERIMENTS.md).
"""
from _bench_util import run_table
from repro.eval.tables import ablation_graphs


def test_bench_ablation_graphs(benchmark, spark):
    rows = run_table(benchmark, ablation_graphs, "bench_ablation_graphs", **dict(spark=spark, n=10_000, nq=240, gamma=20))
    assert rows
