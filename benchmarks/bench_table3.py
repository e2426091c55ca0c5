"""Benchmark: Tab. III — accuracy on MIT-States (lite).

Runs the table reproduction once at SF~0.1 scale; rows are printed and
saved to ``results/bench_table3.json`` (recorded in EXPERIMENTS.md).
"""
from _bench_util import run_table
from repro.eval.harness import EvalConfig
from repro.eval.tables import table3_mitstates

CFG = EvalConfig(ks=(1, 5, 10), l=128, l_cand=100, gamma=16, eps=3, epochs=10)


def test_bench_table3(benchmark, spark):
    rows = run_table(benchmark, table3_mitstates, "bench_table3", **dict(spark=spark, n=6000, nq=240, cfg=CFG))
    assert rows
