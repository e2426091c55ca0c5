"""Benchmark: Tab. IX — user-defined weights.

Runs the table reproduction once at SF~0.1 scale; rows are printed and
saved to ``results/bench_table9.json`` (recorded in EXPERIMENTS.md).
"""
from _bench_util import run_table
from repro.eval.harness import EvalConfig
from repro.eval.tables import table9_user_weights

CFG = EvalConfig(ks=(1, 5, 10), l=128, l_cand=100, gamma=16, eps=3, epochs=10)


def test_bench_table9(benchmark, spark):
    rows = run_table(benchmark, table9_user_weights, "bench_table9", **dict(spark=spark, n=6000, nq=240, cfg=CFG))
    assert rows
