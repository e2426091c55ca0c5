"""Benchmark: Tab. VI — accuracy on MS-COCO (lite).

Runs the table reproduction once at SF~0.1 scale; rows are printed and
saved to ``results/bench_table6.json`` (recorded in EXPERIMENTS.md).
"""
from _bench_util import run_table
from repro.eval.harness import EvalConfig
from repro.eval.tables import table6_mscoco

COCO_CFG = EvalConfig(ks=(10, 50, 100), l=256, l_cand=200, gamma=16, eps=3, epochs=10)


def test_bench_table6(benchmark, spark):
    rows = run_table(benchmark, table6_mscoco, "bench_table6", **dict(spark=spark, n=6000, nq=240, cfg=COCO_CFG))
    assert rows
