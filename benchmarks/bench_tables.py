"""Every paper table of :data:`repro.eval.tables.TABLES`, once each at
benchmark scale (SF~0.1-equivalent).

    pytest benchmarks/ --benchmark-only [-k <name>]

Each runs through ``pytest-benchmark`` (``pedantic``, one round: the
tables are themselves timing experiments), prints its rows and saves them
to ``results/bench_<name>.json``, which ``jobs/render_experiments.py``
renders into EXPERIMENTS.md.
"""
import json
import pathlib

import pytest

from repro.eval.harness import format_table
from repro.eval.tables import TABLES

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize("name", list(TABLES))
def test_bench(benchmark, spark, name):
    table = TABLES[name]
    rows = benchmark.pedantic(
        lambda: table.fn(spark, **table.args, **table.bench), rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"bench_{name}.json").write_text(json.dumps(rows, indent=1, default=str))
    print(f"\n== {table.title} ==")
    print(format_table(rows))
    assert rows
