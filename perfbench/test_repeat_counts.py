"""Counts repeat exactly across two runs with the same seed.

A later change may then cite a count it moves (dots saved by Lemma 4,
repair edges, degree) as a count rather than a timing. Each run is the
full benchmark with the shortest loop (the workload's minimum number
of op cycles), so the same batches are searched both times. Four runs
take a few minutes; these tests are not part of ``pytest tests/``:

    python3 -m pytest perfbench/test_repeat_counts.py -q
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 7

COUNTS = {
    0: ("index_bytes", "recall_at_10"),
    1: (
        "beam_search.expanded_per_q", "beam_search.candidates_per_q",
        "beam_search.dots_per_q", "beam_search.dots_saved_frac",
        "graphs.repair_edges", "graphs.degree_mean", "graphs.degree_max",
    ),
}


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("trace", [0, 1])
def test_counts_repeat_for_one_seed(trace):
    first, second = run_bench("interactive-m2", trace), run_bench("interactive-m2", trace)
    assert {k: first[k] for k in COUNTS[trace]} == {k: second[k] for k in COUNTS[trace]}
