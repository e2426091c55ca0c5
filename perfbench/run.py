"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload interactive-m2 --seed 1 --seconds 8 --trace 0

Run from the repository root. Workloads and metrics are declared in
``BENCHMARK.json``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``), and the lines above it print each metric with its unit
and sample count. The exit code is non-zero when any output check fails.
Spark scratch space, temporary files and the traced run's spans go to
``.perfbench/`` at the repository root.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shlex
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def configure_env() -> None:
    """Deployment settings only; the session itself comes from the
    program's ``jobs/_common.get_spark``. Must run before pyspark loads."""
    local, tmp = OUT / "spark-local", OUT / "tmp"
    local.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(tmp)
    # ``repro`` is not installed: the Python workers need src/ on their path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master local[4] --driver-memory 1g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false --conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(local))}",
        # no hsperfdata in the system /tmp: all files stay in the checkout
        "--driver-java-options",
        shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "pyspark-shell",
    ])
    sys.path[:0] = [src, str(ROOT)]


def end_to_end(b, spark_start_s: float, peak_rss_mb: float) -> dict[str, float]:
    from perfbench.harness import median
    from perfbench.workloads import K

    walls, queries = b.walls[False], b.queries[False]
    out = {"setup_s": spark_start_s + b.setup_s}
    for kind in ("search", "scan"):
        out[f"{kind}_p50_ms"] = median(walls[kind]) * 1e3
        out[f"{kind}_qps"] = queries[kind] / sum(walls[kind])
    out["mr_search_p50_ms"] = median(walls["mr_search"]) * 1e3
    out["recall_at_10"] = b.hits / (K * b.recall_queries)
    out["build_s"] = median(b.build_s)
    out["index_bytes"] = median(b.index_bytes)
    out["peak_rss_mb"] = peak_rss_mb
    return out


def layer_extras(b, noop_ms: tuple[float, float]) -> dict[str, float]:
    from perfbench.harness import median

    traced, untraced = b.walls[True], b.walls[False]
    diffs = [median(traced[k]) - median(untraced[k]) for k in untraced if traced.get(k)]
    return {
        "datasets.gen_s": median(b.gen_s),
        "ground_truth_s": median(b.gt_s),
        "spark.noop_job_ms_start": noop_ms[0],
        "spark.noop_job_ms_end": noop_ms[1],
        "trace.overhead_ms": statistics.mean(diffs) * 1e3,
    }


def report(b, name: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    """Human-readable lines: every metric with its unit, and for the
    timings the sample count and the tail percentile where one exists."""
    from perfbench.harness import tail

    print(f"== {name} seed={b.seed}: {b.attempted} checks, {b.failed} failed, "
          f"failed_frac {b.failed / b.attempted:.4f}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6g} {units[key]}")
    for kind, ws in b.walls[False].items():
        t = tail(ws)
        tail_txt = (f"p{t[0]:.1f} = {t[1] * 1e3:.1f} ms" if t else
                    "no percentile has 10 samples above it")
        print(f"  {kind}: {len(ws)} batches of {b.queries[False][kind] // len(ws)} queries; "
              f"p50 of {len(ws)}; {kind}_tail_ms: {tail_txt}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    configure_env()
    # imports the program: a checkout without src/ fails here, before Spark
    from perfbench import harness, workloads
    from perfbench.tracing import Tracer, per_layer

    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.enabled = True
    with harness.PeakRSS() as rss:
        t0 = time.perf_counter()
        spark = harness.start_spark(f"perfbench-{args.workload}")
        try:
            harness.noop_job_ms(spark)  # the first job starts the Python workers
            spark_start_s = time.perf_counter() - t0
            noop_start = harness.noop_job_ms(spark)
            b = workloads.Bench(spark, tracer, args.seed, args.seconds, bool(args.trace))
            workloads.run(args.workload, b)
            noop_end = harness.noop_job_ms(spark)
            t1 = time.perf_counter()
        finally:
            harness.stop_spark(spark)
    print(f"[perfbench] spark start {spark_start_s:.1f} s, workload {t1 - t0 - spark_start_s:.1f} s, "
          f"stop {time.perf_counter() - t1:.1f} s", file=sys.stderr)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(tracer, layer_extras(b, (noop_start, noop_end)))
    else:
        metrics = end_to_end(b, spark_start_s, rss.peak_mb)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    if not all(math.isfinite(v) for v in metrics.values()):
        raise SystemExit(f"non-finite metric: {metrics}")

    report(b, args.workload, metrics, units)
    print(json.dumps({
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0 if b.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
