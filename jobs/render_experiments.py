"""Render EXPERIMENTS.md from results/*.json + the paper's numbers.

Run after ``pytest benchmarks/ --benchmark-only`` has populated
``results/bench_<name>.json`` for the names of
:data:`repro.eval.tables.TABLES`: ``python jobs/render_experiments.py``.
A missing result file leaves its section out.
"""
from __future__ import annotations

import json
import pathlib

from repro.eval import paper_numbers as P

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


def load(name):
    p = RESULTS / f"{name}.json"
    return json.loads(p.read_text()) if p.exists() else None


def fmt(x, nd=4):
    if x is None or x == "":
        return "—"
    if isinstance(x, float):
        return f"{x:.{nd}f}".rstrip("0").rstrip(".") if nd else f"{x}"
    return str(x)


def acc_table(rows, paper, ks=("recall@1", "recall@5", "recall@10"), sme=True):
    """Side-by-side accuracy table: ours | paper per metric."""
    klabels = [k.split("@")[1] for k in ks]
    head = ["framework", "encoder"]
    for kl in klabels:
        head += [f"R@{kl} ours", f"R@{kl} paper"]
    if sme:
        head += ["SME ours", "SME paper"]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "---|" * len(head)]
    for r in rows:
        enc = r["encoder"]
        key = (r["framework"], enc if r["framework"] != "je" else enc.split("+")[0])
        pap = paper.get(key, (None,) * (len(ks) + (1 if sme else 0)))
        cells = [r["framework"].upper(), key[1]]
        for i, k in enumerate(ks):
            cells += [fmt(r.get(k)), fmt(pap[i] if i < len(pap) else None)]
        if sme:
            cells += [fmt(r.get("sme")), fmt(pap[len(ks)] if len(pap) > len(ks) else None)]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def section(title, body):
    return f"\n## {title}\n\n{body}\n"


def main() -> str:
    out = [HEADER]

    rows = load("bench_table3")
    if rows:
        out.append(section(
            "Table III — accuracy on MIT-States (lite)",
            acc_table(rows, P.TABLE3_MITSTATES) + "\n\n" + T3_NOTES))
    rows = load("bench_table4")
    if rows:
        out.append(section(
            "Table IV — accuracy on CelebA (lite)",
            acc_table(rows, P.TABLE4_CELEBA) + "\n\n" + T4_NOTES))
    rows = load("bench_table5")
    if rows:
        out.append(section(
            "Table V — accuracy on Shopping T-shirt (lite)",
            acc_table(rows, P.TABLE5_SHOPPING_TSHIRT) + "\n\n" + T5_NOTES))
    rows = load("bench_table6")
    if rows:
        out.append(section(
            "Table VI — accuracy on MS-COCO (lite), 3 modalities",
            acc_table(rows, P.TABLE6_MSCOCO,
                      ks=("recall@10", "recall@50", "recall@100"), sme=False)
            + "\n\n" + T6_NOTES))

    rows = load("bench_table7")
    if rows:
        paper_scales = list(P.TABLE7_SCALE.items())
        lines = ["| ours: scale | MUST-- tau s | MUST tau s | reduction | R@10(10) | l | build s | index MB | paper: scale | MUST-- s | MUST s | reduction |",
                 "|---|---|---|---|---|---|---|---|---|---|---|---|"]
        for i, r in enumerate(rows):
            ps, pv = paper_scales[i] if i < len(paper_scales) else ("—", ("—",) * 3)
            lines.append(
                f"| {r['scale']:,} | {r['must--_tau_s']} | {r['must_tau_s']} | "
                f"{r['reduction_pct']}% | {r['recall@10(10)']} | {r['l']} | "
                f"{r['build_s']} | {r['index_MB']} | {ps} | {pv[0]} | {pv[1]} | {pv[2]}% |")
        out.append(section("Table VII — response time vs data volume",
                           "\n".join(lines) + "\n\n" + T7_NOTES))

    rows = load("bench_table8")
    if rows:
        lines = ["| m | framework | R@1 | R@5 | R@10 |", "|---|---|---|---|---|"]
        for r in rows:
            lines.append(f"| {r['m']} | {r['framework'].upper()} | "
                         f"{fmt(r['recall@1'])} | {fmt(r['recall@5'])} | {fmt(r['recall@10'])} |")
        out.append(section("Table VIII — recall vs number of modalities (CelebA+)",
                           "\n".join(lines) + "\n\n" + T8_NOTES))

    rows = load("bench_table9")
    if rows:
        lines = ["| w0^2 | w1^2 | IP(q0,r0) ours | IP(q1,r1) ours | IP(q1,r1) paper |",
                 "|---|---|---|---|---|"]
        for r in rows:
            pap = P.TABLE9_USER_WEIGHTS.get(r["w0^2"], (None, None))
            lines.append(f"| {r['w0^2']} | {r['w1^2']} | {fmt(r['IP(q0,r0)'])} | "
                         f"{fmt(r['IP(q1,r1)'])} | {fmt(pap[1])} |")
        out.append(section("Table IX — user-defined weights (MIT-States)",
                           "\n".join(lines) + "\n\n" + T9_NOTES))

    rows = load("bench_table10")
    if rows:
        lines = ["| dataset | modality | encoder | R@1 ours | R@1 paper | R@5 ours | R@5 paper | R@10 ours | R@10 paper |",
                 "|---|---|---|---|---|---|---|---|---|"]
        for r in rows:
            key = (r["dataset"].split("-")[0], r["modality"], r["encoder"])
            pap = P.TABLE10_SINGLE_MODALITY.get(key, (None, None, None))
            lines.append(
                f"| {key[0]} | {r['modality']} | {r['encoder']} | "
                f"{fmt(r['recall@1'])} | {fmt(pap[0])} | {fmt(r['recall@5'])} | "
                f"{fmt(pap[1])} | {fmt(r['recall@10'])} | {fmt(pap[2])} |")
        out.append(section("Tables X / XIX / XX — single query modality (t=1)",
                           "\n".join(lines) + "\n\n" + T10_NOTES))

    rows = load("bench_table11")
    if rows:
        lines = ["| dataset | eps | quality ours | quality paper |", "|---|---|---|---|"]
        for r in rows:
            pap = P.TABLE11_GRAPH_QUALITY.get(r["dataset"], {}).get(r["eps"])
            lines.append(f"| {r['dataset']} | {r['eps']} | {fmt(r['graph_quality'])} | {fmt(pap)} |")
        out.append(section("Table XI — graph quality vs NNDescent iterations",
                           "\n".join(lines) + "\n\n" + T11_NOTES))

    rows = load("bench_table12")
    if rows:
        lines = ["| method | l | R@10(10) | R@10(1) | ms/query | QPS |", "|---|---|---|---|---|---|"]
        for r in rows:
            lines.append(f"| {r['method']} | {r['l']} | {fmt(r['recall@10(10)'])} | "
                         f"{fmt(r['recall@10(1)'])} | {r['time_ms_per_q']} | {r['qps']} |")
        lines += ["", "The paper's MUST rows (Tab. XII, 1M objects):", "",
                  "| paper: l | R@10(10) | ms/query |", "|---|---|---|"]
        for l, (rec, ms) in P.TABLE12_L_SWEEP.items():
            lines.append(f"| {l:,} | {fmt(rec)} | {ms} |")
        out.append(section("Table XII + §VIII-D (Fig. 6) — l sweep, MUST vs MR",
                           "\n".join(lines) + "\n\n" + T12_NOTES))

    rows = load("bench_table13")
    if rows:
        lines = ["| dataset | encoder | ours w_i^2 | paper omega_i^2 | train R@1 |",
                 "|---|---|---|---|---|"]
        for r in rows:
            ws = [v for k, v in sorted(r.items()) if k.startswith("w") and k.endswith("^2")]
            pap = P.TABLE13_WEIGHTS.get(r["dataset"], {}).get(r["encoder"])
            lines.append(f"| {r['dataset']} | {r['encoder']} | {ws} | "
                         f"{list(pap) if pap else '—'} | {fmt(r['train_recall@1'])} |")
        out.append(section("Tables XIII–XVIII — learned weights",
                           "\n".join(lines) + "\n\n" + T13_NOTES))

    rows = load("bench_table5_bottoms")
    if rows:
        out.append(section(
            "Table XXI — Shopping Bottoms (weights learned on T-shirt)",
            acc_table(rows, {k: v + (None,) for k, v in P.TABLE21_SHOPPING_BOTTOMS.items()})
            + "\n\n" + T21_NOTES))

    rows = load("bench_ablation_graphs")
    if rows:
        lines = ["| variant | multi-vec opt | build s | edges | R@10(10) | QPS | dots saved |",
                 "|---|---|---|---|---|---|---|"]
        for r in rows:
            lines.append(f"| {r['variant']} | {r['optimize']} | {r['build_s']} | "
                         f"{r['edges']:,} | {fmt(r['recall@10(10)'])} | {r['qps']} | "
                         f"{r['dots_saved_pct']}% |")
        out.append(section("§VIII-G (Fig. 10) — graph variants + multi-vector optimization",
                           "\n".join(lines) + "\n\n" + ABL_NOTES))

    out.append(FOOTER)
    return "\n".join(out)


HEADER = """# EXPERIMENTS — paper vs measured

Every evaluation table of the paper, reproduced on the synthetic
substrate described in DESIGN.md §2 (scale: n≈6k–80k objects instead of
54k–16M; simulated encoder zoo instead of deep encoders). Absolute
numbers are **not** expected to match — the substrate is a simulator —
but the *shapes* (which framework wins, by roughly what factor, where
crossovers fall) are the reproduction target and are called out per
table. Regenerate a table with `python jobs/run_table.py <name>` (full
scale) or `pytest benchmarks/ --benchmark-only -k <name>` (the scale
reported here, into `results/bench_<name>.json`), where `<name>` is
`table3` … `table13`, `table5_bottoms` (Tab. XXI) or `ablation_graphs`
(Fig. 10); this file is rendered by `python jobs/render_experiments.py`.
"""

T3_NOTES = """**Shape check vs paper Tab. III** — reproduced: MUST beats MR beats JE
for every encoder combo; ResNet50 combos beat ResNet17; LSTM combos beat
Transformer; CLIP is the best composition encoder (JE-CLIP ≈ paper's
0.22 @1); multi-vector MR beats single-vector JE. Deviation: our MUST
margin over MR (+5–15% relative @1) is smaller than the paper's +23% —
at n=6k MR's intersection merge is less starved than at the paper's
54k-image scale."""
T4_NOTES = """**Shape check vs paper Tab. IV** — reproduced: MUST > MR > JE per
encoder; JE-CLIP @1 ≈ 0.37 (paper 0.3644); TIRG rows trail CLIP rows.
Deviation: our ResNet50 slightly beats CLIP inside MUST (paper has CLIP
best); the paper's celeba-specific encoder ranking depends on details
our zoo does not model."""
T5_NOTES = """**Shape check vs paper Tab. V** — reproduced: the *pure image* channel
is near-useless on garments (target-only @1 ≈ 0.01, Tab. X section), JE
collapses, and MUST reaches ~0.42–0.56 @1 (paper 0.42–0.47), a 2.5–3×
gain over MR. Deviation: our MR (@1 ≈ 0.2) is above the paper's 0.0027 —
at n=6k the image top-l still catches the true object often enough for
the intersection to work; the paper's 96k-item corpus starves it."""
T6_NOTES = """**Shape check vs paper Tab. VI** — reproduced: hardest dataset; JE with
a 3-modality composition (MPC) is nearly blind (R@10 ≈ paper's 0.02);
MUST > MR > JE with modest absolute recall."""
T7_NOTES = """**Shape check vs paper Tab. VII** — tau is the summed in-worker kernel
time (the paper's single-thread response time); wall-clock includes
constant Spark job overhead. MUST-- selects its top-10 with a partial
select (`np.partition`, then only the scores at or above the 10th
largest sorted), not a full sort of all n scores. Not reproduced: MUST
never overtakes brute force. Over the three benchmark runs kept in
`results/table7_runs.json` (the table above is the last), MUST's tau was
1.13–1.71x MUST--'s at 20k, 1.70–2.13x at 40k (where l rises to 200) and
1.27–1.83x at 80k (l = 280). Over the five full-scale runs kept there
(`jobs/run_table.py table7`: 10k–160k, gamma 24), the median ratio was
1.57x at 20k and 40k, 1.66x at 80k and 1.51x at 160k (1.34–1.93x over
all runs from 20k on). Holding Recall@10(10) > 0.99 makes l rise from
100 to 560, so from 20k to 160k MUST's median tau grew 6.7x against
MUST--'s 5.8x: no crossover is in sight at these scales. The earlier
rows, with MUST ahead from ~15k and 25–50% faster at 20k–80k, compared
against a MUST-- that stable-sorted every score. The paper's reductions
(82.5%→98.4% at 1M–16M) come at 12–200x our scales, and our numpy
beam-search kernel pays ~6 µs of per-step overhead per (query,
expansion) that a C++ kernel does not. Build time and index size grow
near-linearly with n (paper Fig. 7)."""
T8_NOTES = """**Shape check vs paper Tab. VIII** — reproduced: recall grows with m
for MUST; MR's intersection merge degrades as m grows (m=4 no better or
worse than m=3), MUST handles m=4 gracefully."""
T9_NOTES = """**Shape check vs paper Tab. IX** — reproduced: raising the modality-0
weight monotonically raises the returned objects' modality-0 similarity
and lowers modality-1 similarity (paper's IP(q1,r1): 0.9999→0.8525)."""
T10_NOTES = """**Shape check vs paper Tabs. X/XIX/XX** — reproduced: single-modality
queries are far below multimodal ones; target-only @1 near zero on
mitstates/shopping (the reference sibling wins); auxiliary-only moderate
on MIT-States (~paper's 0.27), weak on CelebA (~paper's 0.04), ~0.1 on
Shopping (paper 0.096)."""
T11_NOTES = """**Shape check vs paper Tab. XI** — reproduced: quality is poor after 1
iteration, high after 2, ≈0.99 at eps=3 on all three stand-ins."""
T12_NOTES = """**Shape check vs paper Tab. XII + Fig. 6** — reproduced: MUST's
Recall@10(10) rises monotonically to 1.0 with l while per-query time
grows; MR is 3–6x slower at every operating point (t searches + merge)
and its semantic recall saturates below MUST's. Deviation: the paper's
MR plateaus under 0.4 and MUST is >10x faster — at our 10k-object scale
the intersection merge still works far better than at the paper's 1M,
so the gap is smaller; the direction and the saturation are the
reproduced shapes. The paper sweeps l = 700–4000 at 1M objects, ours
l = 10–640 at 10k, so the two l columns do not line up row by row:
compare where each curve saturates, not values at equal l."""
T13_NOTES = """**Shape check vs paper Tabs. XIII–XVIII** — the learned weights are
dataset-specific in both; ours favor the auxiliary/text modality
wherever it is the filter (shopping, imagetext) as in the paper. Exact
values differ — they encode each substrate's noise geometry — but the
model trains in seconds (paper: <200 s) vs hours for embedding models."""
T21_NOTES = """**Shape check vs paper Tab. XXI / App. M** — reproduced: the weights
learned on T-shirt transfer to Bottoms with no retraining and MUST keeps
its large margin — the weights capture modality importance, not content."""
ABL_NOTES = """**Shape check vs paper Fig. 10** — the paper's NSG row is "ours":
NSG's neighbor rule is MRNG, so an NSG re-assembly on this pipeline is
the same variant (the former "nsg" row had identical edges and recall,
and differed from "ours" only by run-to-run QPS). Reproduced:
MRNG-style pruning halves the edge count of kgraph at equal recall;
all component re-assemblies reach >0.99 Recall@10(10) on the shared
pipeline. The multi-vector optimization is lossless (identical results,
tests assert it) and skips ~5% of modality dot products here —
paper-consistent in direction; with only m=2 modalities and mildly
skewed learned weights the wall-clock effect is within noise (the paper
sees larger savings in high-accuracy regimes).

Build times are with the occlusion-scan neighbor selection (DESIGN.md
§5), n=10,000, γ=20, one run on 4 cores. On the same machine the
per-candidate selection loop it replaced built ours/nssg/vamana in
11.3/16.2/15.8 s (kgraph, which does not prune: 2.7 s), with the
same edges, R@10(10) and dots saved. QPS is a single shot and varies
from run to run by more than the gaps between variants."""
FOOTER = """
## Reading guide

* `tau` columns: summed per-worker kernel seconds (machine-comparable,
  excludes Spark scheduling overhead). `wall`: end-to-end job time.
* Recall@k(1): semantic ground truth (the query's true object).
  Recall@10(10): against the exact joint-similarity top-10.
* All runs are deterministic in the seeds baked into the jobs.
"""


if __name__ == "__main__":
    text = main()
    (ROOT / "EXPERIMENTS.md").write_text(text)
    print(f"wrote {ROOT / 'EXPERIMENTS.md'} ({len(text)} chars)")
