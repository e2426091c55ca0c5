"""Tests for neighbor selection strategies (repro.ann.pruning)."""
from functools import lru_cache

import numpy as np
import pytest

from repro.ann.distance import concat_weighted, normalize
from repro.ann.nndescent import build_knn_graph
from repro.ann.pruning import STRATEGIES, select_neighbors, select_rows
from repro.datasets import imagetext, mscoco_lite
from tests.reference_prune import reference_select


@pytest.fixture(scope="module")
def setup(spark):
    v = normalize(np.random.default_rng(0).standard_normal((250, 12)))
    knn = build_knn_graph(spark, v, gamma=10, eps=2, seed=0)
    b = spark.sparkContext.broadcast(v)
    yield spark, v, knn, b
    b.destroy()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_output_shape_and_validity(setup, strategy):
    spark, v, knn, b = setup
    out = select_neighbors(spark, b, (knn,), 10, strategy=strategy)
    assert out.shape == (250, 10)
    valid = out[out >= 0]
    assert valid.max() < 250
    assert np.all(out != np.arange(250)[:, None])


def test_none_strategy_no_diversification(setup):
    """'none' keeps the raw top-gamma of the candidate pool (candidate
    acquisition still applies, so quality only improves over the kNN)."""
    from repro.ann.nndescent import graph_quality

    spark, v, knn, b = setup
    out = select_neighbors(spark, b, (knn,), 10, strategy="none")
    assert graph_quality(v, out, sample=200) >= graph_quality(v, knn, sample=200) - 1e-9
    for o in range(0, 250, 50):
        row = out[o][out[o] >= 0]
        ips = v[row] @ v[o]
        assert np.all(np.diff(ips) <= 1e-6)


def test_mrng_invariant_holds(setup):
    """Every kept neighbor v satisfies IP(o,v) > IP(u,v) against all
    neighbors u kept before it (the MRNG rule, paper ③ / Lemma 2)."""
    spark, v, knn, b = setup
    out = select_neighbors(spark, b, (knn,), 10, strategy="mrng")
    for o in range(0, 250, 25):
        kept = out[o][out[o] >= 0]
        for j in range(1, len(kept)):
            vv = kept[j]
            prior = kept[:j]
            assert np.all(v[vv] @ v[o] > v[prior] @ v[vv] - 1e-6)


def test_mrng_prunes_some_edges(setup):
    spark, v, knn, b = setup
    out = select_neighbors(spark, b, (knn,), 10, strategy="mrng")
    assert (out >= 0).sum() < (knn >= 0).sum()


def test_alpha_larger_keeps_more_edges(setup):
    spark, v, knn, b = setup
    tight = select_neighbors(spark, b, (knn,), 10, strategy="alpha", alpha=1.0)
    loose = select_neighbors(spark, b, (knn,), 10, strategy="alpha", alpha=1.6)
    assert (loose >= 0).sum() >= (tight >= 0).sum()


def test_angle_invariant_holds(setup):
    """Kept neighbors are pairwise separated by >= the angle threshold
    w.r.t. the order they were admitted."""
    spark, v, knn, b = setup
    out = select_neighbors(spark, b, (knn,), 8, strategy="angle")
    cos60 = np.cos(np.deg2rad(60.0))
    for o in range(0, 250, 25):
        kept = out[o][out[o] >= 0]
        for j in range(1, len(kept)):
            ev = v[kept[j]] - v[o]
            for u in kept[:j]:
                eu = v[u] - v[o]
                c = ev @ eu / max(np.linalg.norm(ev) * np.linalg.norm(eu), 1e-12)
                assert c < cos60 + 1e-5


def test_first_neighbor_is_nearest_candidate(setup):
    spark, v, knn, b = setup
    out = select_neighbors(spark, b, (knn,), 10, strategy="mrng")
    for o in range(0, 250, 50):
        direct = knn[o][knn[o] >= 0]
        cand = np.unique(np.concatenate([direct, knn[direct].ravel()]))
        cand = cand[(cand != o) & (cand >= 0)]
        best = cand[np.argmax(v[cand] @ v[o])]
        assert out[o][0] == best


def test_invalid_strategy_raises(setup):
    spark, v, knn, b = setup
    with pytest.raises(ValueError):
        select_neighbors(spark, b, (knn,), 10, strategy="quantum")


# -- equivalence with the per-candidate reference loop -----------------------

# the two benchmark datasets under their fixed user weights, gamma=24, eps=3
BENCH_DATA = {
    "imagetext": (lambda seed: imagetext(2000, ("resnet50", "lstm"), seed=seed), (0.8, 0.75)),
    "mscoco": (
        lambda seed: mscoco_lite(("resnet50", "gru", "resnet50"), n=2000, seed=seed),
        (0.5, 0.3, 0.2),
    ),
}


@pytest.fixture(scope="module")
def bench_graph(spark):
    @lru_cache(maxsize=None)
    def make(name, seed):
        gen, w = BENCH_DATA[name]
        v = concat_weighted(gen(seed).obj_mats, w)
        return v, build_knn_graph(spark, v, gamma=24, eps=3, seed=seed)

    return make


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for o, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), f"vertex {o}: {a} != {b}"


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", sorted(BENCH_DATA))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_matches_reference(bench_graph, name, seed, strategy):
    """The occlusion scan keeps exactly the per-candidate loop's neighbors,
    in the same order: all 2000 vertices for MRNG (the paper's rule), the
    first 500 for the ablation strategies."""
    v, knn = bench_graph(name, seed)
    ids = np.arange(v.shape[0] if strategy == "mrng" else 500)
    got = select_rows(v, (knn,), ids, 24, strategy=strategy)
    assert_rows_equal(got, reference_select(v, knn, ids, 24, strategy=strategy))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_spark_path_matches_reference(setup, strategy):
    spark, v, knn, b = setup
    out = select_neighbors(spark, b, (knn,), 10, strategy=strategy)
    want = reference_select(v, knn, range(250), 10, strategy=strategy)
    for o in range(250):
        assert np.array_equal(out[o][out[o] >= 0], want[o]), o


# -- exact ties ---------------------------------------------------------------


def _slack(v, o, prior, x, strategy, alpha=1.2, angle_deg=60.0):
    """Per kept ``u`` in ``prior``: how far candidate ``x`` is on the keep
    side of the strategy's test against ``u`` (float64; > 0 keeps)."""
    v = v.astype(np.float64)
    ip_ox, ip_ux = v[x] @ v[o], v[prior] @ v[x]
    if strategy == "mrng":
        return ip_ox - ip_ux
    if strategy == "alpha":
        d_ox = max(2.0 - 2.0 * ip_ox, 0.0)
        return alpha * alpha * np.maximum(2.0 - 2.0 * ip_ux, 0.0) - d_ox
    ex, eu = v[x] - v[o], v[prior] - v[o]
    cos = eu @ ex / np.maximum(np.linalg.norm(ex) * np.linalg.norm(eu, axis=1), 1e-12)
    return np.cos(np.deg2rad(angle_deg)) - cos


@pytest.mark.parametrize("strategy", ("mrng", "alpha", "angle"))
def test_exact_ties_decided_within_rounding(strategy):
    """With duplicate vectors some decisions compare two equal IPs, and
    float32 rounding inside BLAS picks the side, so the occlusion scan may
    differ from the per-candidate loop there. Every row still satisfies
    the strategy's rule within 1e-5, and a row that differs first
    diverges at a decision whose margin is at most 1e-5."""
    g = np.random.default_rng(3)
    v = g.standard_normal((400, 12))
    v[30:60] = v[0:30]  # 30 duplicated pairs
    v[100:110] = v[100]  # a cluster of 10 identical vectors
    v = normalize(v)
    ips = v @ v.T
    np.fill_diagonal(ips, -np.inf)
    knn = np.argsort(-ips, axis=1, kind="stable")[:, :10].astype(np.int32)

    gamma, ids = 10, np.arange(400)
    got = select_rows(v, (knn,), ids, gamma, strategy=strategy)
    want = reference_select(v, knn, ids, gamma, strategy=strategy)
    for o in ids:
        a, r = got[o], want[o]
        for j in range(1, len(a)):
            assert _slack(v, o, a[:j], a[j], strategy).min() > -1e-5, (o, j)
        if np.array_equal(a, r):
            continue
        p = next(i for i in range(min(len(a), len(r)) + 1)
                 if i == len(a) or i == len(r) or a[i] != r[i])
        assert p > 0  # both keep the nearest candidate
        # the candidate one kept and the other skipped, judged against the
        # same kept prefix: the earlier of the two in the visiting order
        if p == len(a) or p == len(r):
            x = (a if p < len(a) else r)[p]
        else:
            order = list(reference_select(v, knn, [o], 400, strategy="none")[0])
            x = min(a[p], r[p], key=order.index)
        assert abs(_slack(v, o, a[:p], x, strategy).min()) <= 1e-5, (o, p)
