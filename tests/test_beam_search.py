"""Tests for the Algorithm-2 kernel (repro.ann.beam_search) and its
per-query reference (tests/reference_beam_search.py)."""
import numpy as np
import pytest

from repro.ann.beam_search import SearchStats
from repro.ann.distance import concat_weighted, joint_ip_matrix, normalize
from repro.ann.graphs import build_graph
from repro.ann.bruteforce import topk_numpy
from tests.reference_beam_search import beam_search


@pytest.fixture(scope="module")
def world(spark):
    g = np.random.default_rng(0)
    obj = [normalize(g.standard_normal((300, 12))), normalize(g.standard_normal((300, 8)))]
    qry = [normalize(g.standard_normal((20, 12))), normalize(g.standard_normal((20, 8)))]
    w = [0.4, 0.6]
    vecs = concat_weighted(obj, w)
    graph = build_graph(spark, vecs, gamma=12, eps=3, seed=0)
    return obj, qry, w, graph


def run_query(world, j, k=5, l=50, optimize=True, rng_seed=7):
    obj, qry, w, graph = world
    q = [qry[0][j], qry[1][j]]
    return beam_search(
        q, obj, w, graph.nbrs, graph.seed_vertex, k, l,
        rng=np.random.default_rng(rng_seed), optimize=optimize,
    )


def test_large_l_recovers_exact_topk(world):
    obj, qry, w, graph = world
    exact, _ = topk_numpy(qry, obj, w, 5)
    hits = 0
    for j in range(20):
        ids, _, _ = run_query(world, j, k=5, l=300)
        hits += len(set(ids).intersection(exact[j]))
    assert hits / (20 * 5) == pytest.approx(1.0)


def test_moderate_l_high_recall(world):
    obj, qry, w, graph = world
    exact, _ = topk_numpy(qry, obj, w, 5)
    hits = sum(
        len(set(run_query(world, j, l=60)[0]).intersection(exact[j])) for j in range(20)
    )
    assert hits / 100 > 0.9


def test_optimization_does_not_change_results(world):
    """Lemma 4: early termination is lossless."""
    for j in range(10):
        ids_a, ips_a, _ = run_query(world, j, optimize=True)
        ids_b, ips_b, _ = run_query(world, j, optimize=False)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(ips_a, ips_b, rtol=1e-6)


def test_optimization_saves_dot_products(spark, world):
    """With a dominant modality the Lemma-4 bound prunes most second-
    modality dot products (the paper's Fig. 10(c) mechanism)."""
    obj, qry, _, _ = world
    from repro.ann.distance import concat_weighted

    w = [0.9, 0.1]
    vecs = concat_weighted(obj, w)
    graph = build_graph(spark, vecs, gamma=12, eps=2, seed=0)
    saved = not_saved = 0
    for j in range(10):
        q = [qry[0][j], qry[1][j]]
        _, _, st = beam_search(
            q, obj, w, graph.nbrs, graph.seed_vertex, 5, 20,
            rng=np.random.default_rng(7), optimize=True,
        )
        saved += st.n_dots_saved
        _, _, st2 = beam_search(
            q, obj, w, graph.nbrs, graph.seed_vertex, 5, 20,
            rng=np.random.default_rng(7), optimize=False,
        )
        not_saved += st2.n_dots_saved
    assert saved > 0
    assert not_saved == 0


def test_scores_are_true_joint_ips(world):
    obj, qry, w, graph = world
    ids, ips, _ = run_query(world, 3, k=5, l=80)
    expected = joint_ip_matrix([qry[0][3:4], qry[1][3:4]], obj, w)[0][ids]
    np.testing.assert_allclose(ips, expected, rtol=1e-5)


def test_results_sorted_descending(world):
    _, ips, _ = run_query(world, 1, k=5, l=60)
    assert np.all(np.diff(ips) <= 1e-9)


def test_deterministic_given_rng(world):
    a = run_query(world, 2, rng_seed=11)
    b = run_query(world, 2, rng_seed=11)
    np.testing.assert_array_equal(a[0], b[0])


def test_missing_modality_uses_remaining_weights(world):
    obj, qry, w, graph = world
    q = [qry[0][0], None]
    ids, ips, _ = beam_search(
        q, obj, w, graph.nbrs, graph.seed_vertex, 5, 300,
        rng=np.random.default_rng(0),
    )
    exact, _ = topk_numpy([qry[0][0:1], None], obj, w, 5)
    assert set(ids) == set(exact[0])


def test_stats_counters_populated(world):
    _, _, st = run_query(world, 0)
    assert isinstance(st, SearchStats)
    assert st.n_expanded > 0
    assert st.n_candidates >= st.n_expanded
    assert st.n_dots > 0


def test_batch_kernel_matches_single(world):
    """beam_search_batch must match per-query beam_search under the
    shared RNG convention (same ids; IPs equal up to f32 summation order)."""
    from repro.ann.beam_search import beam_search_batch

    obj, qry, w, graph = world
    qids = np.arange(12)
    ids_b, ips_b, st = beam_search_batch(
        qry, obj, w, graph.nbrs, graph.seed_vertex, 5, 40, qids, rng_base=9
    )
    for j in qids:
        ids_s, ips_s, _ = beam_search(
            [qry[0][j], qry[1][j]], obj, w, graph.nbrs, graph.seed_vertex, 5, 40,
            rng=np.random.default_rng((9 << 20) + int(j)),
        )
        np.testing.assert_array_equal(ids_b[j], ids_s)
        np.testing.assert_allclose(ips_b[j], ips_s, rtol=1e-5)
    assert st.n_expanded > 0


def test_batch_kernel_matches_single_with_optimization(world):
    from repro.ann.beam_search import beam_search_batch

    obj, qry, _, _ = world
    from repro.ann.distance import concat_weighted
    w = [0.9, 0.1]
    import repro.ann.graphs as G
    # reuse module-level graph helper quickly on the weighted space
    qids = np.arange(8)
    ids_b, _, st_b = beam_search_batch(
        qry, obj, w, world[3].nbrs, world[3].seed_vertex, 5, 30, qids,
        rng_base=4, optimize=True,
    )
    ids_n, _, _ = beam_search_batch(
        qry, obj, w, world[3].nbrs, world[3].seed_vertex, 5, 30, qids,
        rng_base=4, optimize=False,
    )
    np.testing.assert_array_equal(ids_b, ids_n)  # Lemma 4: lossless
    assert st_b.n_dots_saved > 0


def test_batch_kernel_missing_modality(world):
    from repro.ann.beam_search import beam_search_batch

    obj, qry, w, graph = world
    ids_b, _, _ = beam_search_batch(
        [qry[0], None], obj, w, graph.nbrs, graph.seed_vertex, 5, 300,
        np.arange(5), rng_base=0,
    )
    exact, _ = topk_numpy([qry[0][:5], None], obj, w, 5)
    for j in range(5):
        assert set(ids_b[j]) == set(exact[j])


def test_k_greater_than_l_clamped(world):
    obj, qry, w, graph = world
    ids, _, _ = beam_search(
        [qry[0][0], qry[1][0]], obj, w, graph.nbrs, graph.seed_vertex, 10, 5,
        rng=np.random.default_rng(0),
    )
    assert len(ids) == 10  # l raised to k internally
