"""Tests for graph assembly (repro.ann.graphs)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.distance import normalize
from repro.ann.graphs import (
    VARIANTS,
    GraphIndex,
    build_graph,
    centroid_seed,
    ensure_connectivity,
)
from repro.core.fused_index import build_fused_index
from repro.datasets import imagetext, mscoco_lite
from tests.reference_graphs import ensure_connectivity as reference_connectivity


def vecs(n=200, d=12, seed=0):
    return normalize(np.random.default_rng(seed).standard_normal((n, d)))


def reachable_from(nbrs, seed_vertex):
    seen = {int(seed_vertex)}
    stack = [int(seed_vertex)]
    while stack:
        v = stack.pop()
        for u in nbrs[v]:
            if u >= 0 and int(u) not in seen:
                seen.add(int(u))
                stack.append(int(u))
    return seen


def test_centroid_seed_matches_numpy():
    v = vecs(50)
    c = v.mean(axis=0)
    assert centroid_seed(v) == int(np.argmax(v @ c))


def test_ensure_connectivity_repairs_disconnected():
    v = vecs(10)
    # two components: 0-4 ring, 5-9 ring
    nbrs = np.full((10, 2), -1, np.int32)
    for i in range(5):
        nbrs[i, 0] = (i + 1) % 5
        nbrs[5 + i, 0] = 5 + (i + 1) % 5
    out = ensure_connectivity(nbrs, 0, v)
    assert reachable_from(out, 0) == set(range(10))


def test_ensure_connectivity_noop_when_connected():
    nbrs = np.array([[1], [2], [0]], np.int32)
    v = vecs(3)
    out = ensure_connectivity(nbrs, 0, v)
    np.testing.assert_array_equal(out, nbrs)


@st.composite
def padded_graphs(draw):
    """``(nbrs, seed_vertex, vecs)``: -1-padded adjacency over 1-4 vertex
    groups with no edges between groups; a group may be a directed ring
    (strongly connected) plus random edges, so the graph is sometimes
    connected from the seed and sometimes not."""
    n = draw(st.integers(1, 30))
    width = draw(st.integers(1, 5))
    group = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    ring = draw(st.booleans())
    nbrs = np.full((n, width), -1, np.int32)
    for g in np.unique(group):
        members = np.flatnonzero(group == g)
        for pos, v in enumerate(members):
            row = [int(members[(pos + 1) % len(members)])] if ring else []
            row += draw(st.lists(st.sampled_from(members.tolist()), max_size=width - len(row)))
            nbrs[v, : len(row)] = row
    seed_vertex = draw(st.integers(0, n - 1))
    vecs = normalize(np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((n, 4)))
    return nbrs, seed_vertex, vecs


@settings(max_examples=300, deadline=None)
@given(padded_graphs())
def test_ensure_connectivity_properties(graph):
    """Component ⑤ on any padded adjacency: every vertex is reachable from
    the seed, every row keeps its edges as a prefix, and a graph already
    connected from the seed comes back unchanged."""
    nbrs, seed_vertex, v = graph
    out = ensure_connectivity(nbrs.copy(), seed_vertex, v)
    assert reachable_from(out, seed_vertex) == set(range(len(nbrs)))
    for row, new in zip(nbrs, out):
        kept = row[row >= 0]
        np.testing.assert_array_equal(new[: len(kept)], kept)
    if reachable_from(nbrs, seed_vertex) == set(range(len(nbrs))):
        np.testing.assert_array_equal(out, nbrs)


def test_ensure_connectivity_bridge_is_nearest_visited():
    v = vecs(6)
    nbrs = np.full((6, 1), -1, np.int32)
    nbrs[0, 0] = 1
    nbrs[1, 0] = 0
    out = ensure_connectivity(nbrs, 0, v)
    assert reachable_from(out, 0) == set(range(6))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_build_graph_variants(spark, variant):
    v = vecs(150)
    g = build_graph(spark, v, gamma=8, eps=2, variant=variant, seed=0)
    assert isinstance(g, GraphIndex)
    assert g.n == 150
    assert 0 <= g.seed_vertex < 150
    assert g.build_seconds > 0
    assert g.meta["variant"] == variant
    if VARIANTS[variant]["connect"]:
        assert reachable_from(g.nbrs, g.seed_vertex) == set(range(150))


def test_build_graph_invalid_variant(spark):
    with pytest.raises(ValueError):
        build_graph(spark, vecs(20), variant="btree")


def test_graph_index_properties(spark):
    v = vecs(100)
    g = build_graph(spark, v, gamma=6, eps=1, seed=0)
    assert g.n_edges == (g.nbrs >= 0).sum()
    assert g.nbytes() == g.nbrs.nbytes


def test_build_deterministic(spark):
    v = vecs(120)
    a = build_graph(spark, v, gamma=6, eps=2, seed=1)
    b = build_graph(spark, v, gamma=6, eps=2, seed=1)
    np.testing.assert_array_equal(a.nbrs, b.nbrs)
    assert a.seed_vertex == b.seed_vertex


def test_mrng_variant_sparser_than_kgraph(spark):
    v = vecs(200)
    ours = build_graph(spark, v, gamma=10, eps=2, variant="ours", seed=0)
    kg = build_graph(spark, v, gamma=10, eps=2, variant="kgraph", seed=0)
    assert ours.n_edges < kg.n_edges


def assert_valid_graph(g, n, variant):
    assert g.n == n and 0 <= g.seed_vertex < n
    assert g.nbrs.min(initial=-1) >= -1 and g.nbrs.max(initial=-1) < n
    assert not np.any(g.nbrs == np.arange(n)[:, None])  # no self-loops
    if VARIANTS[variant]["connect"]:
        assert reachable_from(g.nbrs, g.seed_vertex) == set(range(n))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("n", (1, 2, 24, 25))
def test_build_graph_degenerate_sizes(spark, n, variant):
    """n in {1, 2, gamma, gamma + 1}: empty and single-candidate selections."""
    g = build_graph(spark, vecs(n, seed=n), gamma=24, eps=2, variant=variant, seed=0)
    assert_valid_graph(g, n, variant)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_build_graph_duplicate_rows(spark, variant):
    v = vecs(40, seed=4)
    v[[11, 23]] = v[5]  # three identical rows
    g = build_graph(spark, v, gamma=8, eps=2, variant=variant, seed=0)
    assert_valid_graph(g, 40, variant)


def assert_matches_reference(nbrs, seed_vertex, v):
    want = reference_connectivity(nbrs.copy(), seed_vertex, v)
    got = ensure_connectivity(nbrs.copy(), seed_vertex, v)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(padded_graphs(), st.booleans())
def test_ensure_connectivity_matches_reference(graph, isolate_seed):
    """The frontier BFS over the padded array writes the same repair
    edges, in the same slots and at the same width, as the list-of-lists
    BFS in ``tests/reference_graphs.py``, on graphs that are connected or
    not, from n = 1, with all ``-1`` rows and with an isolated seed."""
    nbrs, seed_vertex, v = graph
    if isolate_seed:
        nbrs[seed_vertex] = -1
    assert_matches_reference(nbrs, seed_vertex, v)


@pytest.mark.parametrize("case", ["n=1", "all -1", "isolated seed", "two rings"])
def test_ensure_connectivity_matches_reference_cases(case):
    n = {"n=1": 1, "all -1": 7, "isolated seed": 6, "two rings": 10}[case]
    nbrs = np.full((n, 2), -1, np.int32)
    if case == "isolated seed":
        nbrs[1:, 0] = np.r_[np.arange(2, n), 1]
    if case == "two rings":
        nbrs[:5, 0] = np.roll(np.arange(5), -1)
        nbrs[5:, 0] = np.roll(np.arange(5, 10), -1)
    assert_matches_reference(nbrs, 0, vecs(n, seed=n))


@pytest.mark.parametrize("config", ["interactive-m2", "bulk-m3"])
def test_ensure_connectivity_matches_reference_on_benchmark_builds(spark, monkeypatch, config):
    """The ``ours`` build of each benchmark configuration (n = 2000,
    gamma 24, eps 3): ⑤ gets the selected adjacency, and the reference
    repairs it to the same array."""
    import repro.ann.graphs as graphs

    calls = []

    def recording(nbrs, seed_vertex, v):
        calls.append((nbrs.copy(), seed_vertex, v))
        return ensure_connectivity(nbrs, seed_vertex, v)

    monkeypatch.setattr(graphs, "ensure_connectivity", recording)
    ds, w = {
        "interactive-m2": (imagetext(2000, ("resnet50", "lstm"), nq=1, seed=1), (0.8, 0.75)),
        "bulk-m3": (mscoco_lite(("resnet50", "gru", "resnet50"), n=2000, nq=1, seed=1),
                    (0.5, 0.3, 0.2)),
    }[config]
    build_fused_index(spark, ds.obj_mats, w, gamma=24, eps=3, seed=1)
    assert len(calls) == 1
    assert_matches_reference(*calls[0])
