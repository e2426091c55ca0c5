"""Unit tests for the similarity kernels (repro.ann.distance)."""
import numpy as np
import pytest

from repro.ann.distance import (
    concat_weighted,
    joint_ip_matrix,
    normalize,
    topk_from_scores,
)
from tests.reference_sql import array_ip_col, joint_ip_col


@pytest.mark.parametrize("d", [1, 3, 16, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normalize_unit_rows(d, seed):
    g = np.random.default_rng(seed)
    m = normalize(g.standard_normal((10, d)))
    np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0, rtol=1e-5)


def test_normalize_zero_row_stays_zero():
    m = np.zeros((2, 4))
    m[1] = [1, 0, 0, 0]
    out = normalize(m)
    assert np.all(out[0] == 0)
    np.testing.assert_allclose(out[1], [1, 0, 0, 0])


def test_normalize_preserves_direction():
    v = np.array([[3.0, 4.0]])
    np.testing.assert_allclose(normalize(v), [[0.6, 0.8]], rtol=1e-6)


@pytest.mark.parametrize("seed", [0, 7])
def test_ip_matrix_matches_manual(seed):
    g = np.random.default_rng(seed)
    q, o = g.standard_normal((4, 6)), g.standard_normal((9, 6))
    expected = np.array([[qi @ oj for oj in o] for qi in q])
    np.testing.assert_allclose(joint_ip_matrix([q], [o], [1.0]), expected, rtol=1e-6)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_joint_ip_matrix_is_weighted_sum(m):
    g = np.random.default_rng(m)
    qs = [normalize(g.standard_normal((5, 8))) for _ in range(m)]
    os_ = [normalize(g.standard_normal((7, 8))) for _ in range(m)]
    w = g.random(m)
    got = joint_ip_matrix(qs, os_, w)
    expected = sum(w[i] * (qs[i] @ os_[i].T) for i in range(m))
    np.testing.assert_allclose(got, expected, rtol=1e-5)


def test_joint_ip_matrix_none_modality_contributes_zero():
    g = np.random.default_rng(0)
    q0, o0 = g.standard_normal((3, 4)), g.standard_normal((5, 4))
    o1 = g.standard_normal((5, 4))
    got = joint_ip_matrix([q0, None], [o0, o1], [0.4, 0.6])
    np.testing.assert_allclose(got, 0.4 * (q0 @ o0.T), rtol=1e-6)


def test_joint_ip_matrix_all_absent_raises():
    with pytest.raises(ValueError):
        joint_ip_matrix([None], [np.zeros((2, 2))], [1.0])


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_concat_weighted_dot_equals_joint_ip_lemma1(m, seed):
    """Lemma 1: IP of concatenated vectors == weighted sum of per-modality IPs."""
    g = np.random.default_rng(seed)
    a = [normalize(g.standard_normal((6, 5))) for _ in range(m)]
    b = [normalize(g.standard_normal((6, 5))) for _ in range(m)]
    w = g.random(m) + 0.1
    ca, cb = concat_weighted(a, w), concat_weighted(b, w)
    got = np.einsum("ij,ij->i", ca, cb)
    expected = sum(w[i] * np.einsum("ij,ij->i", a[i], b[i]) for i in range(m))
    np.testing.assert_allclose(got, expected, rtol=1e-4)


def test_concat_weighted_shape_and_dtype():
    mats = [np.ones((4, 3), np.float32), np.ones((4, 2), np.float32)]
    out = concat_weighted(mats, [1.0, 4.0])
    assert out.shape == (4, 5)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out[0], [1, 1, 1, 2, 2], rtol=1e-6)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_topk_from_scores_matches_argsort(k):
    g = np.random.default_rng(k)
    s = g.random((6, 20))
    idx, vals = topk_from_scores(s, k)
    for j in range(6):
        expected = np.argsort(-s[j], kind="stable")[:k]
        np.testing.assert_array_equal(idx[j], expected)
        np.testing.assert_allclose(vals[j], s[j][expected], rtol=1e-6)


def test_topk_from_scores_k_larger_than_n():
    s = np.array([[0.1, 0.9, 0.5]])
    idx, vals = topk_from_scores(s, 10)
    np.testing.assert_array_equal(idx[0], [1, 2, 0])


def test_topk_from_scores_ties_broken_by_index():
    s = np.array([[0.5, 0.5, 0.5, 0.9]])
    idx, _ = topk_from_scores(s, 3)
    np.testing.assert_array_equal(idx[0], [3, 0, 1])


def test_topk_from_scores_1d_and_2d_agree():
    g = np.random.default_rng(3)
    s = g.random(15)
    i1, v1 = topk_from_scores(s, 4)
    i2, v2 = topk_from_scores(s[None, :], 4)
    np.testing.assert_array_equal(i1, i2[0])


def test_array_ip_col_matches_numpy(spark):
    import pandas as pd

    g = np.random.default_rng(0)
    a = g.standard_normal((8, 5))
    b = g.standard_normal((8, 5))
    df = spark.createDataFrame(
        pd.DataFrame({"a": list(a), "b": list(b)})
    ).select(array_ip_col("a", "b").alias("ip"))
    got = np.array([r["ip"] for r in df.collect()])
    np.testing.assert_allclose(sorted(got), sorted(np.einsum("ij,ij->i", a, b)), rtol=1e-6)


def test_joint_ip_col_matches_joint_ip_matrix(spark):
    import pandas as pd

    g = np.random.default_rng(1)
    q = [normalize(g.standard_normal((6, 3))) for _ in range(2)]
    o = [normalize(g.standard_normal((6, 3))) for _ in range(2)]
    w = [0.3, 0.7]
    pdf = pd.DataFrame(
        {"i": range(6), "q0": list(q[0].astype(float)), "q1": list(q[1].astype(float)),
         "v0": list(o[0].astype(float)), "v1": list(o[1].astype(float))}
    )
    df = spark.createDataFrame(pdf).select(
        "i", joint_ip_col(["q0", "q1"], ["v0", "v1"], w).alias("ip")
    )
    got = {r["i"]: r["ip"] for r in df.collect()}
    expected = np.diag(joint_ip_matrix(q, o, w))
    for i in range(6):
        assert abs(got[i] - expected[i]) < 1e-5


def test_joint_ip_col_none_query_modality(spark):
    import pandas as pd

    g = np.random.default_rng(2)
    q0 = g.standard_normal((4, 3))
    v0 = g.standard_normal((4, 3))
    pdf = pd.DataFrame({"q0": list(q0), "v0": list(v0), "v1": list(v0)})
    df = spark.createDataFrame(pdf).select(
        joint_ip_col(["q0", None], ["v0", "v1"], [0.5, 0.5]).alias("ip")
    )
    got = sorted(r["ip"] for r in df.collect())
    np.testing.assert_allclose(got, sorted(0.5 * np.einsum("ij,ij->i", q0, v0)), rtol=1e-6)
