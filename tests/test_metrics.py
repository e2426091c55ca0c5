"""Unit tests for the evaluation metrics (repro.eval.metrics)."""
import numpy as np
import pytest

from repro.core.joint_search import SearchOutput
from repro.eval.metrics import recall_at_k, sme


def test_recall_perfect():
    res = np.array([[0, 1], [2, 3]])
    gt = np.array([0, 2])
    assert recall_at_k(res, gt, 1) == 1.0


def test_recall_zero():
    res = np.array([[5, 6], [7, 8]])
    gt = np.array([0, 1])
    assert recall_at_k(res, gt, 2) == 0.0


def test_recall_partial():
    res = np.array([[5, 0], [7, 8]])
    gt = np.array([0, 1])
    assert recall_at_k(res, gt, 1) == 0.0
    assert recall_at_k(res, gt, 2) == 0.5


def test_recall_kprime_exact_neighbors():
    """Recall@k(k') with 2-D ground truth (Tab. VII style)."""
    res = np.array([[1, 2, 3]])
    gt = np.array([[2, 3, 9]])
    assert recall_at_k(res, gt, 3) == pytest.approx(2 / 3)


def test_recall_ignores_padding():
    res = np.array([[0, -1, -1]])
    gt = np.array([0])
    assert recall_at_k(res, gt, 3) == 1.0


def test_recall_only_counts_topk_prefix():
    res = np.array([[9, 9, 0]])
    gt = np.array([0])
    assert recall_at_k(res, gt, 2) == 0.0
    assert recall_at_k(res, gt, 3) == 1.0


def test_sme_zero_when_exact_hit():
    mat = np.eye(4, dtype=np.float32)
    res = np.array([[2]])
    gt = np.array([2])
    assert sme(res, gt, mat) == pytest.approx(0.0)


def test_sme_orthogonal_result_is_one():
    mat = np.eye(4, dtype=np.float32)
    res = np.array([[1]])
    gt = np.array([0])
    assert sme(res, gt, mat) == pytest.approx(1.0)


def test_sme_missing_result_counts_full_error():
    mat = np.eye(4, dtype=np.float32)
    res = np.array([[-1]])
    gt = np.array([0])
    assert sme(res, gt, mat) == pytest.approx(1.0)


def test_sme_mean_over_queries():
    mat = np.eye(4, dtype=np.float32)
    res = np.array([[0], [1]])
    gt = np.array([0, 0])
    assert sme(res, gt, mat) == pytest.approx(0.5)


def test_qps():
    def qps(nq, elapsed_s):
        return SearchOutput(np.zeros((nq, 1)), np.zeros((nq, 1)), elapsed_s, {}).qps

    assert qps(100, 2.0) == pytest.approx(50.0)
    assert qps(1, 0.0) > 0  # guards divide-by-zero
