"""Tests for vector weight learning (repro.core.weights)."""
import numpy as np
import pytest

from repro.ann.bruteforce import topk_numpy
from repro.ann.distance import joint_ip_matrix, normalize
from repro.core import weights as weights_mod
from repro.core.weights import learn_weights
from repro.datasets import celeba_lite, mitstates_lite


def toy_problem(n=80, nq=30, seed=0, noise0=1.5, noise1=0.05):
    """Modality 1 is informative (low noise), modality 0 is nearly junk:
    the learned weights must favor modality 1."""
    g = np.random.default_rng(seed)
    base = normalize(g.standard_normal((n, 8)))
    obj0 = normalize(base + noise0 * g.standard_normal((n, 8)).astype(np.float32))
    obj1 = normalize(base + noise1 * g.standard_normal((n, 8)).astype(np.float32))
    pos = g.integers(0, n, nq)
    qry0 = normalize(obj0[pos] + noise0 * g.standard_normal((nq, 8)).astype(np.float32))
    qry1 = normalize(obj1[pos] + noise1 * g.standard_normal((nq, 8)).astype(np.float32))
    return [qry0, qry1], [obj0, obj1], pos


def reference_epoch(qry, obj, pos, w0, k):
    """Closed-form first epoch (temperature 1): mine the exact top-k
    under ``w0``, append the positive where it is missing, then the
    softmax-contrastive loss and gradient."""
    m = len(obj)
    nq = qry[0].shape[0]
    ips = [qry[i] @ obj[i].T for i in range(m)]
    joint = sum(w0[i] * ips[i] for i in range(m))
    grads = np.zeros(m)
    loss = 0.0
    for j in range(nq):
        top = np.argsort(-joint[j], kind="stable")[:k].tolist()
        if pos[j] not in top:
            top.append(int(pos[j]))
        top = np.array(top)
        z = joint[j][top]
        p = np.exp(z - z.max())
        p /= p.sum()
        y = (top == pos[j]).astype(float)
        loss += -np.log(p[y == 1][0])
        for i in range(m):
            grads[i] += np.sum((p - y) * ips[i][j][top])
    return loss / nq, grads / nq


def spy_steps(monkeypatch) -> list[tuple]:
    """The arguments of every ``contrastive_step`` call ``learn_weights`` makes."""
    calls = []
    real = weights_mod.contrastive_step

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weights_mod, "contrastive_step", spy)
    return calls


def test_gradient_matches_numpy_reference(spark):
    """One epoch's gradient == the closed-form numpy softmax-contrastive
    gradient on the same mined candidates."""
    qry, obj, pos = toy_problem()
    w0 = np.array([0.5, 0.5])
    res = learn_weights(
        spark, qry, obj, pos, epochs=1, lr=1.0, n_neg=5, temperature=1.0,
        init=w0, restrict_to_true_set=False,
    )
    loss, grads = reference_epoch(qry, obj, pos, w0, 6)
    assert res.history[0]["loss"] == pytest.approx(loss, rel=1e-4)
    np.testing.assert_allclose(res.weights, np.clip(w0 - grads, 1e-4, None), rtol=1e-4)


def test_learned_weights_favor_informative_modality(spark):
    qry, obj, pos = toy_problem()
    res = learn_weights(
        spark, qry, obj, pos, epochs=15, restrict_to_true_set=False, seed=0
    )
    assert res.weights[1] > res.weights[0]


def test_loss_decreases(spark):
    qry, obj, pos = toy_problem()
    res = learn_weights(
        spark, qry, obj, pos, epochs=12, restrict_to_true_set=False, seed=0
    )
    first = np.mean([h["loss"] for h in res.history[:3]])
    last = np.mean([h["loss"] for h in res.history[-3:]])
    assert last < first


def test_hard_negatives_converge_no_worse_than_random(spark):
    """Paper Fig. 9: hard negative mining converges faster/lower."""
    qry, obj, pos = toy_problem()
    hard = learn_weights(
        spark, qry, obj, pos, epochs=10, hard_negatives=True,
        restrict_to_true_set=False, seed=0,
    )
    rand = learn_weights(
        spark, qry, obj, pos, epochs=10, hard_negatives=False,
        restrict_to_true_set=False, seed=0,
    )
    assert hard.history[-1]["loss"] <= rand.history[-1]["loss"] + 0.05


def test_history_records_every_epoch(spark):
    qry, obj, pos = toy_problem(nq=10)
    res = learn_weights(spark, qry, obj, pos, epochs=4, seed=0)
    assert len(res.history) == 4
    assert {"epoch", "loss", "recall1", "weights"} <= set(res.history[0])
    assert res.final_loss == res.history[-1]["loss"]


def test_weights_stay_positive(spark):
    qry, obj, pos = toy_problem()
    res = learn_weights(spark, qry, obj, pos, epochs=10, lr=5.0, seed=0)
    assert np.all(res.weights >= 1e-4)


def test_restrict_to_true_set_mines_within_T(spark):
    """With restriction the mined space is only the unique positives."""
    qry, obj, pos = toy_problem(n=200, nq=15)
    res = learn_weights(spark, qry, obj, pos, epochs=3, seed=0)
    assert len(res.history) == 3  # smoke: runs with remapped ids


def test_init_weights_respected(spark):
    qry, obj, pos = toy_problem(nq=8)
    res = learn_weights(
        spark, qry, obj, pos, epochs=1, lr=0.0, init=[0.9, 0.1], seed=0
    )
    np.testing.assert_allclose(res.weights, [0.9, 0.1])


def test_learned_weights_near_grid_optimum_on_celeba(spark):
    """The learned weights should reach eval recall close to the best
    weight found by a brute grid sweep (the paper's point: learning
    replaces manual weight picking, Appendix E)."""
    from repro.eval.metrics import recall_at_k

    ds = celeba_lite(("resnet50", "encoding"), n=600, nq=160)
    tr, ev = np.arange(80), np.arange(80, 160)
    res = learn_weights(
        spark, [m[tr] for m in ds.qry_mats], ds.obj_mats, ds.gt[tr],
        epochs=12, seed=0,
    )
    eval_q = [m[ev] for m in ds.qry_mats]
    learned_ids, _ = topk_numpy(eval_q, ds.obj_mats, res.weights, 5)
    learned = recall_at_k(learned_ids, ds.gt[ev], 5)
    best_grid = max(
        recall_at_k(topk_numpy(eval_q, ds.obj_mats, [1 - w1, w1], 5)[0], ds.gt[ev], 5)
        for w1 in (0.1, 0.3, 0.5, 0.7, 0.9)
    )
    assert learned >= best_grid - 0.1


def test_training_recall_improves_on_mitstates(spark):
    ds = mitstates_lite(("resnet50", "lstm"), n=600, nq=80)
    res = learn_weights(spark, ds.qry_mats, ds.obj_mats, ds.gt, epochs=12, seed=0)
    assert res.history[-1]["recall1"] >= res.history[0]["recall1"]


def test_candidates_hold_the_positive_once_with_their_ips(spark, monkeypatch):
    """Every anchor's candidates hold its positive exactly once, each
    candidate's per-modality IPs are its exact IPs, and a scan that finds
    fewer than ``n_neg + 1`` objects in ``T`` pads with ``-1``."""
    qry, obj, pos = toy_problem(n=200, nq=15)
    calls = spy_steps(monkeypatch)
    learn_weights(spark, qry, obj, pos, epochs=2, n_neg=20, seed=0)
    t_ids = np.unique(pos)
    assert len(calls) == 2
    for ips, _, cand, mine_pos, _ in calls:
        np.testing.assert_array_equal(t_ids[mine_pos], pos)
        assert ((cand == mine_pos[:, None]).sum(axis=1) == 1).all()
        assert (cand == -1).any()
        q, c = np.nonzero(cand >= 0)
        for i in range(2):
            want = np.sum(qry[i][q] * obj[i][t_ids[cand[q, c]]], axis=1)
            np.testing.assert_allclose(ips[i][q, c], want, rtol=1e-5, atol=1e-6)


def test_positive_outside_the_top_k_is_appended(spark, monkeypatch):
    """The positive is the worst object: the candidates are the exact
    top ``n_neg + 1`` plus the positive, and the first epoch's loss is the
    closed form's."""
    qry, obj, _ = toy_problem()
    w0 = np.array([0.5, 0.5])
    pos = np.argmin(joint_ip_matrix(qry, obj, w0), axis=1)
    calls = spy_steps(monkeypatch)
    res = learn_weights(
        spark, qry, obj, pos, epochs=1, n_neg=5, temperature=1.0,
        init=w0, restrict_to_true_set=False,
    )
    cand = calls[0][2]
    np.testing.assert_array_equal(cand[:, :6], topk_numpy(qry, obj, w0, 6)[0])
    np.testing.assert_array_equal(cand[:, 6], pos)
    loss, _ = reference_epoch(qry, obj, pos, w0, 6)
    assert res.history[0]["loss"] == pytest.approx(loss, rel=1e-6)


@pytest.mark.parametrize("bad", [
    lambda pos, n: np.where(np.arange(len(pos)) == 0, -1, pos),
    lambda pos, n: np.where(np.arange(len(pos)) == 0, n, pos),
    lambda pos, n: pos.astype(np.float64),
    lambda pos, n: pos[:-1],
    lambda pos, n: pos[:, None],
], ids=["minus_one", "n", "float", "one_short", "column"])
def test_positives_must_be_one_object_id_per_anchor(bad):
    qry, obj, pos = toy_problem()
    with pytest.raises(ValueError, match="positives"):
        learn_weights(None, qry, obj, bad(pos, obj[0].shape[0]), epochs=1)


def test_query_and_object_modality_counts_must_match():
    qry, obj, pos = toy_problem()
    with pytest.raises(ValueError, match="modalities"):
        learn_weights(None, qry[:1], obj, pos, epochs=1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_anchors_must_be_finite(value):
    qry, obj, pos = toy_problem()
    qry[1] = qry[1].copy()
    qry[1][3, 2] = value
    with pytest.raises(ValueError, match="finite"):
        learn_weights(None, qry, obj, pos, epochs=1)


@pytest.mark.parametrize("kwargs,match", [
    ({"init": [np.nan, 1.0]}, "finite and >= 0"),
    ({"init": [-1.0, 1.0]}, "finite and >= 0"),
    ({"init": [0.5]}, "expected 2 modality weights"),
    ({"temperature": 0.0}, "temperature"),
    ({"temperature": np.nan}, "temperature"),
    ({"lr": np.inf}, "lr"),
    ({"lr": -0.5}, "lr"),
], ids=["init_nan", "init_negative", "init_short", "temperature_zero", "temperature_nan",
        "lr_inf", "lr_negative"])
def test_step_settings_are_checked(kwargs, match):
    """Each of these returned NaN or negative-start weights without an
    error; random negatives need no Spark job to get that far."""
    qry, obj, pos = toy_problem()
    with pytest.raises(ValueError, match=match):
        learn_weights(None, qry, obj, pos, epochs=2, hard_negatives=False, **kwargs)
