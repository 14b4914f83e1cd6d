"""Classifier zoo: each member learns its natural problem, deterministically."""

import numpy as np
import pytest

from benchdata import make_adult
from oracles import lbfgs_lr_optimum, resorting_tree, stacked_lr_fit, two_branch_sigmoid
from ffpdg import models
from ffpdg.errors import DataError
from ffpdg.metrics import auc_roc


def blobs(n_per, d, gap, seed):
    r = np.random.default_rng(seed)
    X = np.vstack([r.normal(-gap, 1.0, (n_per, d)), r.normal(gap, 1.0, (n_per, d))])
    y = np.concatenate([np.zeros(n_per), np.ones(n_per)])
    perm = r.permutation(len(y))
    return X[perm], y[perm]


def test_logistic_regression_separates_blobs():
    X, y = blobs(300, 2, gap=2.0, seed=0)
    Xt, yt = blobs(300, 2, gap=2.0, seed=1)
    clf = models.fit(models.LOGISTIC_REGRESSION, X, y)
    assert auc_roc(models.predict_proba(clf, Xt), yt) > 0.99


def test_logistic_regression_invariant_to_feature_scale():
    X, y = blobs(200, 2, gap=2.0, seed=2)
    scaled = X * np.array([1.0, 1e4])
    a = models.predict_proba(models.fit(models.LOGISTIC_REGRESSION, X, y), X)
    b = models.predict_proba(models.fit(models.LOGISTIC_REGRESSION, scaled, y), scaled)
    assert np.allclose(a, b, atol=1e-8)  # standardization is internal


def test_lr_loss_gradient_matches_finite_differences():
    r = np.random.default_rng(5)
    X = r.normal(size=(40, 3))
    y = (r.random(40) < 0.5).astype(float)
    w = r.normal(size=3)
    b = float(r.normal())
    l2 = 1e-3
    # analytic gradient of the training objective
    p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
    grad_w = X.T @ (p - y) / len(y) + l2 * w
    grad_b = float((p - y).mean())
    h = 1e-5
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        num = (models.lr_loss(w + e, b, X, y, l2) - models.lr_loss(w - e, b, X, y, l2)) / (2 * h)
        assert num == pytest.approx(grad_w[j], abs=1e-6)
    num_b = (models.lr_loss(w, b + h, X, y, l2) - models.lr_loss(w, b - h, X, y, l2)) / (2 * h)
    assert num_b == pytest.approx(grad_b, abs=1e-6)


def test_lr_loss_trace_is_nonincreasing():
    X, y = blobs(200, 3, gap=1.0, seed=3)
    clf = models.fit(models.LOGISTIC_REGRESSION, X, y)
    trace = np.asarray(clf.params["loss_trace"])
    assert len(trace) <= models.LR_MAX_ITER + 1
    assert np.all(np.diff(trace) <= 1e-12)
    assert trace[-1] < trace[0]


def test_logistic_regression_reaches_the_optimum():
    data = make_adult(10000, 3)
    schema = data.schema
    keep = [j for j in range(schema.d) if j not in (schema.label_index, schema.protected_index)]
    X, y = data.values[:, keep], data.values[:, schema.label_index]
    clf = models.fit(models.LOGISTIC_REGRESSION, X, y)
    p, l2 = clf.params, models.LR_L2
    Xs = (X - p["mean"]) / p["std"]
    fitted = models.lr_loss(p["w"], p["b"], Xs, y, l2)
    assert abs(fitted - lbfgs_lr_optimum(models.lr_loss, Xs, y, l2)) <= 1e-9


def test_logistic_regression_reaches_the_optimum_on_a_discriminator_fold():
    # lrd's shape: two pooled draws of all five columns, real = 1, synthetic = 0
    real, synthetic = make_adult(8000, 21), make_adult(8000, 22)
    X = np.vstack([real.values, synthetic.values])
    y = np.concatenate([np.ones(8000), np.zeros(8000)])
    clf = models.fit(models.LOGISTIC_REGRESSION, X, y)
    p, l2 = clf.params, models.LR_L2
    Xs = (X - p["mean"]) / p["std"]
    fitted = models.lr_loss(p["w"], p["b"], Xs, y, l2)
    assert abs(fitted - lbfgs_lr_optimum(models.lr_loss, Xs, y, l2)) <= 1e-9


def test_lr_loss_matches_the_logaddexp_form():
    z = np.array([0.0, 1e-310, -1e-310, 36.7, -36.7, 709.8, -709.8, 745.0, -745.0, 800.0, -800.0])
    z = np.concatenate([z, np.random.default_rng(13).normal(scale=20.0, size=1000)])
    for label in (0.0, 1.0):
        y = np.full(len(z), label)
        old = np.logaddexp(0.0, z) - y * z
        new = np.array([models.lr_loss(np.ones(1), 0.0, np.array([[v]]), y[:1], 0.0) for v in z])
        assert np.all(np.isfinite(new[np.isfinite(old)]))
        # a few ulp of the larger of the two terms, which cancel for y = 1
        scale = np.maximum(np.logaddexp(0.0, z), np.abs(y * z))
        assert np.all(np.abs(new - old) <= 4 * np.spacing(scale))


def test_gaussian_nb_approaches_bayes_on_its_own_model():
    r = np.random.default_rng(4)
    n = 2000
    y = (r.random(n) < 0.5).astype(float)
    means = np.where(y[:, None] == 1, [1.0, -0.5, 0.0], [-1.0, 0.5, 0.0])
    X = r.normal(means, 1.0)
    clf = models.fit(models.GAUSSIAN_NB, X[:1000], y[:1000])
    pred = (models.predict_proba(clf, X[1000:]) >= 0.5).astype(float)
    accuracy = (pred == y[1000:]).mean()
    assert accuracy > 0.80  # bayes rate here is ~0.84


def test_bernoulli_nb_on_bit_patterns():
    r = np.random.default_rng(6)
    n = 2000
    y = (r.random(n) < 0.5).astype(float)
    rates = np.where(y[:, None] == 1, [0.8, 0.7, 0.2], [0.2, 0.3, 0.8])
    X = (r.random((n, 3)) < rates).astype(float)
    clf = models.fit(models.BERNOULLI_NB, X[:1000], y[:1000])
    scores = models.predict_proba(clf, X[1000:])
    assert auc_roc(scores, y[1000:]) > 0.9


def test_bernoulli_nb_binarizes_at_the_column_mean():
    X = np.array([[0.0], [1.0], [2.0], [9.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    clf = models.fit(models.BERNOULLI_NB, X, y)
    assert clf.params["cut"][0] == pytest.approx(3.0)
    # 2.5 and 2.9 fall on the same side of the cut, so same probability
    probs = models.predict_proba(clf, np.array([[2.5], [2.9], [3.5]]))
    assert probs[0] == probs[1] != probs[2]


def tree_depth(node):
    if node[0] == "leaf":
        return 0
    return 1 + max(tree_depth(node[3]), tree_depth(node[4]))


def leaf_sizes(node, X, y):
    if node[0] == "leaf":
        return [len(y)]
    _, j, t, left, right = node
    mask = X[:, j] < t
    return leaf_sizes(left, X[mask], y[mask]) + leaf_sizes(right, X[~mask], y[~mask])


def test_decision_tree_splits_axis_aligned_data():
    r = np.random.default_rng(7)
    X = r.normal(size=(600, 3))
    y = (X[:, 1] > 0.3).astype(float)
    clf = models.fit(models.DECISION_TREE, X[:400], y[:400])
    pred = (models.predict_proba(clf, X[400:]) >= 0.5).astype(float)
    assert (pred == y[400:]).mean() > 0.97
    tree = clf.params["tree"]
    assert tree[0] == "node" and tree[1] == 1  # split on the informative axis


def test_decision_tree_respects_depth_and_leaf_bounds():
    r = np.random.default_rng(8)
    X = r.normal(size=(500, 4))
    y = (r.random(500) < 0.5).astype(float)  # pure noise forces deep search
    clf = models.fit(models.DECISION_TREE, X, y)
    tree = clf.params["tree"]
    assert tree_depth(tree) <= models.TREE_MAX_DEPTH
    assert min(leaf_sizes(tree, X, y)) >= models.TREE_MIN_LEAF


def test_all_models_deterministic_and_probabilities_in_range():
    X, y = blobs(150, 3, gap=0.8, seed=9)
    Xt, _ = blobs(100, 3, gap=0.8, seed=10)
    for kind in models.ZOO:
        a = models.predict_proba(models.fit(kind, X, y), Xt)
        b = models.predict_proba(models.fit(kind, X, y), Xt)
        assert np.array_equal(a, b), kind
        assert np.all((a >= 0.0) & (a <= 1.0)), kind


def test_fit_validation_errors():
    X = np.zeros((10, 2))
    with pytest.raises(DataError, match="unknown classifier"):
        models.fit("svm", X, np.zeros(10))
    with pytest.raises(DataError, match="single class"):
        models.fit(models.GAUSSIAN_NB, X, np.ones(10))
    with pytest.raises(DataError, match="0/1"):
        models.fit(models.GAUSSIAN_NB, X, np.full(10, 0.5))
    clf = models.fit(models.GAUSSIAN_NB, np.random.default_rng(0).normal(size=(10, 2)),
                     np.array([0, 1] * 5, dtype=float))
    with pytest.raises(DataError, match="width"):
        models.predict_proba(clf, np.zeros((5, 3)))


def test_fitted_parameters_are_immutable():
    X, y = blobs(50, 2, gap=1.0, seed=11)
    clf = models.fit(models.LOGISTIC_REGRESSION, X, y)
    with pytest.raises(TypeError):
        clf.params["w"] = np.zeros(2)
    with pytest.raises(ValueError):
        clf.params["w"][0] = 1.0


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def same_tree(a, b):
    """Equal tuples, every float compared by its bytes."""
    if a[0] != b[0] or len(a) != len(b):
        return False
    if a[0] == "leaf":
        return bits(a[1]) == bits(b[1])
    return (a[1] == b[1] and bits(a[2]) == bits(b[2])
            and same_tree(a[3], b[3]) and same_tree(a[4], b[4]))


def zoo_cases():
    """(name, X, y): seeded data with ties, constant features, small n
    around 2 * TREE_MIN_LEAF, trees that reach the depth cap, and the
    feature layouts the metrics pass (C order, Fortran order, strided)."""
    r = np.random.default_rng(12)
    cases = []
    for n in (2 * models.TREE_MIN_LEAF - 1, 2 * models.TREE_MIN_LEAF,
              2 * models.TREE_MIN_LEAF + 1, 2 * models.TREE_MIN_LEAF + 2, 37, 400):
        X = r.integers(0, 3, size=(n, 3)).astype(float)  # heavy ties
        y = (r.random(n) < 0.5).astype(float)
        y[:2] = (0.0, 1.0)
        cases.append((f"ties-n{n}", X, y))
    X = np.round(r.normal(size=(300, 4)), 1)
    X[:, 1] = 2.5  # constant feature
    X[:, 3] = X[:, 0]  # a duplicate feature: equal scores tie across features
    cases.append(("constant-and-duplicate", X, (X[:, 0] + r.normal(size=300) > 0).astype(float)))
    X = r.normal(size=(2000, 4))
    y = (r.random(2000) < 0.5).astype(float)  # noise: the tree grows to the depth cap
    cases.append(("depth-cap", X, y))
    cases.append(("fortran", np.asfortranarray(X), y))
    cases.append(("strided", np.repeat(X, 2, axis=1)[:, ::2], y))
    data = make_adult(3000, 4)
    cases.append(("adult-columns", data.values[:, [0, 1, 2]], data.values[:, data.schema.label_index]))
    return cases


@pytest.mark.parametrize("name, X, y", zoo_cases(), ids=[c[0] for c in zoo_cases()])
def test_presorted_tree_matches_the_per_node_argsort_tree_bit_for_bit(name, X, y):
    clf = models.fit(models.DECISION_TREE, X, y)
    reference = resorting_tree(X, y)
    assert same_tree(clf.params["tree"], reference)
    if name == "depth-cap":
        assert tree_depth(reference) == models.TREE_MAX_DEPTH


@pytest.mark.parametrize("name, X, y", zoo_cases(), ids=[c[0] for c in zoo_cases()])
def test_logistic_regression_matches_the_stacked_fit_bit_for_bit(name, X, y):
    clf = models.fit(models.LOGISTIC_REGRESSION, X, y)
    w, b, trace = stacked_lr_fit(X, y)
    assert bits(clf.params["w"]) == bits(w)
    assert bits(clf.params["b"]) == bits(b)
    assert bits(clf.params["loss_trace"]) == bits(trace)
    Xs = (X - clf.params["mean"]) / clf.params["std"]
    expected = two_branch_sigmoid(Xs @ clf.params["w"] + clf.params["b"])
    assert bits(models.predict_proba(clf, X)) == bits(expected)


def test_sigmoid_matches_the_two_branch_form_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    z = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan,
                  tiny, -tiny, 1e-310, -1e-310, 36.7, -36.7, 709.8, -709.8, 1.0, -1.0])
    z = np.concatenate([z, np.random.default_rng(13).normal(scale=20.0, size=1000)])
    assert bits(models._sigmoid(z)) == bits(two_branch_sigmoid(z))
