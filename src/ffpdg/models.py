"""Self-contained classifier zoo for the evaluation metrics.

Four binary classifiers implemented on numpy: L2-regularized logistic
regression (Newton/IRLS with step-halving), Gaussian and Bernoulli naive
Bayes, and a greedy Gini decision tree. The metrics train these on
synthetic data and score them on real data, so the zoo is deliberately
small, deterministic, and dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DataError

LOGISTIC_REGRESSION = "logistic_regression"
GAUSSIAN_NB = "gaussian_nb"
BERNOULLI_NB = "bernoulli_nb"
DECISION_TREE = "decision_tree"

ZOO = (LOGISTIC_REGRESSION, GAUSSIAN_NB, BERNOULLI_NB, DECISION_TREE)

LR_TOLERANCE = 1e-12  # on half the Newton decrement, about the loss left above the optimum
LR_MAX_ITER = 50
LR_MAX_HALVINGS = 30

DEFAULT_HYPER = {
    LOGISTIC_REGRESSION: {"l2": 1e-3},
    GAUSSIAN_NB: {"var_floor": 1e-9},
    BERNOULLI_NB: {"smoothing": 1.0},
    DECISION_TREE: {"max_depth": 5, "min_leaf": 5},
}


@dataclass(frozen=True)
class Classifier:
    kind: str
    d: int
    params: MappingProxyType
    hyper: MappingProxyType


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


def _check_xy(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise DataError("features must be n x d with one label per row")
    if X.shape[0] < 2:
        raise DataError("need at least two training rows")
    if not np.all((y == 0) | (y == 1)):
        raise DataError("labels must be 0/1")
    if y.min() == y.max():
        raise DataError("training labels contain a single class")
    return X, y


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lr_loss(w, b, X, y, l2):
    """Mean log loss plus (l2/2)||w||^2, bias unregularized."""
    z = X @ w + b
    # log(1 + e^z) - y z, computed stably
    loss = np.mean(np.logaddexp(0.0, z) - y * z)
    return loss + 0.5 * l2 * float(w @ w)


def _fit_lr(X, y, hyper):
    l2 = hyper["l2"]
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    n, d = X.shape
    Xa = np.hstack([(X - mean) / std, np.ones((n, 1))])  # bias last, unpenalized
    penalty = np.append(np.full(d, l2), 0.0)
    theta = np.zeros(d + 1)
    trace = [lr_loss(theta[:d], theta[d], Xa[:, :d], y, l2)]
    for _ in range(LR_MAX_ITER):
        p = _sigmoid(Xa @ theta)
        grad = Xa.T @ (p - y) / n + penalty * theta
        hess = (Xa.T * (p * (1.0 - p))) @ Xa / n + np.diag(penalty)
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if 0.5 * float(grad @ step) < LR_TOLERANCE:
            break
        for t in 0.5 ** np.arange(LR_MAX_HALVINGS):
            cand = theta - t * step
            loss = lr_loss(cand[:d], cand[d], Xa[:, :d], y, l2)
            if loss <= trace[-1]:
                break
        else:
            break  # no step lowers the loss: converged to rounding
        theta = cand
        trace.append(loss)
    return {"w": _frozen(theta[:d]), "b": float(theta[d]), "mean": _frozen(mean),
            "std": _frozen(std), "loss_trace": _frozen(trace)}


def _fit_gnb(X, y, hyper):
    floor = hyper["var_floor"]
    params = {"prior1": float(y.mean())}
    for c in (0, 1):
        rows = X[y == c]
        params[f"mean{c}"] = _frozen(rows.mean(axis=0))
        params[f"var{c}"] = _frozen(np.maximum(rows.var(axis=0), floor))
    return params


def _fit_bnb(X, y, hyper):
    a = hyper["smoothing"]
    cut = X.mean(axis=0)
    B = (X > cut).astype(float)
    params = {"cut": _frozen(cut), "prior1": float(y.mean())}
    for c in (0, 1):
        rows = B[y == c]
        params[f"rate{c}"] = _frozen((rows.sum(axis=0) + a) / (len(rows) + 2 * a))
    return params


def _gini_pair(pos, tot):
    # total Gini impurity of a group with pos positives out of tot, times tot
    with np.errstate(invalid="ignore", divide="ignore"):
        p = pos / tot
    return tot * (1.0 - p * p - (1.0 - p) * (1.0 - p))


def _best_split(X, y, min_leaf):
    """(feature, threshold, score) of the best Gini split, or None.

    Ties break toward the lowest feature index and then the lowest
    threshold because features are scanned in order and only strict
    improvements are accepted.
    """
    n = len(y)
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        cum = np.cumsum(ys)
        # candidate split after position i (1-based size of the left side)
        sizes = np.arange(1, n)
        valid = (xs[1:] > xs[:-1]) & (sizes >= min_leaf) & (n - sizes >= min_leaf)
        if not valid.any():
            continue
        left_pos = cum[:-1]
        score = (_gini_pair(left_pos, sizes) + _gini_pair(cum[-1] - left_pos, n - sizes)) / n
        score = np.where(valid, score, np.inf)
        i = int(np.argmin(score))  # first minimum: lowest threshold wins
        if best is None or score[i] < best[2]:
            best = (j, 0.5 * (xs[i] + xs[i + 1]), float(score[i]))
    return best


def _grow_tree(X, y, depth, max_depth, min_leaf):
    prob = float(y.mean())
    if depth >= max_depth or len(y) < 2 * min_leaf or prob in (0.0, 1.0):
        return ("leaf", prob)
    split = _best_split(X, y, min_leaf)
    if split is None:
        return ("leaf", prob)
    j, t, score = split
    parent = _gini_pair(y.sum(), len(y)) / len(y)
    if score >= parent - 1e-15:
        return ("leaf", prob)
    mask = X[:, j] < t
    return ("node", j, t,
            _grow_tree(X[mask], y[mask], depth + 1, max_depth, min_leaf),
            _grow_tree(X[~mask], y[~mask], depth + 1, max_depth, min_leaf))


def fit(kind: str, X, y) -> Classifier:
    """Train one zoo member. Deterministic for fixed inputs."""
    if kind not in ZOO:
        raise DataError(f"unknown classifier kind {kind!r}")
    X, y = _check_xy(X, y)
    hyper = dict(DEFAULT_HYPER[kind])
    if kind == LOGISTIC_REGRESSION:
        params = _fit_lr(X, y, hyper)
    elif kind == GAUSSIAN_NB:
        params = _fit_gnb(X, y, hyper)
    elif kind == BERNOULLI_NB:
        params = _fit_bnb(X, y, hyper)
    else:
        params = {"tree": _grow_tree(X, y, 0, hyper["max_depth"], hyper["min_leaf"])}
    return Classifier(kind=kind, d=X.shape[1],
                      params=MappingProxyType(params), hyper=MappingProxyType(hyper))


def _tree_proba(tree, X):
    out = np.empty(len(X))
    stack = [(tree, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if node[0] == "leaf":
            out[idx] = node[1]
            continue
        _, j, t, left, right = node
        mask = X[idx, j] < t
        stack.append((left, idx[mask]))
        stack.append((right, idx[~mask]))
    return out


def _nb_proba(log_like0, log_like1, prior1):
    # posterior via the log-odds, stable for any likelihood magnitudes
    eps = 1e-12
    odds = (log_like1 + np.log(max(prior1, eps))) - (log_like0 + np.log(max(1 - prior1, eps)))
    return _sigmoid(odds)


def predict_proba(model: Classifier, X) -> np.ndarray:
    """Class-1 probability per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise DataError(f"features have width {X.shape[1] if X.ndim == 2 else 'n/a'}, model expects {model.d}")
    p = model.params
    if model.kind == LOGISTIC_REGRESSION:
        Xs = (X - p["mean"]) / p["std"]
        return _sigmoid(Xs @ p["w"] + p["b"])
    if model.kind == GAUSSIAN_NB:
        ll = []
        for c in (0, 1):
            m, v = p[f"mean{c}"], p[f"var{c}"]
            ll.append(-0.5 * np.sum(np.log(2 * np.pi * v) + (X - m) ** 2 / v, axis=1))
        return _nb_proba(ll[0], ll[1], p["prior1"])
    if model.kind == BERNOULLI_NB:
        B = (X > p["cut"]).astype(float)
        ll = []
        for c in (0, 1):
            r = p[f"rate{c}"]
            ll.append(B @ np.log(r) + (1 - B) @ np.log(1 - r))
        return _nb_proba(ll[0], ll[1], p["prior1"])
    return _tree_proba(p["tree"], X)
