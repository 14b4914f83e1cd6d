"""Self-contained classifier zoo for the evaluation metrics.

Four binary classifiers implemented on numpy: L2-regularized logistic
regression (Newton/IRLS with step-halving, on a column-major design,
one product and one exponential per evaluated point), Gaussian and
Bernoulli naive Bayes, and a greedy Gini decision tree that sorts each
feature once per fit. The metrics train these on synthetic data and
score them on real data, so the zoo is deliberately small,
deterministic, and dependency-free.
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

LR_L2 = 1e-3            # L2 penalty on the standardized weights, bias unpenalized
GNB_VAR_FLOOR = 1e-9    # smallest per-class feature variance
BNB_SMOOTHING = 1.0     # additive smoothing of the per-class bit rates
TREE_MAX_DEPTH = 5
TREE_MIN_LEAF = 5


@dataclass(frozen=True)
class Classifier:
    kind: str
    d: int
    params: MappingProxyType


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


def _sigmoid_of(z, e):
    # e = e^-|z|, which never overflows: for z >= 0 this is 1/(1+e^-z), else e^z/(1+e^z)
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _sigmoid(z):
    # min(z, -z) rather than -|z| keeps the sign bit of a NaN z
    return _sigmoid_of(z, np.exp(np.minimum(z, -z)))


def _lr_terms(z, y):
    """(mean log loss, class-1 probabilities) at scores z, from one exponential."""
    e = np.exp(np.minimum(z, -z))
    # log(1 + e^z) = max(z, 0) + log(1 + e^-|z|), which never overflows
    loss = np.mean(np.maximum(z, 0.0) + np.log1p(e) - y * z)
    return loss, _sigmoid_of(z, e)


def lr_loss(w, b, X, y, l2):
    """Mean log loss plus (l2/2)||w||^2, bias unregularized."""
    return _lr_terms(X @ w + b, y)[0] + 0.5 * l2 * float(w @ w)


def _fit_lr(X, y):
    n, d = X.shape
    # standardized features in contiguous columns, bias last and unpenalized
    Xa = np.empty((n, d + 1), order="F")
    Xs = Xa[:, :d]
    Xs[...] = X
    mean = Xs.mean(axis=0)
    Xs -= mean
    # X.std(axis=0) from the centred columns, as numpy computes it
    std = np.sqrt(np.square(Xs).sum(axis=0) / n)
    std = np.where(std < 1e-12, 1.0, std)
    Xs /= std
    Xa[:, d] = 1.0
    penalty = np.append(np.full(d, LR_L2), 0.0)
    theta = np.zeros(d + 1)
    # each evaluated theta costs one Xa @ theta and one exponential: the
    # accepted candidate's probabilities give the next gradient and Hessian
    loss, p = _lr_terms(Xa @ theta, y)
    trace = [loss]
    for _ in range(LR_MAX_ITER):
        grad = Xa.T @ (p - y) / n + penalty * theta
        hess = (Xa.T * (p * (1.0 - p))) @ Xa / n + np.diag(penalty)
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if 0.5 * float(grad @ step) < LR_TOLERANCE:
            break
        for t in 0.5 ** np.arange(LR_MAX_HALVINGS):
            cand = theta - t * step
            loss, p_cand = _lr_terms(Xa @ cand, y)
            loss += 0.5 * LR_L2 * float(cand[:d] @ cand[:d])
            if loss <= trace[-1]:
                break
        else:
            break  # no step lowers the loss: converged to rounding
        theta, p = cand, p_cand
        trace.append(loss)
    return {"w": _frozen(theta[:d]), "b": float(theta[d]), "mean": _frozen(mean),
            "std": _frozen(std), "loss_trace": _frozen(trace)}


def _fit_gnb(X, y):
    params = {"prior1": float(y.mean())}
    for c in (0, 1):
        rows = X[y == c]
        params[f"mean{c}"] = _frozen(rows.mean(axis=0))
        params[f"var{c}"] = _frozen(np.maximum(rows.var(axis=0), GNB_VAR_FLOOR))
    return params


def _fit_bnb(X, y):
    cut = X.mean(axis=0)
    B = (X > cut).astype(float)
    params = {"cut": _frozen(cut), "prior1": float(y.mean())}
    for c in (0, 1):
        rows = B[y == c]
        rate = (rows.sum(axis=0) + BNB_SMOOTHING) / (len(rows) + 2 * BNB_SMOOTHING)
        params[f"rate{c}"] = _frozen(rate)
    return params


def _gini_pair(pos, tot):
    """Total Gini impurity of groups with `pos` positives out of `tot`
    rows, times `tot`: tot * (1 - p^2 - (1-p)^2) with p = pos/tot, in
    place on two arrays of pos's shape."""
    p = np.divide(pos, tot)
    q = np.subtract(1.0, p)
    p *= p
    q *= q
    np.subtract(1.0, p, out=p)
    p -= q
    p *= tot
    return p


def _best_split(XT, y, orders):
    """(feature, threshold, score) of the best Gini split, or None.

    `orders` holds the node's rows once per feature, sorted by that
    feature. Every candidate of every feature is scored in one pass, and
    argmin takes its first minimum: the lowest feature index, then the
    lowest threshold.
    """
    d, n = orders.shape
    xs = np.take_along_axis(XT, orders, axis=1)
    # a candidate splits after sorted position i, between two different
    # values, with at least TREE_MIN_LEAF rows on either side
    lo, hi = TREE_MIN_LEAF - 1, n - TREE_MIN_LEAF
    j, i = np.nonzero(xs[:, lo + 1:hi + 1] > xs[:, lo:hi])  # by feature, then position
    if not len(j):
        return None
    i += lo
    cum = y[orders]
    np.cumsum(cum, axis=1, out=cum)
    left_pos = cum[j, i]
    sizes = i + 1.0
    score = _gini_pair(left_pos, sizes)
    score += _gini_pair(cum[0, -1] - left_pos, n - sizes)
    score /= n
    k = int(np.argmin(score))
    j, i = int(j[k]), i[k]
    return j, 0.5 * (xs[j, i] + xs[j, i + 1]), float(score[k])


def _grow_tree(XT, y, rows, orders, left, depth):
    """Tree over the node's `rows` (ascending) with per-feature `orders`.

    A child's orders are the parent's filtered by the split, so the sort
    at the root orders every node. `left` is scratch space: one flag per
    training row.
    """
    ys = y[rows]
    prob = float(ys.mean())
    if depth >= TREE_MAX_DEPTH or len(rows) < 2 * TREE_MIN_LEAF or prob in (0.0, 1.0):
        return ("leaf", prob)
    split = _best_split(XT, y, orders)
    if split is None:
        return ("leaf", prob)
    j, t, score = split
    parent = _gini_pair(ys.sum(keepdims=True), len(rows))[0] / len(rows)
    if score >= parent - 1e-15:
        return ("leaf", prob)
    goes_left = XT[j, rows] < t
    left[rows] = goes_left
    to_left = left[orders]
    d = len(orders)
    return ("node", j, t,
            _grow_tree(XT, y, rows[goes_left], orders[to_left].reshape(d, -1), left, depth + 1),
            _grow_tree(XT, y, rows[~goes_left], orders[~to_left].reshape(d, -1), left, depth + 1))


def _fit_tree(X, y):
    XT = np.ascontiguousarray(X.T)
    # Any sort will do: the order within a run of equal values moves no
    # split, which falls only between two different values, where the
    # positives on its left are the same whichever way the run is ordered.
    orders = np.argsort(XT, axis=1)
    return _grow_tree(XT, y, np.arange(len(y)), orders, np.empty(len(y), dtype=bool), 0)


def fit(kind: str, X, y) -> Classifier:
    """Train one zoo member. Deterministic for fixed inputs."""
    if kind not in ZOO:
        raise DataError(f"unknown classifier kind {kind!r}")
    X, y = _check_xy(X, y)
    if kind == LOGISTIC_REGRESSION:
        params = _fit_lr(X, y)
    elif kind == GAUSSIAN_NB:
        params = _fit_gnb(X, y)
    elif kind == BERNOULLI_NB:
        params = _fit_bnb(X, y)
    else:
        params = {"tree": _fit_tree(X, y)}
    return Classifier(kind=kind, d=X.shape[1], params=MappingProxyType(params))


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
