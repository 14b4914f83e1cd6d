"""Reference implementations the tests compare against.

Each oracle is deliberately built on a different method than the library
code it checks: the constrained-entropy reference solves the primal
problem with an off-the-shelf SQP optimizer and the dual-descent
reference runs gradient descent on the dual (the library takes Newton
steps on the dual), the logistic-regression reference runs quasi-Newton
L-BFGS (the library takes exact Newton steps), the AUC reference counts
pairs one by one, the codebook reference works on rows of bits (the
library packs each code into one byte-string key), and the CSV
references parse and format one cell at a time (the library reads an
ordinary file with numpy's C text reader, and formats a block of rows
with one row template). The library's fallback reader also parses one
cell at a time; the CSV load reference stays the separate, plainer
implementation its results and error texts are checked against.
"""

import csv

import numpy as np
from scipy.optimize import minimize

from ffpdg.data import BINARY, CATEGORICAL, Dataset
from ffpdg.errors import DataError
from ffpdg.maxent import feature_matrix


def kl_projection(prior_probs, features, targets):
    """argmin KL(p || prior) over the simplex subject to E_p[phi] = targets.

    This is the constrained-entropy maximizer: with a uniform prior it
    reduces to plain entropy maximization. Solved as the primal program
    with SLSQP, so it shares no code path with the dual solver.
    """
    prior_probs = np.asarray(prior_probs, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    log_q = np.log(prior_probs)
    floor = 1e-300

    def objective(p):
        p = np.clip(p, floor, None)
        return float(np.sum(p * (np.log(p) - log_q)))

    def gradient(p):
        p = np.clip(p, floor, None)
        return np.log(p) - log_q + 1.0

    constraints = [
        {"type": "eq", "fun": lambda p: p.sum() - 1.0,
         "jac": lambda p: np.ones_like(p)},
        {"type": "eq", "fun": lambda p: features.T @ p - targets,
         "jac": lambda p: features.T},
    ]
    result = minimize(
        objective, prior_probs, jac=gradient, method="SLSQP",
        bounds=[(0.0, 1.0)] * len(prior_probs), constraints=constraints,
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    if not result.success:
        raise RuntimeError(f"reference KL projection failed: {result.message}")
    return np.clip(result.x, 0.0, None) / np.clip(result.x, 0.0, None).sum()


def two_pass_dual_descent(prior, constraints, tol=1e-6, max_iter=10000):
    """The max-entropy dual minimized by gradient descent, with the objective
    and the distribution computed by two helpers, each exponentiating on
    its own.

    Same dual, Armijo constant (shrink 0.5 from step 1.0) and stopping
    rule as `solve_maxent`, but along the gradient rather than the Newton
    direction, so it takes hundreds of steps where the library takes a
    few; the distribution is recomputed from lambda for every gradient
    and for the final residual. Returns a dict with lam,
    objective_trace, probs, iterations, residual and backtracks (the
    number of rejected step sizes).
    """
    features = feature_matrix(prior.support, constraints)
    targets = constraints.targets

    def dual_value(lam):
        z = log_q + features @ lam
        zmax = z.max()
        return float(zmax + np.log(np.exp(z - zmax).sum()) - lam @ targets)

    def dual_probs(lam):
        z = log_q + features @ lam
        z -= z.max()
        p = np.exp(z)
        return p / p.sum()

    log_q = np.log(prior.probs)
    lam = np.zeros(features.shape[1])
    value = dual_value(lam)
    trace = [value]
    iterations = backtracks = 0
    grad = features.T @ dual_probs(lam) - targets
    while iterations < max_iter and np.abs(grad).max() > tol:
        step = 1.0
        gnorm2 = float(grad @ grad)
        while True:
            candidate = lam - step * grad
            cand_value = dual_value(candidate)
            if cand_value <= value - 1e-4 * step * gnorm2:
                break
            step *= 0.5
            backtracks += 1
            if step < 1e-20:
                candidate = None
                break
        if candidate is None:
            break
        lam, value = candidate, cand_value
        trace.append(value)
        grad = features.T @ dual_probs(lam) - targets
        iterations += 1
    probs = dual_probs(lam)
    return {"lam": lam, "objective_trace": np.asarray(trace), "probs": probs,
            "iterations": iterations, "backtracks": backtracks,
            "residual": float(np.abs(features.T @ probs - targets).max())}


def lbfgs_lr_optimum(loss, X, y, l2):
    """Minimum of loss(w, b, X, y, l2), the L2-regularized mean log loss
    with an unpenalized bias, found by L-BFGS with an analytic gradient."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape

    def objective(theta):
        return loss(theta[:d], theta[d], X, y, l2)

    def gradient(theta):
        r = 1.0 / (1.0 + np.exp(-(X @ theta[:d] + theta[d]))) - y
        return np.append(X.T @ r / n + l2 * theta[:d], r.mean())

    result = minimize(objective, np.zeros(d + 1), jac=gradient, method="L-BFGS-B",
                      options={"maxiter": 10000, "ftol": 1e-16, "gtol": 1e-12})
    return float(result.fun)


def pairwise_auc(scores, labels):
    """AUC by explicit pair counting: wins + half the ties over all pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def row_codebook(binary):
    """Distinct codes by np.unique over rows: (keys, counts, row_groups).

    Keys come out lexicographically sorted; each group lists the rows
    carrying its key in ascending order.
    """
    keys, inverse, counts = np.unique(binary, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    groups = [np.flatnonzero(inverse == i) for i in range(len(keys))]
    return keys.astype(np.uint8), counts, groups


def cellwise_load_csv(path, schema):
    """Parse a header-first CSV row by row, calling float() on each cell."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header = None
    rows = []
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            if header != schema.names:
                raise DataError(f"{path}: header {header!r} does not match schema columns {schema.names!r}")
            level_maps = [
                {lvl: float(i) for i, lvl in enumerate(c.levels)} if c.kind == CATEGORICAL else None
                for c in schema.columns
            ]
            for rownum, cells in enumerate(reader):
                if len(cells) != schema.d:
                    raise DataError(f"{path}: row {rownum} has {len(cells)} cells, expected {schema.d}")
                parsed = np.empty(schema.d)
                for j, (cell, col) in enumerate(zip(cells, schema.columns)):
                    if col.kind == CATEGORICAL:
                        text = cell.strip()
                        try:
                            parsed[j] = level_maps[j][text]
                        except KeyError:
                            raise DataError(
                                f"{path}: row {rownum}, column {col.name!r}: unknown level {text!r}"
                            ) from None
                        continue
                    # float() skips less than str.strip(): not \x1c-\x1f
                    text = cell.strip("".join(c for c in cell if c.isspace() and c not in "\x1c\x1d\x1e\x1f"))
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {rownum}, column {col.name!r}: cannot parse {text!r}"
                        ) from None
                    if col.kind == BINARY and value not in (0.0, 1.0):
                        raise DataError(
                            f"{path}: row {rownum}, column {col.name!r}: binary cell must be 0 or 1, got {text!r}"
                        )
                    parsed[j] = value
                rows.append(parsed)
    except csv.Error as exc:
        where = "header" if header is None else f"row {len(rows)}"
        raise DataError(f"{path}: {where}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(schema, np.vstack(rows))


def cellwise_save_csv(dataset, path):
    """Write a Dataset row by row, formatting each cell on its own."""
    schema = dataset.schema
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.names)
        for row in dataset.values:
            cells = []
            for value, col in zip(row, schema.columns):
                if col.kind == CATEGORICAL:
                    cells.append(col.levels[int(value)])
                elif col.kind == BINARY:
                    cells.append(str(int(value)))
                else:
                    cells.append(format(value, ".17g"))
            writer.writerow(cells)
