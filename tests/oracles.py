"""Reference implementations the tests compare against.

Each oracle is deliberately built on a different method than the library
code it checks: the constrained-entropy reference solves the primal
problem with an off-the-shelf SQP optimizer and the dual-descent
reference runs gradient descent on the dual (the library takes Newton
steps on the dual), the logistic-regression reference runs quasi-Newton
L-BFGS (the library takes exact Newton steps), the stacked
logistic-regression fit is the library's Newton loop with its design
matrix built by np.hstack and a sigmoid by boolean masks (the library
fills the design in place and takes a mask-free sigmoid), the tree
reference argsorts every feature at every node (the library sorts once
per fit), the AUC reference counts pairs one by one, the quantile-matching
reference builds every tie run's bounds and interpolates all runs in one
call (the library builds no run bounds when no two values tie, and
interpolates in blocks into its rank buffer), the codebook
reference works on rows of bits (the library packs each code into one
byte-string key), the parity-target reference takes means over the rows
of a bit matrix (the library sums a code histogram), the fair-sample
references gather one code row per draw and decode that n-row batch in
query order (the library counts the draws per code and decodes the
counts), and the CSV
references parse and format one cell at a time (the library reads an
ordinary file with numpy's C text reader, and formats a block of rows
with one row template). The library's fallback reader also parses one
cell at a time; the CSV load reference stays the separate, plainer
implementation its results and error texts are checked against.
"""

import csv

import numpy as np
from scipy.optimize import minimize

from ffpdg.binarize import distinct_codes, pack_codes
from ffpdg.data import BINARY, CATEGORICAL, Dataset
from ffpdg.errors import DataError
from ffpdg.maxent import ParityConstraints, feature_matrix
from ffpdg.models import (LR_L2, LR_MAX_HALVINGS, LR_MAX_ITER, LR_TOLERANCE, TREE_MAX_DEPTH,
                          TREE_MIN_LEAF, lr_loss)


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


def two_branch_sigmoid(z):
    """Logistic function by boolean masks: 1/(1+e^-z) where z >= 0, e^z/(1+e^z) elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def stacked_lr_fit(X, y):
    """The zoo's Newton fit with its design matrix built by np.hstack, its
    first loss from `lr_loss` at zero and the two-branch sigmoid:
    (w, b, loss_trace)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    n, d = X.shape
    Xa = np.hstack([(X - mean) / std, np.ones((n, 1))])
    penalty = np.append(np.full(d, LR_L2), 0.0)
    theta = np.zeros(d + 1)
    trace = [lr_loss(theta[:d], theta[d], Xa[:, :d], y, LR_L2)]
    for _ in range(LR_MAX_ITER):
        p = two_branch_sigmoid(Xa @ theta)
        grad = Xa.T @ (p - y) / n + penalty * theta
        hess = (Xa.T * (p * (1.0 - p))) @ Xa / n + np.diag(penalty)
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if 0.5 * float(grad @ step) < LR_TOLERANCE:
            break
        for t in 0.5 ** np.arange(LR_MAX_HALVINGS):
            cand = theta - t * step
            value = lr_loss(cand[:d], cand[d], Xa[:, :d], y, LR_L2)
            if value <= trace[-1]:
                break
        else:
            break
        theta = cand
        trace.append(value)
    return theta[:d], float(theta[d]), np.asarray(trace)


def resorting_tree(X, y):
    """Greedy Gini tree that stably argsorts every feature at every node
    and copies each child's rows: nested ("node", j, t, left, right) and
    ("leaf", p) tuples. Among equal scores the lowest feature, then the
    lowest threshold wins."""
    def gini(pos, tot):
        with np.errstate(invalid="ignore", divide="ignore"):
            p = pos / tot
        return tot * (1.0 - p * p - (1.0 - p) * (1.0 - p))

    def best_split(X, y):
        n = len(y)
        best = None
        for j in range(X.shape[1]):
            order = np.argsort(X[:, j], kind="stable")
            xs = X[order, j]
            cum = np.cumsum(y[order])
            sizes = np.arange(1, n)
            valid = (xs[1:] > xs[:-1]) & (sizes >= TREE_MIN_LEAF) & (n - sizes >= TREE_MIN_LEAF)
            if not valid.any():
                continue
            left_pos = cum[:-1]
            score = (gini(left_pos, sizes) + gini(cum[-1] - left_pos, n - sizes)) / n
            score = np.where(valid, score, np.inf)
            i = int(np.argmin(score))
            if best is None or score[i] < best[2]:
                best = (j, 0.5 * (xs[i] + xs[i + 1]), float(score[i]))
        return best

    def grow(X, y, depth):
        prob = float(y.mean())
        if depth >= TREE_MAX_DEPTH or len(y) < 2 * TREE_MIN_LEAF or prob in (0.0, 1.0):
            return ("leaf", prob)
        split = best_split(X, y)
        if split is None:
            return ("leaf", prob)
        j, t, score = split
        if score >= gini(y.sum(), len(y)) / len(y) - 1e-15:
            return ("leaf", prob)
        mask = X[:, j] < t
        return ("node", j, t, grow(X[mask], y[mask], depth + 1), grow(X[~mask], y[~mask], depth + 1))

    return grow(np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64), 0)


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


def run_array_match_quantiles(values, grid):
    """Each value's average rank, as a level, through a quantile grid: the
    starts, sizes and mean ranks of every run of tied values as arrays,
    one np.interp call over the runs, and a repeat back to the rows."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(starts, append=len(values))
    means = 0.5 * (2 * starts + 1 + sizes)
    run_values = np.interp((means - 0.5) / len(values), np.linspace(0.0, 1.0, len(grid)), grid)
    out = np.empty(len(values))
    out[order] = np.repeat(run_values, sizes)
    return out


def row_codebook(binary):
    """Distinct codes by np.unique over rows: (keys, counts, row_groups).

    Keys come out lexicographically sorted; each group lists the rows
    carrying its key in ascending order.
    """
    keys, inverse, counts = np.unique(binary, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    groups = [np.flatnonzero(inverse == i) for i in range(len(keys))]
    return keys.astype(np.uint8), counts, groups


def row_group_rates(bits, protected_bit, label_bit):
    """(P(Y=1 | C=0), P(Y=1 | C=1)) as means over the rows of a bit matrix."""
    c = bits[:, protected_bit]
    y = bits[:, label_bit]
    return float(y[c == 0].mean()), float(y[c == 1].mean())


def row_fair_marginals(bits, protected_bit, label_bit, rate=1.0):
    """Parity targets from the rows of a bit matrix: theta as the column
    means, the joint as the mean of the product bit, the group rates by
    rows; the targets from them by the same formulas as the library."""
    bits = np.asarray(bits, dtype=np.uint8)
    theta = bits.mean(axis=0)
    r0, r1 = row_group_rates(bits, protected_bit, label_bit)
    c = float(theta[protected_bit])
    r = float(theta[label_bit])
    lo, hi = min(r0, r1), max(r0, r1)
    if hi == 0.0 or (hi > 0 and lo / hi >= rate):
        joint = float((bits[:, protected_bit] * bits[:, label_bit]).mean())
    elif r1 >= r0:
        joint = c * (r / ((1 - c) * rate + c))
    else:
        joint = c * (rate * (r / ((1 - c) + c * rate)))
    return ParityConstraints(theta=theta, joint_target=joint,
                             protected_bit=protected_bit, label_bit=label_bit)


def expanded_sample_codes(distribution, n, seed):
    """n systematic draws from a DiscreteDistribution as an n x m matrix of
    code rows: the support row of each point's cell, in support order."""
    u = np.random.default_rng(seed).random()
    cells = np.searchsorted(np.cumsum(distribution.probs)[:-1], (u + np.arange(n)) / n, side="right")
    return distribution.support[cells]


def query_order_decode(codes, codebook, rows, seed):
    """One row of `rows` per code row of a batch, in the batch's order.

    The queries are grouped by code with distinct_codes and matched to the
    codebook keys by np.searchsorted; every entry's source rows are shuffled
    by one stable argsort of `entry << 32 | 32 random bits`, and the j-th
    query of an entry, counting in batch order, takes row j mod count of
    its shuffled slice. The rows are scattered back into batch order.
    """
    uniq, _, where_order, where_starts = distinct_codes(codes)
    packed = pack_codes(codebook.keys)
    entry = np.minimum(np.searchsorted(packed, uniq), codebook.entry_count() - 1)
    if np.any(packed[entry] != uniq):
        raise DataError("codes are not in the codebook")
    counts = codebook.counts
    sort_key = np.repeat(np.arange(len(counts), dtype=np.uint64), counts) << np.uint64(32)
    sort_key |= np.random.default_rng(seed).integers(0, 1 << 32, size=len(sort_key), dtype=np.uint64)
    shuffled = codebook.row_order[np.argsort(sort_key, kind="stable")]
    sizes = np.diff(where_starts)
    query_entry = np.repeat(entry, sizes)
    rank = np.arange(len(codes)) - np.repeat(where_starts[:-1], sizes)
    rank = rank % counts[query_entry] + codebook.row_starts[query_entry]
    source = np.empty_like(rank)
    source[where_order] = shuffled[rank]
    return rows[source]


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
