"""Gaussian generative stage behind a random orthonormal projection.

Pipeline, in order: one-hot + white-noise expansion of categorical
columns and per-sample unit normalization; private centering with a
Laplace-noised mean; re-normalization; projection through the first p
columns of the orthogonal factor of a random Gaussian matrix; private
Gaussian cells in the projected space; sampling; back-projection and
re-discretization into the original column formats.

The release is a tuple of Gaussian cells (weight, mean, covariance) from
noised sums over the public n: one zero-mean cell in unsupervised mode;
one cell in regression mode, whose samples carry their label scaled into
[-1, 1] and whose mean is zero but for the label's noised mean; one cell
per class otherwise, each from one noised moment of [samples; 1].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import binarize, maxent
from .data import (
    BINARY,
    CATEGORICAL,
    CONTINUOUS,
    ColumnSpec,
    Dataset,
    Schema,
    group_rates,
    interp_quantiles,
    scatter_runs,
    tie_runs,
)
from .dp import PrivacyBudget, column_norms, dp_covariance, dp_mean, psd_repair
from .errors import DataError, SchemaError, StageError

MODE_UNSUPERVISED = "unsupervised"
MODE_CLASSIFICATION = "classification"
MODE_REGRESSION = "regression"
MODE_AUTO = "auto"

_MODES = (MODE_UNSUPERVISED, MODE_CLASSIFICATION, MODE_REGRESSION)

# Training quantiles stored per continuous column for post-processing;
# the levels are evenly spaced on [0, 1].
QUANTILE_POINTS = 257

# Std of the Gaussian noise added to every one-hot entry of a categorical
# column before normalization.
CATEGORICAL_NOISE_SIGMA = 0.01

# Share of epsilon_sigma that releases the scaled label's mean in regression mode.
LABEL_MEAN_SHARE = 0.1

# Ranks per np.interp call when sampling maps a continuous column through
# its grid: each block's result goes back into the rank buffer, so no
# second n-length array is allocated.
INTERP_BLOCK = 16_384


@dataclass(frozen=True)
class RonProjection:
    """d x p matrix with orthonormal columns."""

    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        if W.ndim != 2:
            raise DataError(f"W has shape {W.shape}, expected a d x p matrix")
        object.__setattr__(self, "W", W)

    @property
    def p(self) -> int:
        return self.W.shape[1]

    def orthonormality_defect(self) -> float:
        return float(np.abs(self.W.T @ self.W - np.eye(self.p)).max())


@dataclass(frozen=True)
class ColumnPost:
    """Training-data calibration that restores one column's format; a model
    holds one per schema column, in schema order.

    Binary columns carry the training positive rate (the synthetic column
    is thresholded at its own quantile of 1 - rate). Continuous columns, a
    regression label included, carry training values at `QUANTILE_POINTS`
    evenly spaced levels, whose endpoints (the training min and max) also
    scale the label into [-1, 1] for fitting: sampling maps the ranks of a
    coordinate through its grid, keeping every restored value in the
    training range. Categorical columns carry neither.
    """

    rate: float = 0.0
    quantile_grid: tuple[float, ...] = ()


@dataclass(frozen=True)
class GenerationConfig:
    budget: PrivacyBudget = field(default_factory=lambda: PrivacyBudget.from_total(1.0))
    p: int | None = None          # None: min(d_eff - 1, 8)
    n_out: int | None = None      # None: size of the training data
    mode: str = MODE_AUTO
    seed: int = 0
    bins: int = 1                 # discretization bits per continuous column
    rate: float = 1.0             # statistical-rate target (1 = exact parity)

    def __post_init__(self):
        if self.mode not in _MODES + (MODE_AUTO,):
            raise DataError(f"unknown mode {self.mode!r}")
        if self.p is not None and self.p < 1:
            raise DataError("p must be >= 1")
        if self.n_out is not None and self.n_out < 1:
            raise DataError("n_out must be >= 1")


@dataclass(frozen=True)
class RonGaussModel:
    """The release (projection, noised mean and Gaussian cells) with the
    public schema and the calibration that decodes it; the column layout,
    d_eff, p and the label follow from these."""

    mode: str
    schema: Schema
    projection: RonProjection
    mu_dp: np.ndarray
    weights_dp: np.ndarray               # (cells,): a distribution
    means_dp: tuple[np.ndarray, ...]     # one (side,) mean per cell
    sigma_dp: tuple[np.ndarray, ...]     # one (side, side) covariance per cell
    postprocess: tuple[ColumnPost, ...]
    class_values: tuple[float, ...] = ()  # the label value of each cell, classification only

    @property
    def d_eff(self) -> int:
        return self.projection.W.shape[0]

    def __post_init__(self):
        """What `sample` relies on, for a fitted model and a parsed audit alike:
        a schema whose label suits the mode, W sized to its layout, finite
        arrays sized to d_eff and p, one cell per class (one outside
        classification), and one finite post-processing entry per column."""
        if self.mode not in _MODES:
            raise DataError(f"model has unknown mode {self.mode!r}")
        d_eff = layout(self.schema, self.mode)[1]
        p = self.projection.p
        side = p + 1 if self.mode == MODE_REGRESSION else p
        classification = self.mode == MODE_CLASSIFICATION
        classes = len(self.class_values)
        cells = classes if classification else 1
        shapes = [("W", self.projection.W, (d_eff, p)), ("mu", self.mu_dp, (d_eff,)),
                  ("weights", self.weights_dp, (cells,))]
        shapes += [(f"sigma {i}", s, (side, side)) for i, s in enumerate(self.sigma_dp)]
        shapes += [(f"mean {i}", m, (side,)) for i, m in enumerate(self.means_dp)]
        for name, array, shape in shapes:
            if np.shape(array) != shape:
                raise DataError(f"model {name} has shape {np.shape(array)}, expected {shape}")
            if not np.all(np.isfinite(array)):
                raise DataError(f"model {name} holds a non-finite value")
        for name, count in (("covariances", len(self.sigma_dp)), ("means", len(self.means_dp))):
            if count != cells:
                raise DataError(f"{self.mode} model has {count} {name}, expected {cells}")
        weights = np.asarray(self.weights_dp)
        # `Generator.choice` accepts a sum within about 1.5e-8 of 1
        if not (cells and np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-8):
            raise DataError(f"model weights {weights.tolist()} are not a distribution")
        if (classes < 2) if classification else (classes != 0):
            raise DataError(f"{self.mode} model has {classes} class values")
        if classification:
            # as `fit`'s np.unique gives them: distinct, ascending, 0/1 or level indices
            label = self.schema.columns[self.schema.label_index]
            domain = range(len(label.levels)) if label.kind == CATEGORICAL else (0, 1)
            if list(self.class_values) != sorted(set(self.class_values) & set(domain)):
                raise DataError(f"model class values {list(self.class_values)} are not distinct "
                                f"ascending values of the label {label.name}")
        if len(self.postprocess) != self.schema.d:
            raise DataError(f"model has {len(self.postprocess)} post-processing entries, "
                            f"expected one per schema column ({self.schema.d})")
        for col, post in zip(self.schema.columns, self.postprocess):
            if not np.all(np.isfinite([post.rate, *post.quantile_grid])):
                raise DataError(f"model post-processing of {col.name} holds a non-finite value")
            if not 0.0 <= post.rate <= 1.0:
                raise DataError(f"model post-processing of {col.name} has rate {post.rate!r}, outside [0, 1]")
            if col.kind == CONTINUOUS and len(post.quantile_grid) == 0:
                raise DataError(f"model post-processing of {col.name} has an empty quantile grid")


def resolve_mode(schema: Schema, mode: str) -> str:
    """`mode`, or for auto the mode `layout` accepts for the label: unsupervised
    without one, regression for a continuous label, classification otherwise."""
    if mode != MODE_AUTO:
        return mode
    idx = schema.label_index
    if idx is None:
        return MODE_UNSUPERVISED
    return MODE_REGRESSION if schema.columns[idx].kind == CONTINUOUS else MODE_CLASSIFICATION


def resolve(schema: Schema, config: GenerationConfig) -> tuple[str, int]:
    """The mode and projected dimension p that `config` asks of `schema`; they
    need no rows, so `generate` checks them before its first stage."""
    mode = resolve_mode(schema, config.mode)
    d_eff = layout(schema, mode)[1]
    p = config.p if config.p is not None else min(d_eff - 1, 8)
    if not 1 <= p < d_eff:
        raise DataError(f"projected dimension p={p} must satisfy 1 <= p < d_eff={d_eff}")
    return mode, p


def layout(schema: Schema, mode: str) -> tuple[dict[int, slice], int]:
    """The rows of the expanded matrix each modelled column fills, by schema
    index, and d_eff. Every column is modelled except the label outside
    unsupervised mode, which must be binary or categorical to classify
    and continuous to regress; a categorical column takes one row per
    level, every other column one row, and the constant anchor row comes
    last."""
    label = schema.label_index
    kind = schema.columns[label].kind if label is not None else None
    if mode == MODE_CLASSIFICATION and kind not in (BINARY, CATEGORICAL):
        raise SchemaError("classification mode needs a binary or categorical label column")
    if mode == MODE_REGRESSION and kind != CONTINUOUS:
        raise SchemaError("regression mode needs a continuous label column")
    rows = {}
    offset = 0
    for j, col in enumerate(schema.columns):
        if j == label and mode != MODE_UNSUPERVISED:
            continue
        width = len(col.levels) if col.kind == CATEGORICAL else 1
        rows[j] = slice(offset, offset + width)
        offset += width
    return rows, offset + 1


def pre_normalize(dataset: Dataset, categorical_noise_sigma: float, seed,
                  mode: str = MODE_UNSUPERVISED) -> np.ndarray:
    """Expand the columns `mode` models into a d_eff x n matrix of unit-norm
    sample vectors, at the rows `layout` gives them.

    Categorical columns become one-hot blocks with zero-mean Gaussian
    noise of the given std added to every one-hot entry; binary columns
    map to one coordinate unchanged; continuous columns map to one
    coordinate min-max scaled into [0, 1] so that no single column
    dominates the sample norm. The constant anchor coordinate 1 (an
    all-zero row would otherwise have no direction) fills the last row,
    then every sample (column of the result) is scaled to unit Euclidean
    norm.
    """
    rng = np.random.default_rng(seed)
    rows, d_eff = layout(dataset.schema, mode)
    X = np.empty((d_eff, dataset.n))
    for j, at in rows.items():
        kind = dataset.schema.columns[j].kind
        v = dataset.values[:, j]
        if kind == CATEGORICAL:
            block = X[at]
            block[:] = 0.0
            block[v.astype(int), np.arange(dataset.n)] = 1.0
            if categorical_noise_sigma > 0:
                block += rng.normal(0.0, categorical_noise_sigma, size=block.shape)
        elif kind == CONTINUOUS:
            lo, hi = v.min(), v.max()
            X[at] = (v - lo) / (hi - lo) if hi > lo else 0.5
        else:
            X[at] = v
    X[-1] = 1.0
    X /= column_norms(X)
    return X


def center_and_renormalize(X: np.ndarray, budget: PrivacyBudget, seed) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the DP mean, then rescale each sample back to unit norm, in
    place: returns (X, mu), and a caller that needs X as it was passes a copy."""
    rng = np.random.default_rng(seed)
    mu = dp_mean(X, X.shape[1], budget.epsilon_mu, rng)
    X -= mu[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        norms = column_norms(X)
    if not np.all(np.isfinite(norms)):
        raise DataError(f"epsilon_mu={budget.epsilon_mu:g} is too small: the mean's noise "
                        "is so large that the centred samples' norms overflow")
    zero = norms == 0.0
    if np.any(zero):
        warnings.warn(f"{int(zero.sum())} samples equal the DP mean; perturbing by 1e-12")
        X[:, zero] += 1e-12
        norms = column_norms(X)
    X /= norms
    return X, mu


def make_ron(d: int, p: int, seed) -> RonProjection:
    """First p columns of the orthogonal factor of a random Gaussian matrix.

    QR with the sign convention R_ii >= 0 so the factorization (and hence
    the projection) is a deterministic function of the sampled matrix.
    """
    if not 1 <= p < d:
        raise DataError(f"need 1 <= p < d, got p={p}, d={d}")
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((d, d))
        Q, R = np.linalg.qr(A)
        diag = np.diag(R)
        if np.any(np.abs(diag) < 1e-12):
            continue  # numerically rank deficient; probability ~ 0
        Q = Q * np.sign(diag)[None, :]
        return RonProjection(W=Q[:, :p])


def _column_post(col: ColumnSpec, values: np.ndarray) -> ColumnPost:
    if col.kind == BINARY:
        return ColumnPost(rate=float(values.mean()))
    if col.kind == CONTINUOUS:
        grid = interp_quantiles(np.sort(values), np.linspace(0.0, 1.0, QUANTILE_POINTS))
        # `pre_normalize` divides by the range, `sample` interpolates with the slopes
        with np.errstate(over="ignore"):
            widest = max(grid[-1] - grid[0], np.diff(grid).max() * (QUANTILE_POINTS - 1))
        if not np.isfinite(widest):
            raise DataError(f"continuous column {col.name!r} spans [{grid[0]:g}, {grid[-1]:g}]: "
                            "its range or its quantile grid's slope overflows float64")
        return ColumnPost(quantile_grid=tuple(grid))
    return ColumnPost()


def fit(dataset: Dataset, config: GenerationConfig) -> RonGaussModel:
    """Fit the projected DP Gaussian cells on a dataset.

    Unsupervised mode models every column; classification and regression
    modes model every column except the label. The projection and the DP
    mean are shared by every cell; epsilon_sigma buys one `dp_covariance`
    (in regression, after the scaled label's mean, of the samples stacked
    with their centred labels) or, in classification, one per class
    (`_class_cells`). A caller that keeps no other reference to `dataset`
    lets `fit` free it once the calibration, the labels and the expanded
    matrix are read.
    """
    mode, p = resolve(dataset.schema, config)
    schema = dataset.schema
    label_idx = schema.label_index
    n = dataset.n
    seq = np.random.SeedSequence(config.seed)
    rng_noise, rng_mu, rng_ron, rng_cov, rng_share = (np.random.default_rng(s) for s in seq.spawn(5))

    posts = tuple(_column_post(schema.columns[j], dataset.values[:, j]) for j in range(schema.d))
    X = pre_normalize(dataset, CATEGORICAL_NOISE_SIGMA, rng_noise, mode)
    labels = dataset.values[:, label_idx].copy() if mode != MODE_UNSUPERVISED else None
    # the table's last reader: a caller that hands it over (as generate does) frees it here
    del dataset

    X, mu = center_and_renormalize(X, config.budget, rng_mu)
    projection = make_ron(X.shape[0], p, rng_ron)
    Xp = projection.W.T @ X
    del X

    shared = dict(mode=mode, schema=schema, projection=projection, mu_dp=mu, postprocess=posts)
    eps_sigma = config.budget.epsilon_sigma

    if mode == MODE_CLASSIFICATION:
        return RonGaussModel(**shared, **_class_cells(Xp, labels, eps_sigma, rng_cov))
    if mode == MODE_REGRESSION:
        lo, hi = posts[label_idx].quantile_grid[0], posts[label_idx].quantile_grid[-1]
        with np.errstate(over="ignore"):  # checked just below
            t = (2.0 * labels - lo - hi) / (hi - lo) if hi > lo else np.zeros(n)
        if not np.all(np.isfinite(t)):
            raise DataError(f"label {schema.columns[label_idx].name!r} spans [{lo:g}, {hi:g}]: "
                            "scaling it into [-1, 1] overflows float64")
        # t in [-1, 1] gets a noised mean m; t - m, scaled by s = 1 + |m| into [-1, 1]
        # (clipped against rounding), joins x', and each stacked column / sqrt(2) has norm <= 1
        eps_mean = LABEL_MEAN_SHARE * eps_sigma
        m = np.clip(dp_mean(t[None, :], n, eps_mean, rng_share)[0], -1, 1)
        scale = np.append(np.ones(p), 1.0 + abs(m))  # the label's row and column back to t - m
        u = np.clip((t - m) / scale[p], -1.0, 1.0)
        sigma = dp_covariance(np.vstack([Xp, u]) / np.sqrt(2.0), n, eps_sigma - eps_mean, rng_cov)
        sigma *= 2.0 * np.outer(scale, scale)
        mean = np.append(np.zeros(p), m)
    else:
        sigma = dp_covariance(Xp, n, eps_sigma, rng_cov)
        mean = np.zeros(p)
    return RonGaussModel(**shared, weights_dp=np.ones(1), means_dp=(mean,), sigma_dp=(sigma,))


def _class_cells(Xp: np.ndarray, labels: np.ndarray, epsilon_sigma: float,
                 rng_cov: np.random.Generator) -> dict:
    """One cell per label class, as `RonGaussModel` fields, from one release of
    the class's Z = [x'; 1]/sqrt(2) at epsilon_sigma/2: a replaced row changes
    one column of at most two classes' Z, so the k releases compose to
    epsilon_sigma. M = 2 x the release holds the size over n in its corner,
    the sum over n in its last column and the moment: with a = max(corner,
    p/n), weight = corner over the corners' sum, mean = sum/a and sigma =
    the repaired moment/a - mean mean^T."""
    p, n = Xp.shape
    class_values, counts = np.unique(labels, return_counts=True)
    if len(class_values) < 2:
        raise DataError("classification mode needs at least two label values")
    corners, means, sigmas = [], [], []
    for value, count in zip(class_values, counts):
        if count < p:
            raise DataError(f"class {float(value)} has {count} samples, fewer than p={p}: "
                            "covariance would be rank-deficient")
        # filled row by row: a copy of the class's columns to stack would be one more block
        Z = np.empty((p + 1, count))
        mask = labels == value
        for i in range(p):
            np.compress(mask, Xp[i], out=Z[i])
        Z[p] = 1.0
        Z *= np.sqrt(0.5)
        M = 2.0 * dp_covariance(Z, n, epsilon_sigma / 2.0, rng_cov)
        a = max(M[p, p], p / n)
        m = M[:p, p] / a
        corners.append(M[p, p])
        means.append(m)
        sigmas.append(psd_repair(M[:p, :p] / a - np.outer(m, m)))
    # the repair keeps each corner, a diagonal entry, at or above 0
    weights = np.array(corners) / sum(corners)
    return dict(weights_dp=weights, means_dp=tuple(means), sigma_dp=tuple(sigmas),
                class_values=tuple(float(value) for value in class_values))


def _gaussian_draws(sigma: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """count draws from N(0, sigma) via eigendecomposition (sigma may be singular)."""
    w, V = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if not np.all(np.isfinite(w)):
        raise RuntimeError("covariance factorization failed after PSD repair")
    root = V * np.sqrt(np.clip(w, 0.0, None))
    return root @ rng.standard_normal((sigma.shape[0], count))


def _match_quantiles(values: np.ndarray, grid, out: np.ndarray | None = None) -> np.ndarray:
    """Each value's average rank, as a level, through the quantile grid;
    interpolated once per run of tied values, in ascending order, into
    `out` (a view with one slot per value) if given, else a new array."""
    grid = np.asarray(grid, dtype=np.float64)
    levels = np.linspace(0.0, 1.0, len(grid))
    order, ranks, sizes = tie_runs(values)
    ranks -= 0.5  # to a level, in place
    ranks /= len(values)
    for start in range(0, len(ranks), INTERP_BLOCK):  # through the grid, in place
        block = ranks[start:start + INTERP_BLOCK]
        block[:] = np.interp(block, levels, grid)
    return scatter_runs(order, ranks, sizes, out)


def _threshold_by_rate(values: np.ndarray, rate: float) -> np.ndarray:
    # the model holds 0 <= rate <= 1: rate 1 cuts at the minimum, rate 0 above every value
    cut = np.quantile(values, 1.0 - rate) if rate > 0.0 else np.inf
    return (values >= cut).astype(float)


def sample(model: RonGaussModel, n_out: int, seed) -> Dataset:
    """Draw synthetic rows and restore the original column formats.

    Each row draws a cell by weight (a one-cell model draws no assignment)
    and a point from its Gaussian, mapped back with x = W x' + mu. One-hot
    blocks invert by argmax; binary columns threshold at the synthetic
    quantile of the training positive rate, the protected one in
    classification within each drawn class so that the label keeps the
    fair parity; continuous coordinates, a regression label's included,
    map by rank through their stored training quantile grid.
    """
    if n_out < 1:
        raise DataError("n_out must be >= 1")
    rng = np.random.default_rng(seed)
    p = model.projection.p
    cells = len(model.weights_dp)

    assignments = rng.choice(cells, size=n_out, p=model.weights_dp) if cells > 1 else None
    projected = np.empty((len(model.means_dp[0]), n_out))
    for c in range(cells):
        idx = slice(None) if assignments is None else np.flatnonzero(assignments == c)
        count = n_out if assignments is None else len(idx)
        if count:
            draws = _gaussian_draws(model.sigma_dp[c], count, rng)
            draws += model.means_dp[c][:, None]
            projected[:, idx] = draws
    label = model.schema.label_index
    label_values = np.asarray(model.class_values)[assignments] if model.class_values else None
    del assignments
    if model.mode == MODE_REGRESSION:
        label_values = _match_quantiles(projected[p], model.postprocess[label].quantile_grid)
        projected = projected[:p]

    coords = model.projection.W @ projected
    del projected
    coords += model.mu_dp[:, None]

    rows = layout(model.schema, model.mode)[0]
    out = np.empty((n_out, model.schema.d))
    if label_values is not None:  # drawn above; the protected column reads it back from out
        out[:, label] = label_values
    del label_values
    for j, (col, post) in enumerate(zip(model.schema.columns, model.postprocess)):
        if j not in rows:  # the label
            continue
        if col.kind == CATEGORICAL:
            out[:, j] = np.argmax(coords[rows[j]], axis=0)
        elif col.kind == BINARY and j == model.schema.protected_index and model.class_values:
            for value in model.class_values:  # skipping a class that drew no rows
                drawn = out[:, label] == value
                if drawn.any():
                    out[drawn, j] = _threshold_by_rate(coords[rows[j].start, drawn], post.rate)
        elif col.kind == BINARY:
            out[:, j] = _threshold_by_rate(coords[rows[j].start], post.rate)
        else:
            _match_quantiles(coords[rows[j].start], post.quantile_grid, out[:, j])
    del coords  # freed before Dataset copies `out`
    return Dataset(model.schema, out)


@dataclass(frozen=True)
class GenerationResult:
    """Synthetic data plus the artifacts the audit reports."""

    dataset: Dataset
    codebook: binarize.CodeBook
    solution: maxent.MaxEntSolution
    model: RonGaussModel
    rates_before: tuple[float, float]
    rates_after: tuple[float, float]


def generate(dataset: Dataset, config: GenerationConfig | None = None) -> Dataset:
    """Full pipeline: fair re-distribution of codes, then private generation."""
    return generate_with_artifacts(dataset, config).dataset


def generate_with_artifacts(dataset: Dataset, config: GenerationConfig | None = None) -> GenerationResult:
    """`generate`, with its artifacts. The input is dropped once the fair
    codes are decoded, and `fit` takes the fair sample over and drops it
    once it has expanded it, so a caller that keeps no reference to the
    input (as the CLI) holds one n-row table at a time from `fit` on."""
    config = config or GenerationConfig()
    schema = dataset.schema
    n = dataset.n
    if schema.label_index is None:
        raise SchemaError("the fair stage needs a label column; use fit/sample directly for label-free data")
    resolve(schema, config)

    seq = np.random.SeedSequence(config.seed)
    seed_codes, seed_decode, seed_fit, seed_sample = (int(s.generate_state(1)[0]) for s in seq.spawn(4))

    try:
        codebook = binarize.build_codebook(dataset, config.bins)[1]
    except Exception as exc:
        raise StageError("binarize", exc) from exc

    # the fair stage reads the code histogram alone, samples one over the
    # same keys, and equalizes the label's first bit: the label if binary,
    # its first level if categorical, y >= its first threshold if continuous
    keys, counts = codebook.keys, codebook.counts
    protected_bit = codebook.bits(schema.protected_index)[0]
    label_bit = codebook.bits(schema.label_index)[0]

    try:
        prior = maxent.empirical_prior(keys, counts)
        constraints = maxent.fair_marginals(keys, counts, protected_bit, label_bit, config.rate)
        solution = maxent.solve_maxent(prior, constraints)
    except Exception as exc:
        raise StageError("fair redistribution", exc) from exc
    rates_before = group_rates(keys[:, label_bit], keys[:, protected_bit], counts)

    try:
        fair_counts = maxent.sample_codes(solution.distribution, n, seed_codes)
        rates_after = group_rates(keys[:, label_bit], keys[:, protected_bit], fair_counts)
        drawn = fair_counts > 0
        rows = binarize.decode_codes(keys[drawn], fair_counts[drawn], codebook, dataset.values, seed_decode)
        # the input goes before Dataset copies the rows: two tables alive, not three
        del dataset, fair_counts
        fair = [Dataset(schema, rows)]
        del rows
    except Exception as exc:
        raise StageError("code inversion", exc) from exc

    try:
        # pop hands the fair table over: fit holds the only reference and frees it
        model = fit(fair.pop(), replace(config, seed=seed_fit))
    except Exception as exc:
        raise StageError("projection fit", exc) from exc

    n_out = config.n_out if config.n_out is not None else n
    try:
        synth = sample(model, n_out, seed_sample)
    except Exception as exc:
        raise StageError("gaussian sampling", exc) from exc

    return GenerationResult(
        dataset=synth,
        codebook=codebook,
        solution=solution,
        model=model,
        rates_before=rates_before,
        rates_after=rates_after,
    )
