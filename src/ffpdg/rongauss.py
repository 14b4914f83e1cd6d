"""Gaussian generative stage behind a random orthonormal projection.

Pipeline, in order: one-hot + white-noise expansion of categorical
columns and per-sample unit normalization; private centering with a
Laplace-noised mean; re-normalization; projection through the first p
columns of the orthogonal factor of a random Gaussian matrix; private
covariance fitting in the projected space; sampling; back-projection and
re-discretization into the original column formats.

Three fitting modes: a single zero-mean Gaussian (unsupervised), one
Gaussian per label class with noised class weights (classification), and
a joint feature+target Gaussian whose conditional mean reproduces the
least-squares regression as samples grow (regression).
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
    interp_quantiles,
    scatter_runs,
    tie_runs,
)
from .dp import (PrivacyBudget, covariance_noise_scale, dp_covariance, dp_mean,
                 laplace_sample, mean_noise_scale, psd_repair)
from .errors import ConvergenceError, DataError, FeasibilityError, SchemaError, StageError

MODE_UNSUPERVISED = "unsupervised"
MODE_CLASSIFICATION = "classification"
MODE_REGRESSION = "regression"
MODE_AUTO = "auto"

_MODES = (MODE_UNSUPERVISED, MODE_CLASSIFICATION, MODE_REGRESSION)

# Default number of training quantiles stored per continuous column for
# post-processing; the levels are evenly spaced on [0, 1].
DEFAULT_QUANTILE_POINTS = 257

# Std of the Gaussian noise added to every one-hot entry of a categorical
# column before normalization.
CATEGORICAL_NOISE_SIGMA = 0.01


@dataclass(frozen=True)
class RonProjection:
    """d x p matrix with orthonormal columns."""

    W: np.ndarray
    d: int
    p: int

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        if W.shape != (self.d, self.p):
            raise DataError(f"W has shape {W.shape}, expected ({self.d}, {self.p})")
        object.__setattr__(self, "W", W)

    def orthonormality_defect(self) -> float:
        return float(np.abs(self.W.T @ self.W - np.eye(self.p)).max())


@dataclass(frozen=True)
class ColumnCoding:
    """Coordinates one source column occupies in the expanded matrix.

    Continuous columns record the training min/max used to rescale the
    coordinate into [0, 1]; other kinds leave lo = hi = 0.
    """

    name: str
    kind: str
    coords: tuple[int, ...]
    levels: tuple[str, ...] = ()
    lo: float = 0.0
    hi: float = 0.0


@dataclass(frozen=True)
class ColumnPost:
    """Training-data calibration used to restore a column's format.

    Binary columns carry the training positive rate (the synthetic column
    is thresholded at its own quantile of 1 - rate). Continuous columns
    carry training values at the fixed quantile grid; sampling maps
    synthetic ranks through this grid, which keeps every restored value
    inside the training min/max. A continuous label (regression mode) is
    modeled in raw units and only clipped to the grid endpoints.
    """

    name: str
    kind: str
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
    quantile_points: int = DEFAULT_QUANTILE_POINTS

    def __post_init__(self):
        if self.mode not in _MODES + (MODE_AUTO,):
            raise DataError(f"unknown mode {self.mode!r}")
        if self.p is not None and self.p < 1:
            raise DataError("p must be >= 1")
        if self.n_out is not None and self.n_out < 1:
            raise DataError("n_out must be >= 1")
        if self.quantile_points < 2:
            raise DataError("quantile_points must be >= 2")


@dataclass(frozen=True)
class RonGaussModel:
    mode: str
    schema: Schema
    encoding: tuple[ColumnCoding, ...]
    d_eff: int
    projection: RonProjection
    mu_dp: np.ndarray
    sigma_dp: tuple[np.ndarray, ...]   # one entry per class; single entry otherwise
    postprocess: tuple[ColumnPost, ...]
    label_name: str | None = None
    class_values: tuple[float, ...] = ()
    class_weights_dp: np.ndarray | None = None
    class_means_dp: tuple[np.ndarray, ...] = ()


def resolve_mode(schema: Schema, mode: str) -> str:
    if mode != MODE_AUTO:
        return mode
    idx = schema.label_index
    if idx is None:
        return MODE_UNSUPERVISED
    return MODE_CLASSIFICATION if schema.columns[idx].kind == BINARY else MODE_REGRESSION


def pre_normalize(dataset: Dataset, categorical_noise_sigma: float, seed,
                  columns=None) -> tuple[np.ndarray, tuple[ColumnCoding, ...]]:
    """Expand columns into a d_eff x n matrix of unit-norm sample vectors.

    Categorical columns become one-hot blocks with zero-mean Gaussian
    noise of the given std added to every one-hot entry; binary columns
    map to one coordinate unchanged; continuous columns map to one
    coordinate min-max scaled into [0, 1] so that no single column
    dominates the sample norm. A constant anchor coordinate 1 is
    appended to every sample (an all-zero row would otherwise have no
    direction), then every sample (column of the result) is scaled to
    unit Euclidean norm.
    """
    rng = np.random.default_rng(seed)
    if columns is None:
        columns = range(dataset.schema.d)
    specs = [(j, dataset.schema.columns[j]) for j in columns]
    d_eff = sum(len(col.levels) if col.kind == CATEGORICAL else 1 for _, col in specs) + 1
    X = np.empty((d_eff, dataset.n))
    coding = []
    offset = 0
    for j, col in specs:
        v = dataset.values[:, j]
        if col.kind == CATEGORICAL:
            k = len(col.levels)
            block = X[offset:offset + k]
            block[:] = 0.0
            block[v.astype(int), np.arange(dataset.n)] = 1.0
            if categorical_noise_sigma > 0:
                block += rng.normal(0.0, categorical_noise_sigma, size=block.shape)
            coords = tuple(range(offset, offset + k))
            coding.append(ColumnCoding(col.name, CATEGORICAL, coords, levels=col.levels))
            offset += k
        elif col.kind == CONTINUOUS:
            lo, hi = float(v.min()), float(v.max())
            X[offset] = (v - lo) / (hi - lo) if hi > lo else 0.5
            coding.append(ColumnCoding(col.name, CONTINUOUS, (offset,), lo=lo, hi=hi))
            offset += 1
        else:
            X[offset] = v
            coding.append(ColumnCoding(col.name, col.kind, (offset,)))
            offset += 1
    X[offset] = 1.0
    X /= np.linalg.norm(X, axis=0)
    return X, tuple(coding)


def center_and_renormalize(X: np.ndarray, budget: PrivacyBudget, seed) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the DP mean, then rescale each sample back to unit norm."""
    rng = np.random.default_rng(seed)
    mu = dp_mean(X, budget.epsilon_mu, rng)
    Xbar = X - mu[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        norms = np.linalg.norm(Xbar, axis=0)
    if not np.all(np.isfinite(norms)):
        raise DataError(f"epsilon_mu={budget.epsilon_mu:g} is too small: the mean's noise "
                        "is so large that the centred samples' norms overflow")
    zero = norms == 0.0
    if np.any(zero):
        warnings.warn(f"{int(zero.sum())} samples equal the DP mean; perturbing by 1e-12")
        Xbar[:, zero] += 1e-12
        norms = np.linalg.norm(Xbar, axis=0)
    Xbar /= norms
    return Xbar, mu


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
        return RonProjection(W=Q[:, :p], d=d, p=p)


def _column_post(col: ColumnSpec, values: np.ndarray, points: int) -> ColumnPost:
    if col.kind == BINARY:
        return ColumnPost(col.name, BINARY, rate=float(values.mean()))
    if col.kind == CONTINUOUS:
        grid = interp_quantiles(np.sort(values), np.linspace(0.0, 1.0, points))
        return ColumnPost(col.name, CONTINUOUS, quantile_grid=tuple(grid))
    return ColumnPost(col.name, CATEGORICAL)


def fit(dataset: Dataset, config: GenerationConfig) -> RonGaussModel:
    """Fit the projected DP Gaussian(s) on a dataset.

    Unsupervised mode models every column; classification and regression
    modes model every column except the label. The projection and the DP
    mean are shared across classes; each class gets its own DP mean and
    covariance in projected space at a 1/k share of the covariance budget.
    """
    mode = resolve_mode(dataset.schema, config.mode)
    schema = dataset.schema
    label_idx = schema.label_index
    if mode == MODE_CLASSIFICATION:
        if label_idx is None or schema.columns[label_idx].kind not in (BINARY, CATEGORICAL):
            raise SchemaError("classification mode needs a binary or categorical label column")
    if mode == MODE_REGRESSION:
        if label_idx is None or schema.columns[label_idx].kind != CONTINUOUS:
            raise SchemaError("regression mode needs a continuous label column")

    modeled = [j for j in range(schema.d) if mode == MODE_UNSUPERVISED or j != label_idx]
    seq = np.random.SeedSequence(config.seed)
    rng_noise, rng_mu, rng_ron, rng_cov, rng_weights = (
        np.random.default_rng(s) for s in seq.spawn(5)
    )

    X, coding = pre_normalize(dataset, CATEGORICAL_NOISE_SIGMA, rng_noise, columns=modeled)
    d_eff = X.shape[0]
    p = config.p if config.p is not None else min(d_eff - 1, 8)
    if not 1 <= p < d_eff:
        raise DataError(f"projected dimension p={p} must satisfy 1 <= p < d_eff={d_eff}")

    Xbar, mu = center_and_renormalize(X, config.budget, rng_mu)
    del X
    projection = make_ron(d_eff, p, rng_ron)
    Xp = projection.W.T @ Xbar
    del Xbar

    posts = tuple(_column_post(schema.columns[j], dataset.values[:, j], config.quantile_points)
                  for j in range(schema.d))
    label_name = schema.columns[label_idx].name if label_idx is not None else None

    if mode == MODE_CLASSIFICATION:
        labels = dataset.values[:, label_idx]
        values, counts = np.unique(labels, return_counts=True)
        class_values = tuple(float(value) for value in values)
        k = len(class_values)
        if k < 2:
            raise DataError("classification mode needs at least two label values")
        # per-class budget share eps_sigma/k, split evenly between the class
        # mean and second moment: both queries share the 2*sqrt(p)/n bound,
        # and a noisy mean shifts every downstream threshold directly
        eps_class = config.budget.epsilon_sigma / k
        mu_frac = 0.5
        sigmas = []
        means = []
        for value in class_values:
            idx = np.flatnonzero(labels == value)
            if len(idx) < p:
                raise DataError(
                    f"class {value} has {len(idx)} samples, fewer than p={p}: covariance would be rank-deficient"
                )
            block = Xp[:, idx]
            # projected samples keep norm <= 1 (contraction), so the d-space
            # mean sensitivity bound 2*sqrt(p)/n carries over
            m = block.mean(axis=1) + laplace_sample(
                mean_noise_scale(p, len(idx), eps_class * mu_frac), rng_cov, size=p
            )
            if not np.all(np.isfinite(m)):
                raise DataError(_class_noise_overflow(config.budget.epsilon_sigma, value, "mean"))
            second = dp_covariance(block, eps_class * (1.0 - mu_frac), rng_cov)
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                    sigma = psd_repair(second - np.outer(m, m))
            except np.linalg.LinAlgError:  # eigh of a matrix that overflowed
                sigma = None
            if sigma is None or not np.all(np.isfinite(sigma)):
                raise DataError(_class_noise_overflow(config.budget.epsilon_sigma, value, "covariance"))
            means.append(m)
            sigmas.append(sigma)
        weights = counts / dataset.n + laplace_sample(
            2.0 / (dataset.n * config.budget.epsilon_mu), rng_weights, size=k
        )
        weights = np.clip(weights, 0.0, None)
        if weights.sum() == 0:
            weights = np.full(k, 1.0 / k)
        weights = weights / weights.sum()
        return RonGaussModel(
            mode=mode, schema=schema, encoding=coding, d_eff=d_eff,
            projection=projection, mu_dp=mu, sigma_dp=tuple(sigmas),
            postprocess=posts, label_name=label_name,
            class_values=class_values, class_weights_dp=weights,
            class_means_dp=tuple(means),
        )

    if mode == MODE_REGRESSION:
        y = dataset.values[:, label_idx]
        n = dataset.n
        scale = covariance_noise_scale(p, n, config.budget.epsilon_sigma)
        joint = np.zeros((p + 1, p + 1))
        joint[:p, :p] = (Xp @ Xp.T) / n + np.diag(
            np.clip(laplace_sample(scale, rng_cov, size=p), 0.0, None)
        )
        joint[:p, p] = joint[p, :p] = (Xp @ y) / n
        joint[p, p] = (y @ y) / n + max(0.0, float(laplace_sample(scale, rng_cov)))
        return RonGaussModel(
            mode=mode, schema=schema, encoding=coding, d_eff=d_eff,
            projection=projection, mu_dp=mu, sigma_dp=(psd_repair(joint),),
            postprocess=posts, label_name=label_name,
        )

    sigma = dp_covariance(Xp, config.budget.epsilon_sigma, rng_cov)
    return RonGaussModel(
        mode=mode, schema=schema, encoding=coding, d_eff=d_eff,
        projection=projection, mu_dp=mu, sigma_dp=(sigma,),
        postprocess=posts, label_name=label_name,
    )


def _class_noise_overflow(epsilon_sigma: float, value: float, moment: str) -> str:
    return (f"epsilon_sigma={epsilon_sigma:g} is too small: the noise on class {value:g}'s "
            f"{moment} is so large that it overflows")


def _gaussian_draws(sigma: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """count draws from N(0, sigma) via eigendecomposition (sigma may be singular)."""
    w, V = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if not np.all(np.isfinite(w)):
        raise RuntimeError("covariance factorization failed after PSD repair")
    root = V * np.sqrt(np.clip(w, 0.0, None))
    return root @ rng.standard_normal((sigma.shape[0], count))


def _match_quantiles(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Each value's average rank, as a level, through the quantile grid;
    interpolated once per run of tied values, in ascending order."""
    levels = np.linspace(0.0, 1.0, len(grid))
    order, ranks, sizes = tie_runs(values)
    ranks -= 0.5  # to a level, in place
    ranks /= len(values)
    run_values = np.interp(ranks, levels, grid)
    del ranks
    return scatter_runs(order, run_values, sizes)


def _threshold_by_rate(values: np.ndarray, rate: float) -> np.ndarray:
    if rate <= 0.0:
        return np.zeros(len(values))
    if rate >= 1.0:
        return np.ones(len(values))
    cut = np.quantile(values, 1.0 - rate)
    return (values >= cut).astype(float)


def sample(model: RonGaussModel, n_out: int, seed) -> Dataset:
    """Draw synthetic rows and restore the original column formats.

    Projected draws are mapped back with x = W x' + mu. One-hot blocks
    invert by argmax; binary columns threshold at the synthetic quantile
    of the training positive rate; continuous columns map through the
    stored training quantile grid. A regression label is sampled in raw
    units from the joint and clipped to its training range.
    """
    if n_out < 1:
        raise DataError("n_out must be >= 1")
    rng = np.random.default_rng(seed)
    p = model.projection.p

    label_values = None
    if model.mode == MODE_CLASSIFICATION:
        assignments = rng.choice(len(model.class_values), size=n_out, p=model.class_weights_dp)
        projected = np.empty((p, n_out))
        for c in range(len(model.class_values)):
            idx = np.flatnonzero(assignments == c)
            if len(idx):
                draws = _gaussian_draws(model.sigma_dp[c], len(idx), rng)
                draws += model.class_means_dp[c][:, None]
                projected[:, idx] = draws
        label_values = np.asarray(model.class_values)[assignments]
        del assignments
    elif model.mode == MODE_REGRESSION:
        joint = _gaussian_draws(model.sigma_dp[0], n_out, rng)
        projected = joint[:p]
        label_values = joint[p]
    else:
        projected = _gaussian_draws(model.sigma_dp[0], n_out, rng)

    coords = model.projection.W @ projected
    del projected
    coords += model.mu_dp[:, None]

    posts = {post.name: post for post in model.postprocess}
    out = np.empty((n_out, model.schema.d))
    coding = {c.name: c for c in model.encoding}
    for j, col in enumerate(model.schema.columns):
        if model.label_name is not None and col.name == model.label_name and model.mode != MODE_UNSUPERVISED:
            if model.mode == MODE_CLASSIFICATION:
                out[:, j] = label_values
            else:
                grid = np.asarray(posts[col.name].quantile_grid)
                out[:, j] = np.clip(label_values, grid[0], grid[-1])
            continue
        code = coding[col.name]
        block = coords[list(code.coords)]
        if col.kind == CATEGORICAL:
            out[:, j] = np.argmax(block, axis=0)
        elif col.kind == BINARY:
            out[:, j] = _threshold_by_rate(block[0], posts[col.name].rate)
        else:
            grid = np.asarray(posts[col.name].quantile_grid)
            raw = block[0] * (code.hi - code.lo) + code.lo
            out[:, j] = _match_quantiles(raw, grid)
    del coords, label_values  # freed before Dataset copies `out`
    return Dataset(model.schema, out)


@dataclass(frozen=True)
class GenerationResult:
    """Synthetic data plus every intermediate artifact, for audit."""

    dataset: Dataset
    fair_dataset: Dataset
    codebook: binarize.CodeBook
    solution: maxent.MaxEntSolution
    model: RonGaussModel
    rates_before: tuple[float, float]
    rates_after: tuple[float, float]


def generate(dataset: Dataset, config: GenerationConfig | None = None) -> Dataset:
    """Full pipeline: fair re-distribution of codes, then private generation."""
    return generate_with_artifacts(dataset, config).dataset


def generate_with_artifacts(dataset: Dataset, config: GenerationConfig | None = None) -> GenerationResult:
    config = config or GenerationConfig()
    schema = dataset.schema
    if schema.label_index is None:
        raise SchemaError("the fair stage needs a label column; use fit/sample directly for label-free data")

    seq = np.random.SeedSequence(config.seed)
    seed_codes, seed_decode, seed_fit, seed_sample = (int(s.generate_state(1)[0]) for s in seq.spawn(4))

    try:
        binary, codebook = binarize.build_codebook(dataset, config.bins)
    except Exception as exc:
        raise StageError("binarize", exc) from exc

    protected_bit = codebook.bit_for_column(schema.protected_index)
    label_bit = codebook.bit_layout[schema.label_index].bit_indices[0]

    try:
        prior = maxent.empirical_prior(codebook.keys, codebook.counts)
        constraints = maxent.fair_marginals(binary, protected_bit, label_bit, config.rate)
        solution = maxent.solve_maxent(prior, constraints)
    except (FeasibilityError, ConvergenceError, DataError) as exc:
        raise StageError("fair redistribution", exc) from exc
    rates_before = maxent.group_rates(binary, protected_bit, label_bit)
    del binary

    try:
        codes = maxent.sample_codes(solution.distribution, dataset.n, seed_codes)
        # Dataset keeps its own copy, so the decoded rows are not held here
        fair_dataset = Dataset(schema, binarize.decode_codes(codes, codebook, seed_decode))
        del codes
    except Exception as exc:
        raise StageError("code inversion", exc) from exc

    try:
        model = fit(fair_dataset, replace(config, seed=seed_fit))
    except Exception as exc:
        raise StageError("projection fit", exc) from exc

    n_out = config.n_out if config.n_out is not None else dataset.n
    try:
        synth = sample(model, n_out, seed_sample)
    except Exception as exc:
        raise StageError("gaussian sampling", exc) from exc

    fair_c = fair_dataset.values[:, schema.protected_index]
    fair_y = fair_dataset.values[:, schema.label_index]
    rates_after = (
        float(fair_y[fair_c == 0].mean()) if np.any(fair_c == 0) else float("nan"),
        float(fair_y[fair_c == 1].mean()) if np.any(fair_c == 1) else float("nan"),
    )
    return GenerationResult(
        dataset=synth,
        fair_dataset=fair_dataset,
        codebook=codebook,
        solution=solution,
        model=model,
        rates_before=rates_before,
        rates_after=rates_after,
    )
