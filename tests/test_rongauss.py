"""Projection pipeline: normalization, centering, RON, fit/sample, generate."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import binary_group_dataset, mixed_dataset
from oracles import run_array_match_quantiles
from ffpdg import dp, rongauss
from ffpdg.data import (
    BINARY,
    CATEGORICAL,
    CONTINUOUS,
    ColumnSpec,
    Dataset,
    ROLE_LABEL,
    ROLE_PROTECTED,
    Schema,
    average_ranks,
    interp_quantiles,
    load_csv,
    load_schema,
)
from ffpdg.dp import PrivacyBudget, laplace_sample
from ffpdg.errors import DataError, SchemaError, StageError
from ffpdg.rongauss import (
    QUANTILE_POINTS,
    _column_post,
    _match_quantiles,
    GenerationConfig,
    center_and_renormalize,
    fit,
    generate,
    generate_with_artifacts,
    layout,
    make_ron,
    pre_normalize,
    resolve_mode,
    sample,
)

LOOSE = PrivacyBudget.from_total(1e8)  # noise small enough to see the data
DATA = Path(__file__).resolve().parents[1] / "data"


def record_fair_samples(monkeypatch):
    """Patch `rongauss.fit` to record each dataset it fits; returns the record."""
    seen = []

    def recording_fit(dataset, config):
        seen.append(dataset)
        return fit(dataset, config)

    monkeypatch.setattr(rongauss, "fit", recording_fit)
    return seen


def record_laplace_draws(monkeypatch):
    """Patch `dp.laplace_sample`, the one noise source of every release, to
    record the scale and the number of draws of each call; returns the record."""
    calls = []

    def recording_laplace(b, rng, size=None):
        calls.append((float(b), int(np.prod(size)) if size is not None else 1))
        return laplace_sample(b, rng, size)

    monkeypatch.setattr(dp, "laplace_sample", recording_laplace)
    return calls


def regression_dataset(n, seed, noise=0.05):
    r = np.random.default_rng(seed)
    x = r.random((n, 3))
    c = (r.random(n) < 0.5).astype(float)
    y = x @ np.array([2.0, -1.0, 0.5]) + r.normal(0.0, noise, n)
    schema = Schema((
        ColumnSpec("x0", CONTINUOUS), ColumnSpec("x1", CONTINUOUS),
        ColumnSpec("x2", CONTINUOUS),
        ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
        ColumnSpec("y", CONTINUOUS, role=ROLE_LABEL),
    ))
    return Dataset(schema, np.column_stack([x, c, y]))


def test_make_ron_orthonormal_and_seeded():
    proj = make_ron(12, 5, seed=3)
    assert proj.orthonormality_defect() <= 1e-12
    assert np.array_equal(proj.W, make_ron(12, 5, seed=3).W)
    assert not np.array_equal(proj.W, make_ron(12, 5, seed=4).W)
    with pytest.raises(DataError):
        make_ron(5, 5, seed=0)
    with pytest.raises(DataError):
        make_ron(5, 0, seed=0)


def test_projection_never_expands_distances():
    r = np.random.default_rng(1)
    W = make_ron(20, 7, seed=2).W
    X = r.normal(size=(20, 500))
    Y = r.normal(size=(20, 500))
    assert np.all(
        np.linalg.norm(W.T @ (X - Y), axis=0) <= np.linalg.norm(X - Y, axis=0) + 1e-12
    )


def _continuous_label(ds):
    """ds with its binary label declared continuous, for regression mode."""
    *features, label = ds.schema.columns
    return Dataset(Schema((*features, ColumnSpec(label.name, CONTINUOUS, role=ROLE_LABEL))), ds.values)


def _posts(ds):
    """The per-column calibration `fit` publishes, which `pre_normalize` scales by."""
    return tuple(_column_post(col, ds.values[:, j]) for j, col in enumerate(ds.schema.columns))


def test_pre_normalize_layout_and_unit_norms():
    mixed = mixed_dataset(100, seed=5)
    # 1 continuous + 3 one-hot + 2 binary + anchor, and the label row in
    # unsupervised mode only
    for mode, d_eff in (("unsupervised", 7), ("classification", 6), ("regression", 6)):
        ds = _continuous_label(mixed) if mode == "regression" else mixed
        rows, d = layout(ds.schema, mode)
        X = pre_normalize(ds, _posts(ds), seed=0, mode=mode)
        assert d == d_eff and X.shape == (d_eff, 100)
        assert np.allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-12)
        # one-hot noise of std 0.01: the argmax row recovers the level
        assert np.array_equal(np.argmax(X[rows[1]], axis=0), ds.values[:, 1].astype(int))
        # min-max scaling keeps the continuous row's order
        height = ds.values[:, 0]
        assert np.argmin(X[rows[0]][0] / X[-1]) == np.argmin(height)
        assert np.argmax(X[rows[0]][0] / X[-1]) == np.argmax(height)
        # anchor row is the last row and positive everywhere
        assert np.all(X[-1] > 0)


def test_pre_normalize_column_subset():
    # the mode picks the modelled columns: the label only in unsupervised
    # mode; a categorical column takes a row per level, the anchor the last
    ds = mixed_dataset(50, seed=6)
    features = {0: slice(0, 1), 1: slice(1, 4), 2: slice(4, 5)}
    assert layout(ds.schema, "unsupervised") == ({**features, 3: slice(5, 6)}, 7)
    assert layout(ds.schema, "classification") == (features, 6)
    assert layout(_continuous_label(ds).schema, "regression") == (features, 6)
    # a mode whose label the schema lacks has no layout
    with pytest.raises(SchemaError, match="regression mode needs a continuous label"):
        layout(ds.schema, "regression")
    with pytest.raises(SchemaError, match="classification mode needs a binary or categorical label"):
        layout(_continuous_label(ds).schema, "classification")
    first = Schema((ColumnSpec("y", CATEGORICAL, role=ROLE_LABEL, levels=("a", "b", "c")),
                    ColumnSpec("c", BINARY, role=ROLE_PROTECTED)))
    assert layout(first, "unsupervised") == ({0: slice(0, 3), 1: slice(3, 4)}, 5)
    assert layout(first, "classification") == ({1: slice(0, 1)}, 2)
    ds = Dataset(first, np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert pre_normalize(ds, _posts(ds), seed=0, mode="classification").shape == (2, 2)


def test_quantile_grid_ends_at_the_exact_min_and_max():
    # sampling rescales a continuous coordinate by the grid's endpoints, so
    # they must be the training min and max exactly
    r = np.random.default_rng(QUANTILE_POINTS)
    columns = [np.array([3.25]), np.array([-1e300]), np.full(5, 7.0), np.array([2.0, -1.0, 2.0, -1.0]),
               np.array([1e-300, -1e300, 1e300, 5e-324, 0.0, -0.0]), np.array([-5e-324, 1e-300, -1e-300])]
    for n in (1, 2, 3, 10, 100, 1000):
        magnitudes = 10.0 ** r.uniform(-300, 300, size=n) * r.choice([-1.0, 1.0], size=n)
        columns += [magnitudes, r.choice(magnitudes[:3], size=n), r.normal(size=n)]
    for values in columns:
        grid = _column_post(ColumnSpec("x", CONTINUOUS), values).quantile_grid
        assert len(grid) == QUANTILE_POINTS
        assert grid[0] == values.min() and grid[-1] == values.max()


def test_center_and_renormalize_recovers_mean_at_loose_budget():
    ds = mixed_dataset(300, seed=7)
    X = pre_normalize(ds, _posts(ds), seed=1, mode="unsupervised")
    Xbar, mu = center_and_renormalize(X.copy(), LOOSE, seed=2)  # it centres its argument in place
    assert np.abs(mu - X.mean(axis=1)).max() < 1e-6
    assert np.allclose(np.linalg.norm(Xbar, axis=0), 1.0, atol=1e-12)


def test_resolve_mode_auto():
    assert resolve_mode(binary_group_dataset(10, 0.5, 0.5, 0).schema, "auto") == "classification"
    assert resolve_mode(regression_dataset(10, 0).schema, "auto") == "regression"
    no_label = Schema((
        ColumnSpec("a", BINARY, role=ROLE_PROTECTED), ColumnSpec("b", BINARY),
    ))
    assert resolve_mode(no_label, "auto") == "unsupervised"
    assert resolve_mode(no_label, "classification") == "classification"
    # auto picks a mode the layout accepts for every label kind
    for kind, mode in ((BINARY, "classification"), (CATEGORICAL, "classification"),
                       (CONTINUOUS, "regression")):
        levels = ("a", "b", "c") if kind == CATEGORICAL else ()
        schema = Schema((ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
                         ColumnSpec("y", kind, role=ROLE_LABEL, levels=levels)))
        assert resolve_mode(schema, "auto") == mode
        layout(schema, mode)


def test_fit_mode_type_mismatch_errors():
    with pytest.raises(SchemaError, match="regression mode"):
        fit(binary_group_dataset(50, 0.3, 0.7, 1),
            GenerationConfig(budget=LOOSE, mode="regression"))
    with pytest.raises(SchemaError, match="classification mode"):
        fit(regression_dataset(50, 1), GenerationConfig(budget=LOOSE, mode="classification"))


def test_a_class_smaller_than_p_releases_a_cell():
    # a class's cell is a noised moment over the public n, so one row is enough
    ds = binary_group_dataset(60, 0.02, 0.02, seed=2, n_features=6)
    values = ds.values.copy()
    values[:, -1] = 0.0
    values[0, -1] = 1.0  # exactly one positive row, with p=4
    model = fit(Dataset(ds.schema, values), GenerationConfig(budget=LOOSE, p=4))
    assert model.class_values == (0.0, 1.0)
    assert abs(model.weights_dp[1] - 1 / 60) < 1e-4
    assert sample(model, 100, seed=1).n == 100


def test_fit_sample_classification_round_trip():
    ds = binary_group_dataset(2000, 0.25, 0.65, seed=3, n_features=4)
    model = fit(ds, GenerationConfig(budget=LOOSE, seed=11))
    assert model.mode == "classification"
    assert model.class_values == (0.0, 1.0)
    # Python floats, as read_audit rebuilds them, not numpy scalars
    assert all(type(v) is float for v in model.class_values)
    # loose budget: noised class weights track the empirical proportions
    want = np.array([np.mean(ds.column("y") == v) for v in model.class_values])
    assert np.abs(np.asarray(model.weights_dp) - want).max() < 1e-4
    syn = sample(model, 1500, seed=4)
    assert syn.schema == ds.schema and syn.n == 1500
    assert set(np.unique(syn.column("y"))) <= {0.0, 1.0}


def test_one_cell_modes_release_weight_one_and_mean_zero_but_the_label():
    for mode, ds in (("unsupervised", mixed_dataset(300, 19)), ("regression", regression_dataset(300, 19))):
        model = fit(ds, GenerationConfig(budget=LOOSE, seed=5, mode=mode))
        assert model.weights_dp.tolist() == [1.0] and not model.means_dp[0][:model.projection.p].any()
        with pytest.raises(DataError, match=f"{mode} model has 1 class values"):
            replace(model, class_values=(0.0,))


def test_sample_deterministic_in_seed():
    ds = binary_group_dataset(500, 0.3, 0.6, seed=5, n_features=2)
    model = fit(ds, GenerationConfig(budget=LOOSE, seed=1))
    a = sample(model, 400, seed=9)
    b = sample(model, 400, seed=9)
    c = sample(model, 400, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_fitted_covariance_matches_projected_second_moment():
    # with negligible DP noise the fitted unsupervised covariance equals the
    # projected second moment of the centered, renormalized data; the
    # replay draws the same categorical noise from the fit's own stream
    ds = mixed_dataset(400, seed=8)
    no_label = Schema(tuple(
        ColumnSpec(c.name, c.kind, role="feature" if c.role == "label" else c.role,
                   levels=c.levels)
        for c in ds.schema.columns
    ))
    ds = Dataset(no_label, ds.values)
    config = GenerationConfig(budget=LOOSE, seed=21, p=4)
    model = fit(ds, config)

    seq = np.random.SeedSequence(21)
    rng_noise, rng_mu, rng_ron, _ = (np.random.default_rng(s) for s in seq.spawn(4))
    X = pre_normalize(ds, model.postprocess, rng_noise, "unsupervised")
    Xbar, _ = center_and_renormalize(X, config.budget, rng_mu)
    W = make_ron(X.shape[0], 4, rng_ron).W
    assert np.array_equal(W, model.projection.W)
    want = (W.T @ Xbar) @ (W.T @ Xbar).T / ds.n
    assert np.abs(model.sigma_dp[0] - want).max() < 1e-6


def test_binary_rates_survive_restoration():
    ds = binary_group_dataset(3000, 0.3, 0.6, seed=9, n_features=3)
    model = fit(ds, GenerationConfig(budget=LOOSE, seed=2))
    syn = sample(model, 3000, seed=3)
    for name in ("f0", "f1", "f2", "c"):
        assert abs(syn.column(name).mean() - ds.column(name).mean()) < 0.05


@pytest.mark.parametrize("constant", [0.0, 1.0])
def test_a_binary_feature_constant_in_training_comes_out_constant(constant):
    # a training rate of 0 or 1 sets every synthetic cell, whatever the draw
    ds = binary_group_dataset(1000, 0.3, 0.6, seed=12, n_features=2)
    values = ds.values.copy()
    values[:, 0] = constant
    model = fit(Dataset(ds.schema, values), GenerationConfig(budget=LOOSE, seed=3))
    assert model.postprocess[0].rate == constant
    syn = sample(model, 800, seed=4)
    assert np.all(syn.column("f0") == constant)
    assert 0.0 < syn.column("f1").mean() < 1.0


def test_continuous_restoration_stays_in_training_range():
    ds = regression_dataset(800, seed=10)
    model = fit(ds, GenerationConfig(budget=LOOSE, seed=5, mode="regression"))
    syn = sample(model, 600, seed=6)
    for name in ("x0", "x1", "x2", "y"):
        lo, hi = ds.column(name).min(), ds.column(name).max()
        assert syn.column(name).min() >= lo - 1e-9
        assert syn.column(name).max() <= hi + 1e-9


def test_continuous_marginals_match_at_loose_budget():
    ds = regression_dataset(2000, seed=11)
    model = fit(ds, GenerationConfig(budget=LOOSE, seed=7, mode="regression"))
    syn = sample(model, 2000, seed=8)
    for name in ("x0", "x1"):
        a = np.sort(ds.column(name))
        b = np.sort(syn.column(name))
        grid = np.linspace(0.05, 0.95, 19)
        qa = np.quantile(a, grid)
        qb = np.quantile(b, grid)
        assert np.abs(qa - qb).max() < 0.1  # quantile-matched restoration


def test_generate_reaches_parity_and_keeps_schema(monkeypatch):
    fair = record_fair_samples(monkeypatch)
    ds = binary_group_dataset(3000, 0.2, 0.6, seed=12, n_features=4)
    result = generate_with_artifacts(ds, config=GenerationConfig(
        budget=PrivacyBudget.from_total(1.0), seed=6))
    r0, r1 = result.rates_after
    assert abs(r0 - r1) <= 0.03  # fair stage output
    assert result.dataset.schema == ds.schema
    assert result.dataset.n == ds.n
    assert result.solution.converged
    assert [f.n for f in fair] == [ds.n]
    # synthetic rows are valid under the schema by construction, and the
    # group gap lands near parity (DP noise allows slack)
    y, c = result.dataset.column("y"), result.dataset.column("c")
    assert abs(y[c == 1].mean() - y[c == 0].mean()) <= 0.15


def test_generate_requires_label_and_checks_names():
    no_label = Schema((
        ColumnSpec("a", BINARY, role=ROLE_PROTECTED), ColumnSpec("b", BINARY),
    ))
    ds = Dataset(no_label, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SchemaError, match="label"):
        generate(ds)


def test_generate_stage_errors_are_tagged():
    ds = binary_group_dataset(40, 0.4, 0.6, seed=14)
    with pytest.raises(StageError) as err:
        generate(ds, config=GenerationConfig(budget=PrivacyBudget(1e-300, 1.0)))
    assert err.value.stage == "projection fit"  # the mean's noise overflows in the fit
    assert str(err.value).startswith("projection fit: epsilon_mu=1e-300 is too small")
    with pytest.raises(StageError) as err2:
        generate(ds, config=GenerationConfig(budget=LOOSE, bins=0))
    assert err2.value.stage == "binarize"


def test_generation_config_validation():
    with pytest.raises(DataError):
        GenerationConfig(mode="banana")
    with pytest.raises(DataError):
        GenerationConfig(p=0)
    with pytest.raises(DataError):
        GenerationConfig(n_out=0)


def test_generate_deterministic_per_seed():
    ds = binary_group_dataset(400, 0.3, 0.7, seed=15, n_features=2)
    config = GenerationConfig(budget=PrivacyBudget.from_total(1.0), seed=3)
    a = generate(ds, config=config)
    b = generate(ds, config=config)
    assert np.array_equal(a.values, b.values)
    c = generate(ds, config=GenerationConfig(budget=PrivacyBudget.from_total(1.0), seed=4))
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("n, ties", [(1, False), (2, True), (7, True), (500, False), (5000, True),
                                     (rongauss.INTERP_BLOCK + 7, False), (rongauss.INTERP_BLOCK + 7, True)])
def test_match_quantiles_equals_interpolating_every_rows_average_rank(n, ties):
    # one interpolation per tie run, in sorted order, gives every row's value byte for byte
    r = np.random.default_rng(n)
    values = r.integers(0, 9, size=n).astype(float) if ties else r.normal(size=n)
    grid = np.sort(r.normal(size=33))
    expected = np.interp((average_ranks(values) - 0.5) / n, np.linspace(0.0, 1.0, 33), grid)
    assert _match_quantiles(values, grid).tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", ["constant column", "zero-covariance cells", "one zero-covariance cell"])
def test_sample_maps_tied_continuous_values_as_the_run_array_reference(case, monkeypatch):
    # ties reach sample's continuous mapping when a cell's covariance is zero
    # (its rows draw one point); a flat grid restores a constant column's value
    ds = mixed_dataset(600, seed=3)
    if case == "constant column":
        values = ds.values.copy()
        values[:, 0] = 170.0
        ds = Dataset(ds.schema, values)
    model = fit(ds, GenerationConfig(budget=LOOSE, seed=4))
    zero = np.zeros_like(model.sigma_dp[0])
    if case == "zero-covariance cells":
        model = replace(model, sigma_dp=(zero,) * len(model.sigma_dp))
    elif case == "one zero-covariance cell":
        model = replace(model, sigma_dp=(zero,) + model.sigma_dp[1:])
    mapped = []

    def recording(values, grid, out=None):
        mapped.append((values.copy(), grid))
        return _match_quantiles(values, grid, out)

    monkeypatch.setattr(rongauss, "_match_quantiles", recording)
    synthetic = sample(model, 500, seed=5)
    [(values, grid)] = mapped  # the height column's coordinate
    outcome = synthetic.column("outcome")
    assert 0 < np.count_nonzero(outcome == model.class_values[0]) < len(outcome)
    if case == "constant column":
        assert np.all(synthetic.column("height") == 170.0)
    else:
        distinct = {"zero-covariance cells": 2,
                    "one zero-covariance cell": 1 + int(np.count_nonzero(outcome == model.class_values[1]))}
        assert len(np.unique(values)) == distinct[case]
    expected = run_array_match_quantiles(values, grid)
    assert synthetic.column("height").tobytes() == expected.tobytes()


def labelled_dataset(kind, n=500, seed=0):
    """x standard normal, protected c, and a label that depends on c: three
    levels for a categorical label, y = 40 + 0.5 c + noise for a continuous one."""
    r = np.random.default_rng(seed)
    x = r.standard_normal(n)
    c = (r.random(n) < 0.5).astype(float)
    if kind == CATEGORICAL:
        y = np.where(r.random(n) < 0.3 + 0.3 * c, 0.0, r.integers(1, 3, n).astype(float))
        label = ColumnSpec("y", CATEGORICAL, role=ROLE_LABEL, levels=("lo", "mid", "hi"))
    else:
        y = 40.0 + 0.5 * c + r.standard_normal(n)
        label = ColumnSpec("y", CONTINUOUS, role=ROLE_LABEL)
    schema = Schema((ColumnSpec("x", CONTINUOUS), ColumnSpec("c", BINARY, role=ROLE_PROTECTED), label))
    return Dataset(schema, np.column_stack([x, c, y]))


@pytest.mark.parametrize("kind", [CATEGORICAL, CONTINUOUS])
def test_rates_after_are_the_fair_sample_label_bit_rates(kind, monkeypatch):
    # the fair stage equalizes the label's first bit: the first level, or y >= the first threshold
    fair = record_fair_samples(monkeypatch)
    ds = labelled_dataset(kind)
    mode = "classification" if kind == CATEGORICAL else "regression"
    result = generate_with_artifacts(ds, GenerationConfig(budget=LOOSE, seed=4, mode=mode))
    (fair_sample,) = fair
    c, y = fair_sample.column("c"), fair_sample.column("y")
    # with one bit per continuous column, the threshold is the source median
    median = interp_quantiles(np.sort(ds.column("y")), [0.5])[0]
    bit = y == 0 if kind == CATEGORICAL else y >= median
    assert result.rates_after == (bit[c == 0].mean(), bit[c == 1].mean())
    assert abs(result.rates_after[0] - result.rates_after[1]) < 0.01
    assert abs(result.rates_before[0] - result.rates_before[1]) > 0.1


def test_fair_sample_without_a_protected_group_fails_tagged(monkeypatch):
    from ffpdg import maxent

    ds = binary_group_dataset(400, 0.3, 0.6, seed=3, n_features=2)
    protected = ds.schema.protected_index  # every column is binary: its bit is its index
    sample_codes = maxent.sample_codes

    def one_group(distribution, n, seed):
        counts = sample_codes(distribution, n, seed)
        counts[distribution.support[:, protected] == 1] = 0
        return counts

    monkeypatch.setattr(maxent, "sample_codes", one_group)
    with pytest.raises(StageError, match="protected group 1 has no rows") as err:
        generate_with_artifacts(ds, GenerationConfig(budget=LOOSE, seed=1))
    assert err.value.stage == "code inversion"


def test_classification_noise_scales_do_not_read_the_class_sizes(monkeypatch):
    # every noised class statistic is a sum over the public n, so two tables
    # with the same n and k draw the same noise scales whatever their class sizes
    base = binary_group_dataset(1000, 0.3, 0.6, seed=16, n_features=4)
    scales = []
    for positives in (300, 700):
        values = base.values.copy()
        values[:, -1] = np.arange(base.n) < positives
        calls = record_laplace_draws(monkeypatch)
        fit(Dataset(base.schema, values), GenerationConfig(seed=2))
        scales.append(calls)
    assert scales[0] == scales[1]
    assert len(scales[0]) == 1 + 2  # the mean, then one augmented moment per class
    assert not any(hasattr(rongauss, name) for name in ("laplace_sample", "mean_noise_scale"))


def test_class_cells_compose_in_parallel_to_epsilon_sigma(monkeypatch):
    # given the released mean and projection, a row's x' reads that row alone; a
    # replaced row moves at most two classes' Z_c = [x'; 1]/sqrt(2) by one column
    # each, so the L1 shifts of the cells' upper triangles, each in units of its
    # recorded noise scale, sum to at most epsilon_sigma
    ds = binary_group_dataset(200, 0.3, 0.6, seed=19, n_features=3)
    seen = []
    class_cells = rongauss._class_cells

    def recording(Xp, labels, *args):
        seen.append((Xp.copy(), labels.copy()))
        return class_cells(Xp, labels, *args)

    monkeypatch.setattr(rongauss, "_class_cells", recording)
    calls = record_laplace_draws(monkeypatch)
    config = GenerationConfig(seed=5)
    model = fit(ds, config)
    ((Xp, labels),) = seen
    (p, n), q = Xp.shape, Xp.shape[0] + 1
    assert [size for _, size in calls] == [model.d_eff] + [q * (q + 1) // 2] * 2
    scales = [b for b, _ in calls[1:]]

    def upper_moments(Xp, labels):
        Z = np.vstack([Xp, np.ones(n)]) / np.sqrt(2.0)
        return [np.triu(Z[:, labels == v] @ Z[:, labels == v].T / n) for v in model.class_values]

    # the row becomes a unit x' of equal entries, whose Z column has the largest
    # upper-triangle sum, in its own class and then in the other one
    row = int(np.flatnonzero(labels == 0)[0])
    replaced = Xp.copy()
    replaced[:, row] = p ** -0.5
    moved_labels = labels.copy()
    moved_labels[row] = 1.0
    base = upper_moments(Xp, labels)
    for neighbour in (upper_moments(replaced, labels), upper_moments(replaced, moved_labels)):
        spent = sum(np.abs(a - b).sum() / scale for a, b, scale in zip(base, neighbour, scales))
        assert 0.0 < spent <= config.budget.epsilon_sigma * (1.0 + 1e-12)


@pytest.mark.parametrize("stem", ["adult", "compas"])
def test_no_class_vanishes_at_a_small_epsilon(stem):
    schema = load_schema(DATA / f"{stem}.schema")
    train = load_csv(DATA / f"{stem}_sample.csv", schema)
    config = GenerationConfig(budget=PrivacyBudget.from_total(0.25))
    vanished = [seed for seed in range(100)
                if not np.all(generate_with_artifacts(train, replace(config, seed=seed)).model.weights_dp > 0)]
    assert vanished == []


def test_regression_noises_every_entry_of_the_joint(monkeypatch):
    # the shared mean's d_eff draws, then one draw per entry on and above the diagonal
    # of the (p+1) x (p+1) joint of the projected features and the label, at the whole
    # of epsilon_sigma (no draw releases the label's mean); unsupervised, the mean's
    # draws and the p x p second moment's
    for mode, label_rows in (("regression", 1), ("unsupervised", 0)):
        calls = record_laplace_draws(monkeypatch)
        config = GenerationConfig(seed=3, mode=mode)
        model = fit(regression_dataset(500, seed=17), config)
        side = model.projection.p + label_rows
        assert [size for _, size in calls] == [model.d_eff, side * (side + 1) // 2], mode
        assert calls[1][0] == dp.covariance_noise_scale(side, 500, config.budget.epsilon_sigma), mode


def test_regression_keeps_the_mean_of_a_skewed_label():
    # an Exp(1) label sits far below the middle of its range [0, ~8.5]: `sample` maps
    # the label by rank through its grid, which keeps the synthetic mean near the real
    # one and the grid's shape, with no pile of clipped values at the minimum
    r = np.random.default_rng(20)
    n = 5000
    x = r.random((n, 3))
    y = r.exponential(1.0, n) * (1.0 + x[:, 0])
    c = (r.random(n) < 0.5).astype(float)
    ds = Dataset(regression_dataset(1, 0).schema, np.column_stack([x, c, y]))
    for seed in range(5):
        synth = sample(fit(ds, GenerationConfig(seed=seed, mode="regression")), n, seed=seed)
        assert abs(synth.column("y").mean() - y.mean()) < 0.2 * y.std(), seed
        assert np.mean(synth.column("y") == y.min()) <= 0.01, seed


@pytest.mark.parametrize("stem", ["adult", "compas"])
def test_released_rows_keep_the_fair_parity(stem):
    # the protected column is thresholded within each drawn class, so the
    # released label is independent of the protected group
    schema = load_schema(DATA / f"{stem}.schema")
    train = load_csv(DATA / f"{stem}_sample.csv", schema)
    gaps = []
    for seed in range(10):
        synth = generate(train, GenerationConfig(seed=seed))
        y, c = synth.values[:, schema.label_index], synth.values[:, schema.protected_index]
        gaps.append(abs(y[c == 1].mean() - y[c == 0].mean()))
    assert max(gaps) <= 0.01, gaps


def test_sampling_one_row_leaves_a_class_without_rows():
    # one row draws one class; the other class's protected threshold is skipped
    model = fit(binary_group_dataset(400, 0.3, 0.6, seed=18, n_features=2), GenerationConfig(seed=4))
    drawn = set()
    for seed in range(8):
        synth = sample(model, 1, seed=seed)
        assert synth.n == 1
        drawn.add(float(synth.column("y")[0]))
    assert drawn == {0.0, 1.0}


def test_generate_decodes_only_the_codes_the_fair_sample_drew(monkeypatch):
    # 8 noise bits over 200 rows: most codes hold one row, and the fair
    # sample draws some of them zero times
    from ffpdg import binarize

    seen = []
    decode_codes = binarize.decode_codes

    def recording(codes, counts, *args):
        seen.append((len(codes), counts.copy()))
        return decode_codes(codes, counts, *args)

    monkeypatch.setattr(binarize, "decode_codes", recording)
    ds = binary_group_dataset(200, 0.3, 0.6, seed=0, n_features=8)
    result = generate_with_artifacts(ds, GenerationConfig(seed=0))
    ((drawn, counts),) = seen
    assert np.all(counts > 0) and counts.sum() == ds.n
    assert drawn < result.codebook.entry_count()
