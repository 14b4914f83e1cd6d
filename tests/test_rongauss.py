"""Projection pipeline: normalization, centering, RON, fit/sample, generate."""

import numpy as np
import pytest

from conftest import binary_group_dataset, mixed_dataset
from ffpdg.data import (
    BINARY,
    CONTINUOUS,
    ColumnSpec,
    Dataset,
    ROLE_LABEL,
    ROLE_PROTECTED,
    Schema,
    average_ranks,
)
from ffpdg.dp import PrivacyBudget
from ffpdg.errors import DataError, SchemaError, StageError
from ffpdg.rongauss import (
    CATEGORICAL_NOISE_SIGMA,
    _match_quantiles,
    GenerationConfig,
    center_and_renormalize,
    fit,
    generate,
    generate_with_artifacts,
    make_ron,
    pre_normalize,
    resolve_mode,
    sample,
)

LOOSE = PrivacyBudget.from_total(1e8)  # noise small enough to see the data


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


def test_pre_normalize_layout_and_unit_norms():
    ds = mixed_dataset(100, seed=5)
    X, coding = pre_normalize(ds, categorical_noise_sigma=0.0, seed=0)
    # 1 continuous + 3 one-hot + 2 binary + anchor
    assert X.shape == (7, 100)
    assert np.allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-12)
    names = [c.name for c in coding]
    assert names == ["height", "color", "member", "outcome"]
    cont = coding[0]
    assert (cont.lo, cont.hi) == (ds.values[:, 0].min(), ds.values[:, 0].max())
    # noiseless one-hot: the argmax coordinate recovers the level
    onehot = X[list(coding[1].coords)]
    assert np.array_equal(np.argmax(onehot, axis=0), ds.values[:, 1].astype(int))
    # anchor row is the last coordinate and positive everywhere
    assert np.all(X[-1] > 0)


def test_pre_normalize_column_subset():
    ds = mixed_dataset(50, seed=6)
    X, coding = pre_normalize(ds, 0.0, seed=0, columns=[0, 2])
    assert [c.name for c in coding] == ["height", "member"]
    assert X.shape == (3, 50)  # 1 + 1 + anchor


def test_center_and_renormalize_recovers_mean_at_loose_budget():
    ds = mixed_dataset(300, seed=7)
    X, _ = pre_normalize(ds, 0.01, seed=1)
    Xbar, mu = center_and_renormalize(X, LOOSE, seed=2)
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


def test_fit_mode_type_mismatch_errors():
    with pytest.raises(SchemaError, match="regression mode"):
        fit(binary_group_dataset(50, 0.3, 0.7, 1),
            GenerationConfig(budget=LOOSE, mode="regression"))
    with pytest.raises(SchemaError, match="classification mode"):
        fit(regression_dataset(50, 1), GenerationConfig(budget=LOOSE, mode="classification"))


def test_fit_rejects_class_smaller_than_p():
    ds = binary_group_dataset(60, 0.02, 0.02, seed=2, n_features=6)
    # label rate ~2%: with p=7 some class is almost surely too small
    values = ds.values.copy()
    values[:, -1] = 0.0
    values[0, -1] = 1.0  # exactly one positive row
    lopsided = Dataset(ds.schema, values)
    with pytest.raises(DataError, match="fewer than p"):
        fit(lopsided, GenerationConfig(budget=LOOSE, p=4))


def test_fit_sample_classification_round_trip():
    ds = binary_group_dataset(2000, 0.25, 0.65, seed=3, n_features=4)
    model = fit(ds, GenerationConfig(budget=LOOSE, seed=11))
    assert model.mode == "classification"
    assert model.class_values == (0.0, 1.0)
    # Python floats, as read_audit rebuilds them, not numpy scalars
    assert all(type(v) is float for v in model.class_values)
    # loose budget: noised class weights track the empirical proportions
    want = np.array([np.mean(ds.column("y") == v) for v in model.class_values])
    assert np.abs(np.asarray(model.class_weights_dp) - want).max() < 1e-4
    syn = sample(model, 1500, seed=4)
    assert syn.schema == ds.schema and syn.n == 1500
    assert set(np.unique(syn.column("y"))) <= {0.0, 1.0}


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
    rng_noise, rng_mu, rng_ron, _, _ = (np.random.default_rng(s) for s in seq.spawn(5))
    X, _ = pre_normalize(ds, CATEGORICAL_NOISE_SIGMA, rng_noise)
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


def test_generate_reaches_parity_and_keeps_schema():
    ds = binary_group_dataset(3000, 0.2, 0.6, seed=12, n_features=4)
    result = generate_with_artifacts(ds, config=GenerationConfig(
        budget=PrivacyBudget.from_total(1.0), seed=6))
    r0, r1 = result.rates_after
    assert abs(r0 - r1) <= 0.03  # fair stage output
    assert result.dataset.schema == ds.schema
    assert result.dataset.n == ds.n
    assert result.solution.converged
    assert result.fair_dataset.n == ds.n
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
        generate(ds, config=GenerationConfig(budget=LOOSE, p=50))
    assert err.value.stage == "projection fit"  # p too large surfaces in the fit
    assert str(err.value).startswith("projection fit: ")
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
    with pytest.raises(DataError):
        GenerationConfig(quantile_points=1)


def test_generate_deterministic_per_seed():
    ds = binary_group_dataset(400, 0.3, 0.7, seed=15, n_features=2)
    config = GenerationConfig(budget=PrivacyBudget.from_total(1.0), seed=3)
    a = generate(ds, config=config)
    b = generate(ds, config=config)
    assert np.array_equal(a.values, b.values)
    c = generate(ds, config=GenerationConfig(budget=PrivacyBudget.from_total(1.0), seed=4))
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("n, ties", [(1, False), (2, True), (7, True), (500, False), (5000, True)])
def test_match_quantiles_equals_interpolating_every_rows_average_rank(n, ties):
    # one interpolation per tie run, in sorted order, gives every row's value byte for byte
    r = np.random.default_rng(n)
    values = r.integers(0, 9, size=n).astype(float) if ties else r.normal(size=n)
    grid = np.sort(r.normal(size=33))
    expected = np.interp((average_ranks(values) - 0.5) / n, np.linspace(0.0, 1.0, 33), grid)
    assert _match_quantiles(values, grid).tobytes() == expected.tobytes()
