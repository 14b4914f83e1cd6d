"""Laplace mechanism: sampler distribution, scales, DP mean, histogram and covariance."""

import numpy as np
import pytest
from scipy import stats

from ffpdg.dp import (
    PrivacyBudget,
    covariance_noise_scale,
    dp_covariance,
    dp_histogram,
    dp_mean,
    laplace_sample,
    mean_noise_scale,
    psd_repair,
    symmetrize_noise,
)
from ffpdg.errors import DataError


def unit_columns(d, n, seed):
    X = np.random.default_rng(seed).normal(size=(d, n))
    return X / np.linalg.norm(X, axis=0)


def test_laplace_moments_and_distribution():
    draws = laplace_sample(1.0, np.random.default_rng(2), size=200_000)
    assert abs(draws.mean()) < 0.01
    assert draws.var() == pytest.approx(2.0, abs=0.05)
    # two-sided tail symmetry plus a KS check against the exact CDF
    stat, pvalue = stats.kstest(draws, stats.laplace(scale=1.0).cdf)
    assert pvalue > 0.01


def test_laplace_scale_parameter():
    draws = laplace_sample(3.0, np.random.default_rng(4), size=100_000)
    assert draws.var() == pytest.approx(2.0 * 9.0, rel=0.05)


def test_laplace_is_inverse_cdf_of_the_uniform_stream():
    b = 0.7
    draws = laplace_sample(b, np.random.default_rng(8), size=1000)
    u = np.random.default_rng(8).random(1000) - 0.5
    expected = -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    assert np.array_equal(draws, expected)


def test_laplace_rejects_nonpositive_scale():
    for b in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DataError, match="Laplace scale"):
            laplace_sample(b, np.random.default_rng(0))


def test_noise_scale_formulas():
    assert mean_noise_scale(9, 100, 2.0) == pytest.approx(2.0 * 3.0 / 200.0)
    assert covariance_noise_scale(16, 50, 0.5) == pytest.approx(2.0 * 4.0 / 25.0)
    # scales shrink linearly in both n and epsilon
    assert mean_noise_scale(4, 1000, 1.0) == pytest.approx(mean_noise_scale(4, 100, 10.0))


def test_dp_mean_requires_unit_norm_columns():
    X = np.random.default_rng(1).normal(size=(3, 20))
    with pytest.raises(DataError, match="norm"):
        dp_mean(X, 20, 1.0, seed=0)
    X /= np.linalg.norm(X, axis=0)
    dp_mean(X, 20, 1.0, seed=0)  # unit columns pass
    # shorter columns pass too, as a class's projected block has, summed over the table's n
    got = dp_mean(0.5 * X, 100, 1e9, seed=0)
    assert np.abs(got - 0.5 * X.sum(axis=1) / 100).max() < 1e-6
    X[:, 7] *= 1.0 + 1e-6  # just over 1: named
    with pytest.raises(DataError, match=r"column 7 has norm 1\.000001"):
        dp_mean(X, 20, 1.0, seed=0)


def test_dp_histogram_scale_is_2_over_n_epsilon_whatever_the_counts():
    for counts in ([10, 90], [50, 50], [0, 100]):
        noise = dp_histogram(np.array(counts), 100, 0.5, seed=4) - np.array(counts) / 100
        expected = laplace_sample(2.0 / (100 * 0.5), np.random.default_rng(4), size=2)
        assert np.allclose(noise, expected, rtol=0.0, atol=1e-15)


def test_dp_mean_converges_to_true_mean():
    X = unit_columns(6, 50, seed=5)
    got = dp_mean(X, 50, 1e9, seed=3)
    assert np.abs(got - X.mean(axis=1)).max() < 1e-6


def test_dp_mean_noise_magnitude_tracks_epsilon():
    X = unit_columns(4, 30, seed=6)
    true = X.mean(axis=1)
    rough = np.abs(dp_mean(X, 30, 0.01, seed=1) - true).max()
    fine = np.abs(dp_mean(X, 30, 100.0, seed=1) - true).max()
    assert rough > fine * 100


def test_dp_covariance_symmetric_psd_and_convergent():
    X = unit_columns(5, 40, seed=7)
    S = dp_covariance(X, X.shape[1], 1.0, seed=2)
    assert np.array_equal(S, S.T)
    assert np.linalg.eigvalsh(S).min() >= -1e-12
    S9 = dp_covariance(X, X.shape[1], 1e9, seed=2)
    assert np.abs(S9 - (X @ X.T) / X.shape[1]).max() < 1e-6


def test_dp_functions_deterministic_given_seed():
    X = unit_columns(4, 25, seed=9)
    assert np.array_equal(dp_mean(X, 25, 1.0, seed=5), dp_mean(X, 25, 1.0, seed=5))
    assert np.array_equal(dp_covariance(X, 25, 1.0, seed=5), dp_covariance(X, 25, 1.0, seed=5))
    assert not np.array_equal(dp_mean(X, 25, 1.0, seed=5), dp_mean(X, 25, 1.0, seed=6))


def test_symmetrize_noise_structure():
    Z = symmetrize_noise(6, 0.5, np.random.default_rng(3))
    assert Z.shape == (6, 6)
    assert np.array_equal(Z, Z.T)
    assert not np.array_equal(Z, np.zeros_like(Z))


def test_psd_repair_properties():
    r = np.random.default_rng(10)
    for _ in range(20):
        A = r.normal(size=(5, 5))
        S = 0.5 * (A + A.T)
        P = psd_repair(S)
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-12
        # projection: repairing twice changes nothing
        assert np.allclose(psd_repair(P), P, atol=1e-12)
        # a PSD input passes through (up to eig round-off)
        G = A @ A.T
        assert np.allclose(psd_repair(G), G, atol=1e-10)


def test_psd_repair_is_the_nearest_psd_matrix():
    # eigenvalue clipping is the Frobenius projection onto the PSD cone,
    # so any other PSD matrix must be at least as far from the input
    r = np.random.default_rng(11)
    A = r.normal(size=(4, 4))
    S = 0.5 * (A + A.T) - 1.5 * np.eye(4)  # guarantee negative eigenvalues
    P = psd_repair(S)
    base = np.linalg.norm(S - P)
    assert np.linalg.eigvalsh(S).min() < 0
    for _ in range(200):
        B = r.normal(size=(4, 4))
        candidate = B @ B.T
        assert np.linalg.norm(S - candidate) >= base - 1e-12


def test_privacy_budget_split_and_validation():
    budget = PrivacyBudget.from_total(2.0)
    assert budget.epsilon_mu == pytest.approx(0.6)
    assert budget.epsilon_sigma == pytest.approx(1.4)
    assert budget.epsilon_total == budget.epsilon_mu + budget.epsilon_sigma
    custom = PrivacyBudget.from_total(1.0, mu_fraction=0.5)
    assert custom.epsilon_mu == custom.epsilon_sigma == pytest.approx(0.5)
    with pytest.raises(DataError):
        PrivacyBudget(-0.5, 1.5)
    with pytest.raises(DataError):
        PrivacyBudget.from_total(1.0, mu_fraction=1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="finite"):
            PrivacyBudget.from_total(bad)
        with pytest.raises(DataError, match="finite"):
            PrivacyBudget(bad, 0.5)
    with pytest.raises(DataError, match="finite"):
        PrivacyBudget(1e308, 1e308)  # each slice is finite, their total is not


def test_split_total_never_spends_more_than_asked():
    # 30000 at 1/3 rounds eps_sigma to 20000.000000000004; the sweep covers
    # totals over 300 decades and shares anywhere in (0, 1) or close to 1
    rng = np.random.default_rng(3)
    totals = rng.random(2000) * 10.0 ** rng.integers(-5, 300, 2000)
    shares = np.concatenate([rng.random(1000), 1.0 - 10.0 ** -rng.uniform(1, 15, 1000)])
    for epsilon, share in [(30000.0, 1.0 / 3.0), *zip(totals.tolist(), shares.tolist())]:
        budget = PrivacyBudget.from_total(epsilon, mu_fraction=share)
        assert budget.epsilon_total <= epsilon
        assert budget.epsilon_mu == epsilon * share
        # and the covariance slice gives up no more than the total's last bits
        assert epsilon * (1.0 - share) - budget.epsilon_sigma <= 2 * np.spacing(epsilon)
