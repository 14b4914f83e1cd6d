"""Laplace mechanism: sampler distribution, scales, DP mean and covariance."""

import numpy as np
import pytest
from scipy import linalg, stats

from ffpdg.dp import (
    NORM_BLOCK,
    PrivacyBudget,
    covariance_noise_scale,
    dp_covariance,
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
    # sqrt((q^2 + 3q)/2): sqrt(14) at q = 4, and 2 sqrt(q) exactly at q = 5
    assert covariance_noise_scale(4, 50, 0.5) == pytest.approx(np.sqrt(14.0) / 25.0)
    assert covariance_noise_scale(5, 1, 1.0) == pytest.approx(2.0 * np.sqrt(5.0))
    # scales shrink linearly in both n and epsilon
    assert mean_noise_scale(4, 1000, 1.0) == pytest.approx(mean_noise_scale(4, 100, 10.0))
    assert covariance_noise_scale(9, 1000, 1.0) == pytest.approx(covariance_noise_scale(9, 100, 10.0))


def _upper_l1(x, y):
    """L1 norm of the upper triangle, diagonal included, of x x^T - y y^T."""
    return np.abs(np.triu(np.outer(x, x) - np.outer(y, y))).sum()


def _sign_ascent(x, y, steps=50):
    """The largest `_upper_l1` met from unit x, y. Each step fixes the signs S of
    x x^T - y y^T, on which the sum is x^T A x - y^T A y for the symmetric A
    with A_ii = S_ii and A_ij = S_ij/2; the extreme eigenvectors of A maximise
    that, so the sum never falls and every value met is reached by a unit pair."""
    best = _upper_l1(x, y)
    for _ in range(steps):
        S = np.sign(np.outer(x, x) - np.outer(y, y))
        A = np.triu(S, 1) / 2.0
        V = linalg.eigh(A + A.T + np.diag(np.diag(S)))[1]
        x, y = V[:, -1], V[:, 0]
        value = _upper_l1(x, y)
        if value <= best + 1e-12:
            break
        best = value
    return best


def test_every_dp_constant_bounds_a_seeded_search_over_unit_pairs():
    # each mechanism's scale times n * eps is its replace-one L1 sensitivity over
    # columns of norm <= 1: no pair found may exceed it
    rng = np.random.default_rng(0)
    found = {}
    for q in range(2, 11):
        pairs = rng.standard_normal((100, 2, q))
        pairs /= np.linalg.norm(pairs, axis=2, keepdims=True)
        found[q] = max(_sign_ascent(x, y) for x, y in pairs)
        assert found[q] <= covariance_noise_scale(q, 1, 1.0) + 1e-9, q
        # the mean's: |x - y|_1 <= sqrt(q) |x - y|_2 <= 2 sqrt(q), met at y = -x = 1/sqrt(q)
        assert np.abs(pairs[:, 0] - pairs[:, 1]).sum(axis=1).max() <= mean_noise_scale(q, 1, 1.0)
        assert 2.0 * np.abs(np.full(q, q ** -0.5)).sum() == pytest.approx(mean_noise_scale(q, 1, 1.0))
    # 2 sqrt(q), the covariance constant before, falls short of a pair from q = 6 up
    assert found[9] > 2.0 * np.sqrt(9)


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


def test_dp_covariance_requires_unit_norm_columns_and_names_the_longest():
    X = unit_columns(3, 2 * NORM_BLOCK + 5, seed=12)
    dp_covariance(X, X.shape[1], 1.0, seed=0)  # unit columns pass
    # the check walks the columns a block at a time, so a column past the
    # first block is named with its own index, as is a NaN before a longer one
    X[:, NORM_BLOCK + 9] *= 2.0
    X[:, NORM_BLOCK + 11] *= 3.0
    with pytest.raises(DataError, match=rf"column {NORM_BLOCK + 11} has norm 3, expected <= 1"):
        dp_covariance(X, X.shape[1], 1.0, seed=0)
    X[:, NORM_BLOCK] = np.nan
    with pytest.raises(DataError, match=rf"column {NORM_BLOCK} has norm nan"):
        dp_covariance(X, X.shape[1], 1.0, seed=0)
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
