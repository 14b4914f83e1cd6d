"""Laplace-mechanism primitives: noise sampling, DP mean, DP covariance.

Noise scales follow the sensitivity of unit-norm sample columns: the mean
query uses scale 2*sqrt(d)/(n*eps_mu) per coordinate and the second-moment
query 2*sqrt(p)/(n*eps_sigma) per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class PrivacyBudget:
    """Total epsilon and its split between the mean and covariance queries."""

    epsilon_total: float
    epsilon_mu: float
    epsilon_sigma: float

    def __post_init__(self):
        if not all(map(np.isfinite, (self.epsilon_total, self.epsilon_mu, self.epsilon_sigma))):
            raise DataError("all epsilon values must be finite")
        if self.epsilon_total <= 0 or self.epsilon_mu <= 0 or self.epsilon_sigma <= 0:
            raise DataError("all epsilon values must be > 0")
        if abs(self.epsilon_mu + self.epsilon_sigma - self.epsilon_total) > 1e-12:
            raise DataError("epsilon_mu + epsilon_sigma must equal epsilon_total")

    @classmethod
    def from_total(cls, epsilon: float, mu_fraction: float = 0.3) -> "PrivacyBudget":
        """Default split: 30% of the budget to the mean, 70% to the covariance."""
        if not 0.0 < mu_fraction < 1.0:
            raise DataError("mu_fraction must be in (0, 1)")
        return cls(epsilon, epsilon * mu_fraction, epsilon * (1.0 - mu_fraction))


def laplace_sample(b: float, rng: np.random.Generator, size=None):
    """Zero-mean Laplace draws with scale b by inverse-CDF.

    u is uniform on (-1/2, 1/2) and the sample is -b*sign(u)*ln(1-2|u|);
    the mapping is exact, so a seeded uniform stream reproduces the same
    noise on any platform. Variance is 2*b^2.
    """
    if not 0 < b < np.inf:
        raise DataError(f"Laplace scale must be positive and finite, got {float(b)}")
    u = rng.random(size) - 0.5
    return -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def mean_noise_scale(d: int, n: int, epsilon_mu: float) -> float:
    return 2.0 * np.sqrt(d) / (n * epsilon_mu)


def covariance_noise_scale(p: int, n: int, epsilon_sigma: float) -> float:
    return 2.0 * np.sqrt(p) / (n * epsilon_sigma)


def dp_mean(X: np.ndarray, epsilon_mu: float, seed) -> np.ndarray:
    """Laplace-noised column mean of a d x n matrix of unit-norm samples."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise DataError("X must be d x n with n >= 1")
    norms = np.linalg.norm(X, axis=0)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        j = int(np.argmax(np.abs(norms - 1.0)))
        raise DataError(f"column {j} has norm {norms[j]:.12g}, expected 1")
    d, n = X.shape
    rng = np.random.default_rng(seed)
    return X.mean(axis=1) + laplace_sample(mean_noise_scale(d, n, epsilon_mu), rng, size=d)


def symmetrize_noise(p: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric noise matrix: i.i.d. Laplace on and above the diagonal, mirrored."""
    upper = np.triu_indices(p)
    Z = np.zeros((p, p))
    Z[upper] = laplace_sample(scale, rng, size=len(upper[0]))
    return Z + np.triu(Z, 1).T


def psd_repair(S: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero, keeping the matrix symmetric."""
    S = 0.5 * (S + S.T)
    w, V = np.linalg.eigh(S)
    repaired = (V * np.clip(w, 0.0, None)) @ V.T
    return 0.5 * (repaired + repaired.T)


def dp_covariance(X: np.ndarray, epsilon_sigma: float, seed) -> np.ndarray:
    """Laplace-noised, PSD-repaired second-moment matrix (1/n) X X^T.

    The noise matrix is symmetric by construction (the covariance must be
    sampleable), and eigenvalue clipping restores positive
    semidefiniteness; both are post-processing on the noised query.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError("X must be p x n with p, n >= 1")
    p, n = X.shape
    rng = np.random.default_rng(seed)
    S = (X @ X.T) / n
    Z = symmetrize_noise(p, covariance_noise_scale(p, n, epsilon_sigma), rng)
    return psd_repair(S + Z)
