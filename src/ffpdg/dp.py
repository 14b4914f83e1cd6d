"""Laplace mechanisms, the only code that draws privacy noise, and the budget.

Each noises a query over the public row count n at its replace-one L1
sensitivity, on q-vectors of norm <= 1 (checked): `dp_mean` a table's mean,
at 2*sqrt(q)/(n*eps) per coordinate, and `dp_covariance` a second moment
(1/n) X X^T, at sqrt((q^2 + 3q)/2)/(n*eps) per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Columns per block of `column_norms` and the mechanisms' norm check: about
# 128 KB of float64 per coordinate row, small beside an n-column matrix.
NORM_BLOCK = 16_384


@dataclass(frozen=True)
class PrivacyBudget:
    """The epsilon of the mean and of the covariance queries; the total is
    their sum, the epsilon actually spent."""

    epsilon_mu: float
    epsilon_sigma: float

    def __post_init__(self):
        if not all(map(np.isfinite, (self.epsilon_mu, self.epsilon_sigma, self.epsilon_total))):
            raise DataError("all epsilon values must be finite")
        if self.epsilon_mu <= 0 or self.epsilon_sigma <= 0:
            raise DataError("all epsilon values must be > 0")

    @property
    def epsilon_total(self) -> float:
        return self.epsilon_mu + self.epsilon_sigma

    @classmethod
    def from_total(cls, epsilon: float, mu_fraction: float = 0.3) -> "PrivacyBudget":
        """Default split: 30% of the budget to the mean, 70% to the covariance.

        Should the rounded slices sum to more than epsilon, the covariance
        slice becomes epsilon - epsilon_mu, stepped down (a float or two) to fit.
        """
        if not 0.0 < mu_fraction < 1.0:
            raise DataError("mu_fraction must be in (0, 1)")
        epsilon_mu = epsilon * mu_fraction
        epsilon_sigma = epsilon * (1.0 - mu_fraction)
        if epsilon_mu + epsilon_sigma > epsilon:
            epsilon_sigma = epsilon - epsilon_mu
            while epsilon_mu + epsilon_sigma > epsilon:
                epsilon_sigma = float(np.nextafter(epsilon_sigma, -np.inf))
        return cls(epsilon_mu, epsilon_sigma)


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


def covariance_noise_scale(q: int, n: int, epsilon_sigma: float) -> float:
    """Per n, a bound on the L1 norm of the upper triangle of D = x x^T - y y^T
    for |x|, |y| <= 1: by Cauchy-Schwarz, sqrt(q a) + sqrt(q(q-1)/4 (F - a))
    <= sqrt((q^2 + 3q)/4 F), with a = sum D_ii^2 and F = |D|_F^2 <= 2."""
    return np.sqrt((q * q + 3.0 * q) / 2.0) / (n * epsilon_sigma)


def column_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=0) of a d x n matrix, bit for bit, squaring
    one block of columns at a time rather than all of X.

    numpy sums the squares of a block row by row, as over the whole
    matrix, but those of a lone column pairwise (from d = 8 up), so the
    last block takes in a column that would be left alone.
    """
    d, n = X.shape
    norms = np.empty(n)
    start = 0
    while start < n:
        stop = start + NORM_BLOCK
        if stop + 1 >= n:
            stop = n
        block = X[:, start:stop]
        np.sqrt(np.add.reduce(block * block, axis=0), out=norms[start:stop])
        start = stop
    return norms


def _unit_columns(X) -> np.ndarray:
    """X as a float64 q x m matrix, q, m >= 1, of columns of norm <= 1; raises
    on a longer column (or a NaN), naming it. Squares a block at a time."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError("X must be q x m with q, m >= 1")
    for start in range(0, X.shape[1], NORM_BLOCK):
        block = X[:, start:start + NORM_BLOCK]
        squares = np.einsum("ij,ij->j", block, block)
        j = int(np.argmax(squares))  # a NaN's index if there is one
        if not squares[j] <= (1.0 + 1e-9) ** 2:
            raise DataError(f"column {start + j} has norm {np.sqrt(squares[j]):.12g}, expected <= 1")
    return X


def dp_mean(X: np.ndarray, epsilon: float, seed) -> np.ndarray:
    """Laplace-noised mean X.sum(axis=1) / n of a q x n matrix whose columns
    have norm <= 1."""
    X = _unit_columns(X)
    q, n = X.shape
    rng = np.random.default_rng(seed)
    return X.sum(axis=1) / n + laplace_sample(mean_noise_scale(q, n, epsilon), rng, size=q)


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


def dp_covariance(X: np.ndarray, n: int, epsilon_sigma: float, seed) -> np.ndarray:
    """Laplace-noised, PSD-repaired second-moment matrix (1/n) X X^T of q x m
    samples of norm <= 1 over the public n (a table's n also for its blocks).

    The noise matrix is symmetric by construction (the covariance must be
    sampleable), and eigenvalue clipping restores positive
    semidefiniteness; both are post-processing on the noised query.
    """
    X = _unit_columns(X)
    q = X.shape[0]
    rng = np.random.default_rng(seed)
    S = (X @ X.T) / n
    Z = symmetrize_noise(q, covariance_noise_scale(q, n, epsilon_sigma), rng)
    return psd_repair(S + Z)
