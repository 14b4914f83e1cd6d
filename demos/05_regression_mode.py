"""Regression mode: release a joint feature/target Gaussian privately.

A continuous label switches the generator to modeling (projected
features, u) jointly, where u is the label centred on the mean level of
its training quantile grid and scaled into [-1, 1] by the grid's range.
The release is one noised second moment over n of the rows stacked with
u, like the unsupervised release, so every entry of the joint is noised
and the cell's mean is zero; sampling maps u by rank through the label's
grid, as it does every continuous feature. Synthetic rows thus carry a
usable regression signal. Least squares on the synthetic rows then
recovers coefficients, with two error sources worth separating:

  * the orthonormal projection keeps p of the d_eff expanded dimensions,
    so any part of the signal on the dropped directions is simply gone;
  * privacy noise in the released moments, which decays like 1/(n*eps).

An arbitrary coefficient vector hits the first error source and shows a
floor no amount of data removes. A signal inside the projection span
converges the way the noise analysis promises.
"""

import numpy as np

from ffpdg.data import (
    BINARY,
    CONTINUOUS,
    ColumnSpec,
    Dataset,
    ROLE_LABEL,
    ROLE_PROTECTED,
    Schema,
)
from ffpdg.dp import PrivacyBudget
from ffpdg.rongauss import GenerationConfig, fit, sample

D = 5
SCHEMA = Schema(tuple(
    [ColumnSpec(f"x{j}", CONTINUOUS) for j in range(D)]
    + [ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
       ColumnSpec("y", CONTINUOUS, role=ROLE_LABEL)]
))
CONFIG = GenerationConfig(budget=PrivacyBudget.from_total(1e6),
                          mode="regression", seed=11)


def make(n, beta, seed):
    r = np.random.default_rng(seed)
    x = r.random((n, D))
    c = (r.random(n) < 0.5).astype(float)
    y = x @ beta + r.normal(0.0, 0.1, n)
    return Dataset(SCHEMA, np.column_stack([x, c, y]))


def recovered_error(beta, n, seed):
    data = make(n, beta, seed)
    syn = sample(fit(data, CONFIG), n, seed=seed + 100)
    X = np.column_stack([syn.values[:, :D], np.ones(n)])
    coef, *_ = np.linalg.lstsq(X, syn.column("y"), rcond=None)
    return np.linalg.norm(coef[:D] - beta) / np.linalg.norm(beta)


def span_aligned_beta(scale=8.0):
    """A coefficient vector the projection keeps.

    Probe the (seed, shape)-determined projection W over the expanded
    coordinates (x block, protected bit, constant anchor), then build
    beta inside span(W) orthogonal to the protected, anchor, and
    all-ones directions so min-max scaling and the bit column leave it
    untouched.
    """
    W = fit(make(300, np.zeros(D), 0), CONFIG).projection.W
    d_eff = W.shape[0]
    rng = np.random.default_rng(7)
    a = rng.standard_normal(W.shape[1])
    basis = []
    for direction in (np.eye(d_eff)[D],
                      np.concatenate([np.ones(D), [0.0, 0.0]]),
                      np.eye(d_eff)[D + 1]):
        v = W.T @ direction
        for u in basis:
            v -= u * (u @ v)
        basis.append(v / np.linalg.norm(v))
    for u in basis:
        a -= u * (u @ a)
    b = W @ a
    return b[:D] / np.linalg.norm(b[:D]) * scale


generic = np.array([3.0, -2.0, 1.5, 0.0, 0.5])
aligned = span_aligned_beta()
print("generic beta:", generic)
print("span-aligned beta:", np.round(aligned, 2))
print(f"\n{'n':>6}  {'generic rel err':>15}  {'aligned rel err':>15}")
for n in (500, 2000, 8000):
    print(f"{n:>6}  {recovered_error(generic, n, seed=n):>15.3f}  "
          f"{recovered_error(aligned, n, seed=n):>15.3f}")

print("\nthe generic signal plateaus at the part lost to the dropped "
      "projection directions; the aligned signal keeps improving because "
      "only sampling and (tiny, eps=1e6) privacy noise remain")
