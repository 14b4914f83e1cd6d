"""Maximum-entropy re-distribution of binary codes under parity constraints.

The fitted distribution has the form p(x) proportional to q(x) *
exp(<lambda, phi(x)>) where q is a smoothed empirical prior over the
observed codes and phi(x) stacks the m bits of x with the single product
term x_protected * x_label. Matching the bit means preserves every
marginal (including the protected-group representation rate) while the
product-term target moves both group-conditional positive rates to the
overall positive rate.

lambda minimizes the convex dual log Z(lambda) - <lambda, targets>,
whose gradient is the constraint gap E_p[phi] - targets and whose
Hessian is the covariance of phi under p. `solve_maxent` takes damped
Newton steps: a minimum-norm least-squares solve (`np.linalg.lstsq`)
against that singular covariance, then Armijo backtracking along the
Newton direction. `sample_codes` draws the fair sample as a histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binarize import distinct_codes
from .data import group_rates
from .errors import ConvergenceError, DataError, FeasibilityError

# Additive smoothing of the empirical prior over observed codes, the
# solver's residual tolerance and Newton step limit (a few steps converge
# on every bundled and benchmark input, so a problem that needs 100 is
# reported rather than ground through), and how far past the support's
# reach a target may sit before it is reported infeasible.
FAIR_PRIOR_SMOOTH = 0.1
MAXENT_TOL = 1e-6
MAXENT_MAX_ITER = 100
FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probabilities over a support of distinct binary codes."""

    support: np.ndarray  # (k, m) uint8
    probs: np.ndarray    # (k,) nonnegative, sums to 1

    def __post_init__(self):
        support = np.asarray(self.support)
        probs = np.asarray(self.probs, dtype=np.float64)
        if support.ndim != 2 or len(support) != len(probs):
            raise DataError("support and probs must align")
        if np.any(probs < 0):
            raise DataError("negative probability")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise DataError(f"probabilities sum to {probs.sum()!r}, not 1")
        if len(distinct_codes(support)[0]) != len(support):
            raise DataError("support codes must be unique")
        object.__setattr__(self, "support", support.astype(np.uint8, copy=False))
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class ParityConstraints:
    """Bit-mean targets plus the protected*label product target."""

    theta: np.ndarray
    joint_target: float
    protected_bit: int
    label_bit: int

    @property
    def targets(self) -> np.ndarray:
        return np.append(self.theta, self.joint_target)


@dataclass(frozen=True)
class MaxEntSolution:
    lam: np.ndarray                  # dual variables, one per constraint
    distribution: DiscreteDistribution
    residual: float                  # max |E_p[phi] - target| at termination
    iterations: int
    converged: bool
    objective_trace: np.ndarray      # dual objective after each accepted step


def empirical_prior(support: np.ndarray, counts: np.ndarray) -> DiscreteDistribution:
    """Smoothed relative frequencies over distinct codes and their row counts.

    q(x) = (count(x) + s) / (n + s * #distinct), with n the sum of counts
    and s = `FAIR_PRIOR_SMOOTH`.
    A CodeBook carries both arguments as `keys` and `counts`.
    """
    counts = np.asarray(counts)
    if counts.shape != (len(support),) or len(counts) < 1:
        raise DataError("support and counts must be nonempty and align")
    probs = (counts + FAIR_PRIOR_SMOOTH) / (counts.sum() + FAIR_PRIOR_SMOOTH * len(support))
    return DiscreteDistribution(support, probs / probs.sum())


def fair_marginals(keys: np.ndarray, counts: np.ndarray, protected_bit: int, label_bit: int,
                   rate: float = 1.0) -> ParityConstraints:
    """Constraint targets that preserve every bit mean and enforce parity,
    read from distinct codes and their row counts (a CodeBook's `keys` and
    `counts`). Every mean is an integer sum over the counts divided by n,
    so the targets equal the row means of the table the counts describe.

    With rate=1 (exact parity) both group-conditional positive rates are
    pinned to the overall positive rate r, which fixes E[Y*C] = r * P(C=1).
    A relaxed rate tau < 1 leaves the data unchanged when min/max of the
    two group rates already reaches tau, and otherwise shrinks the gap
    just enough, preserving the overall positive rate. A group whose codes
    lack a label value a target needs raises FeasibilityError.
    """
    keys = np.asarray(keys, dtype=np.uint8)
    counts = np.asarray(counts)
    if protected_bit == label_bit:
        raise DataError("protected and label bits must differ")
    if not 0.0 < rate <= 1.0:
        raise DataError("rate must be in (0, 1]")
    n = counts.sum()
    theta = counts @ keys / n
    r0, r1 = group_rates(keys[:, label_bit], keys[:, protected_bit], counts)
    c = float(theta[protected_bit])
    r = float(theta[label_bit])
    lo, hi = min(r0, r1), max(r0, r1)
    if hi == 0.0 or lo / hi >= rate:
        joint = float(counts @ (keys[:, protected_bit] & keys[:, label_bit]) / n)
    else:
        # target rates t0 (group C=0) and t1 (group C=1) with
        # min/max ratio = rate and (1-c) t0 + c t1 = r
        if r1 >= r0:
            t1 = r / ((1 - c) * rate + c)
            t0 = rate * t1
        else:
            t0 = r / ((1 - c) + c * rate)
            t1 = rate * t0
        joint = c * t1
    # a group rate of exactly 0 or 1 means its codes lack the other label value
    for g, observed, target in ((0, r0, (r - joint) / (1 - c)), (1, r1, joint / c)):
        if observed in (0.0, 1.0) and abs(target - observed) > FEASIBILITY_SLACK:
            raise FeasibilityError(f"protected group {g} has no rows whose label bit is {int(1 - observed)}, "
                                   f"but parity needs its positive rate at {target:.6g}")
    return ParityConstraints(theta=theta, joint_target=joint,
                             protected_bit=protected_bit, label_bit=label_bit)


def feature_matrix(support: np.ndarray, constraints: ParityConstraints) -> np.ndarray:
    """phi(x) for each support code: the m bits plus the C*Y product."""
    support = np.asarray(support, dtype=np.float64)
    product = support[:, constraints.protected_bit] * support[:, constraints.label_bit]
    return np.hstack([support, product[:, None]])


def _dual(lam, log_q, features, targets):
    """Dual objective log Z(lam) - <lam, targets> and the distribution p_lam,
    both from one exponentiation."""
    z = log_q + features @ lam
    zmax = z.max()
    p = np.exp(z - zmax)
    total = p.sum()
    return float(zmax + np.log(total) - lam @ targets), p / total


def solve_maxent(prior: DiscreteDistribution, constraints: ParityConstraints,
                 tol: float = MAXENT_TOL, max_iter: int = MAXENT_MAX_ITER) -> MaxEntSolution:
    """Minimize the dual log Z(lambda) - <lambda, targets> by damped Newton steps.

    The gradient is E_p[phi] - targets, so its max-norm at termination is
    exactly the constraint residual; the Hessian is the covariance of phi
    under p. That covariance is singular by construction (the bits of a
    one-hot block sum to 1, copied bits are dependent), so the Newton
    direction is its minimum-norm least-squares solve: from lambda = 0
    every step stays in the Hessian's row space, which makes the returned
    lambda the unique minimum-norm optimum. Armijo backtracking (shrink
    factor 0.5 from step 1.0) on the Newton step keeps the dual
    nonincreasing. Each evaluated lambda is exponentiated once: the
    accepted candidate's distribution gives the next gradient and
    Hessian and, at the end, the returned distribution. Raises
    FeasibilityError when a target falls outside the support's reachable
    box, ConvergenceError (carrying the partial solution) when max_iter
    is hit first.
    """
    if len(prior.support) == 0:
        raise DataError("empty support")
    features = feature_matrix(prior.support, constraints)
    targets = constraints.targets
    fmin, fmax = features.min(axis=0), features.max(axis=0)
    bad = np.flatnonzero((targets < fmin - FEASIBILITY_SLACK) | (targets > fmax + FEASIBILITY_SLACK))
    if len(bad):
        j = int(bad[0])
        raise FeasibilityError(
            f"target {targets[j]:.6g} for constraint {j} outside support range "
            f"[{fmin[j]:.6g}, {fmax[j]:.6g}]"
        )

    log_q = np.log(prior.probs)
    lam = np.zeros(features.shape[1])
    value, probs = _dual(lam, log_q, features, targets)
    trace = [value]
    iterations = 0
    converged = False
    while iterations < max_iter:
        mean = features.T @ probs
        grad = mean - targets
        if np.abs(grad).max() <= tol:
            converged = True
            break
        hessian = (features.T * probs) @ features - np.outer(mean, mean)
        direction = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        slope = float(grad @ direction)
        step = 1.0
        while True:
            candidate = lam - step * direction
            cand_value, cand_probs = _dual(candidate, log_q, features, targets)
            if cand_value <= value - 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-20:
                candidate = None  # descent direction numerically exhausted
                break
        if candidate is None:
            break
        lam, value, probs = candidate, cand_value, cand_probs
        trace.append(value)
        iterations += 1

    residual = float(np.abs(features.T @ probs - targets).max())
    converged = converged or residual <= tol
    solution = MaxEntSolution(
        lam=lam,
        distribution=DiscreteDistribution(prior.support, probs),
        residual=residual,
        iterations=iterations,
        converged=converged,
        objective_trace=np.asarray(trace),
    )
    if not converged:
        raise ConvergenceError(
            f"max-entropy dual not converged after {iterations} iterations "
            f"(residual {residual:.3g} > tol {tol:.3g})",
            solution=solution,
        )
    return solution


def sample_codes(distribution: DiscreteDistribution, n: int, seed: int) -> np.ndarray:
    """The (k,) count of n systematic draws on each support code.

    One uniform offset u places n evenly spaced points (u + j)/n on the
    cumulative distribution, so code i is drawn floor(n p_i) or
    ceil(n p_i) times, and n p_i times on average over seeds. i.i.d.
    draws would stack binomial noise on top of the solved re-weighting;
    one fixed rounding of every share can rebuild the source table when
    most shares are close to 1. Points past the last cumulative sum (by
    rounding) fall in the last cell.
    """
    if n < 1:
        raise DataError("n must be >= 1")
    u = np.random.default_rng(seed).random()
    cells = np.searchsorted(np.cumsum(distribution.probs)[:-1], (u + np.arange(n)) / n, side="right")
    return np.bincount(cells, minlength=len(distribution.probs))
