"""Max-entropy fair re-distribution: solver, targets, code sampling."""

from pathlib import Path

import numpy as np
import pytest

from benchdata import make_adult, make_wide
from oracles import (kl_projection, row_codebook, row_fair_marginals, row_group_rates,
                     two_pass_dual_descent)
from ffpdg.binarize import build_codebook
from ffpdg.data import group_rates, load_csv, load_schema
from ffpdg.errors import ConvergenceError, DataError, FeasibilityError
from ffpdg.maxent import (
    DiscreteDistribution,
    ParityConstraints,
    empirical_prior,
    fair_marginals,
    feature_matrix,
    sample_codes,
    solve_maxent,
)

DATA = Path(__file__).resolve().parents[1] / "data"


def counts_to_binary(counts):
    """Rows for explicit (c, y) cell counts {(c, y): count}."""
    rows = []
    for (c, y), k in counts.items():
        rows += [[c, y]] * k
    return np.asarray(rows, dtype=np.uint8)


def histogram(binary):
    """(distinct codes, row counts) of a bit matrix."""
    keys, counts, _ = row_codebook(binary)
    return keys, counts


def prior_of(binary, smooth=0.1):
    return empirical_prior(*histogram(binary), smooth)


def full_support(m):
    return np.array(
        [[(i >> b) & 1 for b in range(m - 1, -1, -1)] for i in range(2 ** m)],
        dtype=np.uint8,
    )


def tv(p, q):
    return 0.5 * float(np.abs(p - q).sum())


def test_four_cell_solution_is_the_unique_feasible_point():
    # P(C=1)=0.5, P(Y=1|C=1)=0.6, P(Y=1|C=0)=0.2; parity moves both group
    # rates to the overall 0.4, and with 4 cells the constraints (two bit
    # means, the product, normalization) pin the answer completely:
    # p11=0.2, p10=0.3, p01=0.2, p00=0.3, whatever the prior.
    binary = counts_to_binary({(1, 1): 30, (1, 0): 20, (0, 1): 10, (0, 0): 40})
    constraints = fair_marginals(*histogram(binary), protected_bit=0, label_bit=1)
    assert constraints.joint_target == pytest.approx(0.2)
    for smooth in (0.0, 0.1, 2.0):
        prior = prior_of(binary, smooth=smooth)
        sol = solve_maxent(prior, constraints)
        cells = {tuple(code): p for code, p in zip(sol.distribution.support, sol.distribution.probs)}
        assert cells[(0, 0)] == pytest.approx(0.3, abs=1e-5)
        assert cells[(0, 1)] == pytest.approx(0.2, abs=1e-5)
        assert cells[(1, 0)] == pytest.approx(0.3, abs=1e-5)
        assert cells[(1, 1)] == pytest.approx(0.2, abs=1e-5)
        assert sol.converged and sol.residual <= 1e-6


def test_solver_matches_primal_reference_on_random_problems():
    r = np.random.default_rng(6)
    for m in (2, 3, 4):
        support = full_support(m)
        for _ in range(8):
            prior = DiscreteDistribution(support, r.dirichlet(np.full(len(support), 2.0)))
            # targets from a random full-support distribution are feasible
            # and interior by construction
            target_dist = r.dirichlet(np.full(len(support), 2.0))
            protected, label = r.choice(m, size=2, replace=False)
            constraints = ParityConstraints(
                theta=support.astype(float).T @ target_dist,
                joint_target=float(
                    (support[:, protected] * support[:, label]) @ target_dist
                ),
                protected_bit=int(protected),
                label_bit=int(label),
            )
            sol = solve_maxent(prior, constraints)
            reference = kl_projection(
                prior.probs, feature_matrix(support, constraints), constraints.targets
            )
            assert tv(sol.distribution.probs, reference) <= 1e-3
            assert sol.residual <= 1e-4


def test_dual_objective_trace_never_increases():
    binary = (np.random.default_rng(3).random((400, 4)) < 0.4).astype(np.uint8)
    sol = solve_maxent(prior_of(binary), fair_marginals(*histogram(binary), 0, 3))
    assert np.all(np.diff(sol.objective_trace) <= 0.0)


def test_residual_is_the_constraint_gap_of_the_returned_distribution():
    binary = (np.random.default_rng(9).random((300, 3)) < 0.5).astype(np.uint8)
    constraints = fair_marginals(*histogram(binary), 0, 2)
    sol = solve_maxent(prior_of(binary), constraints)
    phi = feature_matrix(sol.distribution.support, constraints)
    gap = np.abs(phi.T @ sol.distribution.probs - constraints.targets).max()
    assert sol.residual == pytest.approx(float(gap), abs=1e-12)


def test_infeasible_target_raises():
    support = full_support(2)
    prior = DiscreteDistribution(support, np.full(4, 0.25))
    bad = ParityConstraints(
        theta=np.array([1.5, 0.5]), joint_target=0.25, protected_bit=0, label_bit=1
    )
    with pytest.raises(FeasibilityError, match="outside support range"):
        solve_maxent(prior, bad)


def test_convergence_error_carries_partial_solution():
    binary = (np.random.default_rng(1).random((500, 4)) < 0.3).astype(np.uint8)
    with pytest.raises(ConvergenceError) as err:
        solve_maxent(prior_of(binary), fair_marginals(*histogram(binary), 0, 3), max_iter=1)
    partial = err.value.solution
    assert partial is not None and not partial.converged
    assert partial.residual > 1e-6


def test_fair_marginals_exact_parity_targets():
    binary = counts_to_binary({(1, 1): 30, (1, 0): 20, (0, 1): 10, (0, 0): 40})
    constraints = fair_marginals(*histogram(binary), 0, 1, rate=1.0)
    assert np.allclose(constraints.theta, [0.5, 0.4])
    # parity: E[CY] = P(C=1) * overall rate
    assert constraints.joint_target == pytest.approx(0.5 * 0.4)


def test_fair_marginals_relaxed_rate():
    binary = counts_to_binary({(1, 1): 30, (1, 0): 20, (0, 1): 10, (0, 0): 40})
    # r0=0.2, r1=0.6, c=0.5, r=0.4; at tau=0.5 the rates become
    # t1 = r / ((1-c) tau + c) = 0.5333..., t0 = tau t1, joint = c t1
    constraints = fair_marginals(*histogram(binary), 0, 1, rate=0.5)
    assert constraints.joint_target == pytest.approx(0.5 * 0.4 / 0.75)
    # already fair enough: targets keep the observed joint
    lax = fair_marginals(*histogram(binary), 0, 1, rate=0.3)
    assert lax.joint_target == pytest.approx(0.3)  # observed E[CY] = 30/100


def test_fair_marginals_validation():
    binary = counts_to_binary({(1, 1): 5, (0, 0): 5})
    with pytest.raises(DataError):
        fair_marginals(*histogram(binary), 1, 1)
    with pytest.raises(DataError):
        fair_marginals(*histogram(binary), 0, 1, rate=0.0)
    all_one_group = counts_to_binary({(1, 1): 5, (1, 0): 5})
    with pytest.raises(DataError, match="protected group 0 has no rows"):
        fair_marginals(*histogram(all_one_group), 0, 1)
    with pytest.raises(DataError, match="protected group 0 has no rows"):
        group_rates(all_one_group[:, 1], all_one_group[:, 0])


@pytest.mark.parametrize("name, bins", [("adult", 1), ("adult", 3), ("compas", 1),
                                        ("compas", 3), ("wide", 1)])
def test_histogram_targets_and_rates_equal_the_row_means_bit_for_bit(name, bins):
    # the bundled extracts, and a wide simulation with nearly every code distinct
    if name == "wide":
        ds = make_wide(5000, 1)
    else:
        ds = load_csv(DATA / f"{name}_sample.csv", load_schema(DATA / f"{name}.schema"))
    bits, book = build_codebook(ds, bins)
    protected = book.bits(ds.schema.protected_index)[0]
    label = book.bits(ds.schema.label_index)[0]
    want_rates = row_group_rates(bits, protected, label)
    assert group_rates(book.keys[:, label], book.keys[:, protected], book.counts) == want_rates
    assert group_rates(bits[:, label], bits[:, protected]) == want_rates
    # 1 and 0.9 move the joint to a target; 1e-9 keeps the observed joint
    for rate in (1.0, 0.9, 1e-9):
        got = fair_marginals(book.keys, book.counts, protected, label, rate)
        want = row_fair_marginals(bits, protected, label, rate)
        assert np.array_equal(got.theta, want.theta)
        assert got.joint_target == want.joint_target


def test_empirical_prior_smoothing_formula():
    support = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    prior = empirical_prior(support, np.array([3, 1]), smooth=0.1)
    want = np.array([3.1, 1.1]) / 4.2
    assert np.allclose(prior.probs, want / want.sum(), atol=1e-15)
    assert prior.support.tolist() == [[0, 0], [1, 1]]
    with pytest.raises(DataError):
        empirical_prior(support, np.array([3, 1, 2]))


def test_sample_code_counts_are_floors_or_ceilings_of_the_shares():
    r = np.random.default_rng(17)
    support = full_support(6)
    for trial in range(200):
        probs = r.dirichlet(np.full(len(support), r.choice([0.05, 1.0, 20.0])))
        k = int(r.integers(1, 400))
        codes = sample_codes(DiscreteDistribution(support, probs), k, seed=trial)
        assert codes.shape == (k, 6)
        # full_support lists codes in binary order, so a code's cell is its value
        counts = np.bincount(codes @ (1 << np.arange(5, -1, -1)), minlength=len(support))
        share = probs * k
        assert np.all((counts == np.floor(share)) | (counts == np.ceil(share)))


def test_sample_code_counts_move_by_at_most_one_across_seeds_and_average_the_share():
    r = np.random.default_rng(17)
    support = full_support(3)
    dist = DiscreteDistribution(support, r.dirichlet(np.ones(8)))
    counts = np.array([np.bincount(sample_codes(dist, 503, seed) @ [4, 2, 1], minlength=8)
                       for seed in range(1, 41)])
    assert np.all(counts.max(axis=0) - counts.min(axis=0) <= 1)
    assert np.array_equal(sample_codes(dist, 503, seed=1), sample_codes(dist, 503, seed=1))
    # shares 2.4, 2.6, 5.0: the seed decides floor or ceiling, and over many
    # seeds each cell's mean count is its share (one fixed rounding would
    # stay 0.4 away from two of them)
    dist = DiscreteDistribution(full_support(2)[:3], np.array([0.24, 0.26, 0.5]))
    mean = np.mean([np.bincount(sample_codes(dist, 10, seed) @ [2, 1], minlength=3)
                    for seed in range(400)], axis=0)
    assert np.allclose(mean, [2.4, 2.6, 5.0], atol=0.1)


def test_sample_codes_keeps_the_solved_parity_on_a_wide_support():
    # about 5k distinct 16-bit codes from 6k rows: nearly every share p*n
    # is close to 1, where rounding each share to a count would restore the
    # source table's group gap (about 0.19 here) instead of the solution's
    r = np.random.default_rng(5)
    n = 6000
    c = r.random(n) < 0.6
    y = r.random(n) < np.where(c, 0.68, 0.49)
    binary = np.column_stack([c, y, r.random((n, 14)) < 0.5]).astype(np.uint8)
    sol = solve_maxent(prior_of(binary), fair_marginals(*histogram(binary), 0, 1))
    assert len(sol.distribution.support) > 4500
    rates_before = group_rates(binary[:, 1], binary[:, 0])
    assert abs(rates_before[0] - rates_before[1]) > 0.15
    for seed in range(5):
        codes = sample_codes(sol.distribution, n, seed)
        rates = group_rates(codes[:, 1], codes[:, 0])
        assert abs(rates[0] - rates[1]) <= 0.01


def test_distribution_validation():
    support = full_support(2)
    with pytest.raises(DataError):
        DiscreteDistribution(support, np.array([0.5, 0.5, 0.2, -0.2]))
    with pytest.raises(DataError):
        DiscreteDistribution(support, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(DataError):
        DiscreteDistribution(np.vstack([support, support[:1]]), np.full(5, 0.2))
    # entries outside {0, 1} are rejected, not cast or read as a set bit
    for bad in ([[0, 2], [1, 0]], [[0.7, 1], [1, 0]]):
        with pytest.raises(DataError, match="only 0 and 1"):
            DiscreteDistribution(np.array(bad), np.full(2, 0.5))


def adult_like_problem():
    ds = make_adult(3000, 5)
    book = build_codebook(ds, 2)[1]
    protected = book.bits(ds.schema.protected_index)[0]
    label = book.bits(ds.schema.label_index)[0]
    return (empirical_prior(book.keys, book.counts),
            fair_marginals(book.keys, book.counts, protected, label))


def wide_like_problem():
    # 28 near-uniform bits over 3000 rows: almost every code is distinct
    r = np.random.default_rng(3)
    binary = (r.random((3000, 28)) < 0.5).astype(np.uint8)
    binary[:, -1] = r.random(3000) < 0.3 + 0.4 * binary[:, 0]
    return prior_of(binary), fair_marginals(*histogram(binary), 0, 27)


def backtracking_problem():
    # twelve copies of one feature bit make the dual steep along the
    # gradient, so the unit step overshoots and Armijo halves it
    r = np.random.default_rng(4)
    c, f = r.random(400) < 0.5, r.random(400) < 0.5
    y = r.random(400) < np.where(c, 0.7, 0.3)
    binary = np.column_stack([c, y] + [f] * 12).astype(np.uint8)
    return prior_of(binary), fair_marginals(*histogram(binary), 0, 1)


def one_hot_problem():
    # a 5-level categorical column as a one-hot block: its bits sum to 1
    # on every code, so the Hessian has the block's all-ones null vector
    r = np.random.default_rng(8)
    c = r.random(600) < 0.4
    level = r.integers(0, 5, 600)
    y = r.random(600) < 0.2 + 0.05 * level + 0.3 * c
    binary = np.column_stack([c, y, np.eye(5, dtype=bool)[level]]).astype(np.uint8)
    return prior_of(binary), fair_marginals(*histogram(binary), 0, 1)


@pytest.mark.parametrize("problem", [adult_like_problem, wide_like_problem, backtracking_problem])
def test_solver_reaches_the_two_pass_descent_optimum_in_few_newton_steps(problem):
    prior, constraints = problem()
    want = two_pass_dual_descent(prior, constraints)
    sol = solve_maxent(prior, constraints)
    assert tv(sol.distribution.probs, want["probs"]) <= 1e-5
    assert sol.converged and sol.residual <= 1e-6
    assert sol.iterations <= 20  # the descent takes hundreds
    if problem is backtracking_problem:
        assert want["backtracks"] > 0


def test_convergence_error_solution_is_the_partial_newton_step():
    prior, constraints = adult_like_problem()
    with pytest.raises(ConvergenceError) as err:
        solve_maxent(prior, constraints, max_iter=1)
    partial = err.value.solution
    assert partial.iterations == 1 and not partial.converged
    assert len(partial.objective_trace) == 2
    assert partial.objective_trace[1] < partial.objective_trace[0]
    phi = feature_matrix(partial.distribution.support, constraints)
    gap = np.abs(phi.T @ partial.distribution.probs - constraints.targets).max()
    assert partial.residual == float(gap) > 1e-6


@pytest.mark.parametrize("problem, nullity", [(backtracking_problem, 11), (one_hot_problem, 1)])
def test_solution_lambda_is_the_minimum_norm_optimum(problem, nullity):
    # the dual is flat along the Hessian's null vectors; the minimum-norm
    # Newton solve never moves lambda along them
    prior, constraints = problem()
    sol = solve_maxent(prior, constraints)
    phi = feature_matrix(sol.distribution.support, constraints)
    p = sol.distribution.probs
    mean = phi.T @ p
    _, s, vt = np.linalg.svd((phi.T * p) @ phi - np.outer(mean, mean))
    null = vt[s <= 1e-10 * s[0]]
    assert len(null) == nullity
    assert np.abs(null @ sol.lam).max() <= 1e-8
    if problem is backtracking_problem:
        assert np.ptp(sol.lam[2:14]) <= 1e-8  # the twelve copies weigh alike
