"""Acceptance checks, one test per shipped claim.

Each test prints a single summary line (visible under pytest -s); under
pytest -v the PASSED/FAILED column is the per-criterion verdict. Timing
bounds are asserted where the claim includes one.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import binary_group_dataset
from oracles import kl_projection, pairwise_auc
from ffpdg.data import load_csv, load_schema
from ffpdg.dp import PrivacyBudget, dp_covariance, dp_mean, laplace_sample
from ffpdg.maxent import (
    DiscreteDistribution,
    ParityConstraints,
    feature_matrix,
    solve_maxent,
)
from ffpdg.metrics import auc_roc, evaluate
from ffpdg.rongauss import (
    GenerationConfig,
    fit,
    generate,
    generate_with_artifacts,
    make_ron,
    sample,
)
from ffpdg.cli import bench_sizes, fit_growth_exponent

DATA = Path(__file__).resolve().parents[1] / "data"
TESTS = Path(__file__).resolve().parent


def _load_pair(name):
    schema = load_schema(DATA / f"{name}.schema")
    train = load_csv(DATA / f"{name}_sample.csv", schema)
    holdout = load_csv(DATA / f"{name}_holdout.csv", schema)
    return train, holdout


def test_criterion_1_projection_orthonormal_and_contractive():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_defect = 0.0
    violations = 0
    for i in range(100):
        d = int(rng.integers(2, 65))
        p = int(rng.integers(1, d))
        W = make_ron(d, p, seed=i).W
        defect = np.abs(W.T @ W - np.eye(p)).max()
        worst_defect = max(worst_defect, defect)
        X = rng.standard_normal((d, 1000))
        Y = rng.standard_normal((d, 1000))
        X /= np.linalg.norm(X, axis=0)
        Y /= np.linalg.norm(Y, axis=0)
        diff = X - Y
        violations += int(np.sum(
            np.linalg.norm(W.T @ diff, axis=0) > np.linalg.norm(diff, axis=0) + 1e-12
        ))
    elapsed = time.perf_counter() - start
    assert worst_defect <= 1e-10
    assert violations == 0
    assert elapsed < 5.0
    print(f"criterion 1: PASS (defect {worst_defect:.2e}, 0 violations, {elapsed:.2f}s)")


def test_criterion_2_maxent_matches_constrained_entropy_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_tv = 0.0
    worst_residual = 0.0
    for m in (2, 3, 4):
        support = np.array(list(itertools.product((0, 1), repeat=m)), dtype=np.uint8)
        k = len(support)
        prior = DiscreteDistribution(support, np.full(k, 1.0 / k))
        for _ in range(20):
            q = rng.dirichlet(np.ones(k))  # feasible targets by construction
            pb, lb = rng.choice(m, size=2, replace=False)
            constraints = ParityConstraints(
                theta=q @ support,
                joint_target=float(q @ (support[:, pb] * support[:, lb])),
                protected_bit=int(pb), label_bit=int(lb),
            )
            solution = solve_maxent(prior, constraints)
            features = feature_matrix(support, constraints)
            oracle = kl_projection(prior.probs, features, constraints.targets)
            tv = 0.5 * np.abs(solution.distribution.probs - oracle).sum()
            worst_tv = max(worst_tv, tv)
            worst_residual = max(worst_residual, solution.residual)
    elapsed = time.perf_counter() - start
    assert worst_tv <= 1e-3
    assert worst_residual <= 1e-4
    assert elapsed < 30.0
    print(f"criterion 2: PASS (max TV {worst_tv:.2e}, max residual "
          f"{worst_residual:.2e}, {elapsed:.2f}s)")


def test_criterion_3_fairness_transfer():
    dataset = binary_group_dataset(5000, rate_c0=0.2, rate_c1=0.6, seed=42,
                                   n_features=6)
    start = time.perf_counter()
    result = generate_with_artifacts(dataset, config=GenerationConfig(
        budget=PrivacyBudget.from_total(1.0), seed=4, bins=1))
    elapsed = time.perf_counter() - start
    fair_gap = abs(result.rates_after[0] - result.rates_after[1])
    y = result.dataset.column("y")
    c = result.dataset.column("c")
    syn_gap = abs(y[c == 1].mean() - y[c == 0].mean())
    assert syn_gap <= 0.05
    assert fair_gap <= 0.03
    assert elapsed < 10.0
    print(f"criterion 3: PASS (synthetic gap {syn_gap:.4f}, fair gap "
          f"{fair_gap:.4f}, {elapsed:.2f}s)")


def test_criterion_4_dp_noise_calibration():
    rng = np.random.default_rng(0)
    draws = laplace_sample(1.0, rng, 10**6)
    variance = draws.var()
    assert abs(variance - 2.0) <= 0.05
    pvalue = stats.kstest(draws, "laplace").pvalue
    assert pvalue > 0.01

    r = np.random.default_rng(4)
    X = r.standard_normal((6, 400))
    X /= np.linalg.norm(X, axis=0)
    mu_gap = np.abs(dp_mean(X, 400, 1e9, seed=1) - X.mean(axis=1)).max()
    sigma_gap = np.abs(dp_covariance(X, 400, 1e9, seed=2) - X @ X.T / 400).max()
    assert mu_gap < 1e-6
    assert sigma_gap < 1e-6
    print(f"criterion 4: PASS (var {variance:.4f}, KS p {pvalue:.3f}, "
          f"mean gap {mu_gap:.1e}, cov gap {sigma_gap:.1e})")


def test_criterion_5_regression_recovery_improves_with_n():
    from ffpdg.data import (
        BINARY, CONTINUOUS, ColumnSpec, Dataset, ROLE_LABEL, ROLE_PROTECTED, Schema,
    )

    d = 200
    cols = [ColumnSpec(f"x{j:03d}", CONTINUOUS) for j in range(d)]
    cols.append(ColumnSpec("c", BINARY, role=ROLE_PROTECTED))
    cols.append(ColumnSpec("y", CONTINUOUS, role=ROLE_LABEL))
    schema = Schema(tuple(cols))

    def make(n, beta, seed):
        r = np.random.default_rng(seed)
        z = r.random((n, d))
        c = (r.random(n) < 0.5).astype(float)
        y = z @ beta + r.normal(0.0, 0.1, n)
        return Dataset(schema, np.column_stack([z, c, y]))

    config = GenerationConfig(budget=PrivacyBudget.from_total(1e6), p=d,
                              seed=11, mode="regression")

    # The expanded matrix holds the z block, the protected bit, and the
    # constant anchor; min-max scaling keeps z coordinates proportional, so
    # a coefficient vector inside span(W) and orthogonal to the protected,
    # anchor, and all-ones directions passes through the pipeline intact up
    # to sampling noise. Probe the (seed, shape)-determined projection first.
    probe = make(300, np.zeros(d), 0)
    W = fit(probe, config).projection.W
    d_eff = W.shape[0]
    rng = np.random.default_rng(7)
    a = rng.standard_normal(W.shape[1])
    basis = []
    for direction in (np.eye(d_eff)[d],
                      np.concatenate([np.ones(d), [0.0, 0.0]]),
                      np.eye(d_eff)[d + 1]):
        v = W.T @ direction
        for u in basis:
            v = v - u * (u @ v)
        basis.append(v / np.linalg.norm(v))
    for u in basis:
        a = a - u * (u @ a)
    b = W @ a
    beta = b[:d] / np.linalg.norm(b[:d]) * 30.0

    errors = []
    for n in (100, 1000, 10000):
        data = make(n, beta, 1000 + n)
        model = fit(data, config)
        synthetic = sample(model, n, seed=5)
        Z = synthetic.values[:, :d]
        ys = synthetic.values[:, d + 1]
        A = np.column_stack([Z, np.ones(n)])
        coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
        errors.append(np.linalg.norm(coef[:d] - beta) / np.linalg.norm(beta))
    assert all(a > b for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] <= 0.1, errors
    print("criterion 5: PASS (relative errors "
          + " -> ".join(f"{e:.4f}" for e in errors) + ")")


def test_criterion_6_headline_fairness_and_utility():
    start = time.perf_counter()
    budget = PrivacyBudget.from_total(1.0)
    summary = {}
    for name in ("adult", "compas"):
        train, holdout = _load_pair(name)
        aucs, dsps, lrds = [], [], []
        for seed in range(10):
            result = generate_with_artifacts(train, config=GenerationConfig(
                budget=budget, seed=seed, bins=1))
            report = evaluate(train, holdout, result.dataset, seed=seed)
            aucs.append(report.aucroc_best)
            dsps.append(report.dsp)
            lrds.append(report.lrd)
        summary[name] = (max(aucs), float(np.median(dsps)), float(np.median(lrds)))
    elapsed = time.perf_counter() - start

    adult_auc, adult_dsp, adult_lrd = summary["adult"]
    assert adult_auc >= 0.70
    assert adult_dsp <= 0.10
    assert adult_lrd >= 0.10
    compas_auc, compas_dsp, _ = summary["compas"]
    assert compas_auc >= 0.60
    assert compas_dsp <= 0.10
    assert elapsed < 300.0
    print(f"criterion 6: PASS (adult auc {adult_auc:.3f} dsp {adult_dsp:.3f} "
          f"lrd {adult_lrd:.3f}; compas auc {compas_auc:.3f} dsp "
          f"{compas_dsp:.3f}; {elapsed:.1f}s)")


def test_criterion_7_identity_generator_baseline():
    train, holdout = _load_pair("adult")
    # identity synthetic = the training extract; the zoo is scored on the
    # holdout, and the discriminator compares the extract against the
    # holdout's real rows, so an LRD of 0.5 means indistinguishable
    report = evaluate(holdout, holdout, train, seed=0)
    best, score = report.aucroc_best, report.lrd
    assert 0.84 - 0.03 <= best <= 0.84 + 0.03, best
    assert 0.5 - 0.05 <= score <= 0.5 + 0.05, score
    print(f"criterion 7: PASS (TSTR {best:.4f}, LRD {score:.4f})")


def test_criterion_8_speed_and_growth():
    # wall-clock bound measured with BLAS pinned to one thread in a fresh
    # interpreter
    code = "\n".join([
        "import sys, time",
        f"sys.path.insert(0, {str(TESTS)!r})",
        "from benchdata import make_adult",
        "from ffpdg.dp import PrivacyBudget",
        "from ffpdg.rongauss import GenerationConfig, generate",
        "data = make_adult(30000, 101)",
        "start = time.perf_counter()",
        "generate(data, config=GenerationConfig("
        "budget=PrivacyBudget.from_total(1.0), seed=0, bins=1))",
        "print(f'seconds={time.perf_counter() - start:.3f}')",
    ])
    env = dict(os.environ,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
               VECLIB_MAXIMUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seconds = float(proc.stdout.strip().split("=")[1])
    assert seconds < 10.0

    from benchdata import make_adult
    data = make_adult(30000, 101)
    config = GenerationConfig(budget=PrivacyBudget.from_total(1.0), seed=0, bins=1)
    rng = np.random.default_rng(0)
    order = rng.permutation(data.n)
    sizes = bench_sizes(data.n)
    generate(data.take(order[:1000]), config=config)  # warm caches
    times = []
    for size in sizes:
        subset = data.take(order[:size])
        t0 = time.perf_counter()
        generate(subset, config=config)
        times.append(time.perf_counter() - t0)
    exponent = fit_growth_exponent(sizes, times)
    assert exponent <= 2.5, (sizes, times, exponent)
    print(f"criterion 8: PASS (30k rows in {seconds:.2f}s single-threaded, "
          f"growth exponent {exponent:.2f})")


def test_criterion_9_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        labels = np.zeros(n)
        labels[: int(rng.integers(1, n))] = 1.0
        rng.shuffle(labels)
        scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        assert auc_roc(scores, labels) == pairwise_auc(scores, labels)
    print("criterion 9: PASS (1000 instances, exact match)")
