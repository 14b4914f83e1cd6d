"""Metric definitions: AUC against a pair-counting oracle, fairness gaps,
disparate impact, the real-vs-synthetic discriminator, and the report."""

import numpy as np
import pytest

from conftest import binary_group_dataset, mixed_dataset
from oracles import pairwise_auc
from ffpdg.data import Dataset
from ffpdg.errors import DataError
from ffpdg.metrics import (
    EvalReport,
    auc_roc,
    deo,
    disparate_impact,
    dsp,
    evaluate,
    lrd,
)


def test_auc_matches_pairwise_oracle_with_ties():
    r = np.random.default_rng(0)
    for _ in range(300):
        n = int(r.integers(2, 51))
        labels = r.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # small integer scores force plenty of ties
        scores = r.integers(0, 5, n).astype(float)
        assert auc_roc(scores, labels) == pairwise_auc(scores, labels)


def test_auc_invariant_under_monotone_transforms():
    r = np.random.default_rng(1)
    scores = r.normal(size=100)
    labels = (r.random(100) < 0.4).astype(float)
    base = auc_roc(scores, labels)
    assert auc_roc(3.0 * scores + 7.0, labels) == base
    assert auc_roc(np.exp(scores), labels) == base


def test_auc_complement_symmetry():
    r = np.random.default_rng(2)
    scores = r.integers(0, 4, 60).astype(float)
    labels = (r.random(60) < 0.5).astype(float)
    labels[0], labels[1] = 0.0, 1.0
    assert auc_roc(scores, labels) + auc_roc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_auc_perfect_and_chance():
    assert auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc_roc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auc_requires_both_classes():
    with pytest.raises(DataError):
        auc_roc([0.1, 0.2], [1, 1])


def test_deo_and_dsp_hand_values():
    #            group:   0  0  0  1  1  1
    predictions = np.array([1, 1, 0, 1, 0, 0], dtype=float)
    labels = np.array([1, 1, 0, 1, 1, 0], dtype=float)
    groups = np.array([0, 0, 0, 1, 1, 1], dtype=float)
    # TPR group0 = 2/2, TPR group1 = 1/2
    assert deo(predictions, labels, groups) == pytest.approx(0.5)
    # positive rate group0 = 2/3, group1 = 1/3
    assert dsp(predictions, groups) == pytest.approx(1.0 / 3.0)


def test_dsp_zero_for_group_blind_predictions():
    predictions = np.array([1, 0, 1, 0], dtype=float)
    groups = np.array([0, 0, 1, 1], dtype=float)
    assert dsp(predictions, groups) == 0.0


def test_deo_requires_positives_in_both_groups():
    with pytest.raises(DataError, match="protected group 1 has no rows"):
        deo(np.ones(4), np.array([1, 1, 0, 0], dtype=float),
            np.array([0, 0, 1, 1], dtype=float))


def test_disparate_impact_ratio_and_boundary():
    labels = np.array([1, 0, 0, 0, 1, 1, 1, 1], dtype=float)
    groups = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
    ratio, flag = disparate_impact(labels, groups)
    assert ratio == pytest.approx(0.25)
    assert flag
    # the flag is <= 0.8, so 0.8 exactly is flagged and 0.82 is not
    labels2 = np.concatenate([np.repeat([1.0], 4), np.repeat([0.0], 1),
                              np.repeat([1.0], 5)])
    groups2 = np.array([0] * 5 + [1] * 5, dtype=float)
    ratio2, flag2 = disparate_impact(labels2, groups2)
    assert ratio2 == pytest.approx(0.8) and flag2
    labels3 = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 1] * 5, dtype=float)
    groups3 = np.array([0] * 25 + [1] * 25, dtype=float)
    ratio3, flag3 = disparate_impact(labels3, groups3)
    assert ratio3 > 0.8 and not flag3


def test_disparate_impact_zero_privileged_rate_is_an_error():
    with pytest.raises(DataError, match="privileged"):
        disparate_impact(np.array([1, 1, 0, 0], dtype=float),
                         np.array([0, 0, 1, 1], dtype=float))


def test_lrd_near_half_for_same_distribution():
    for seed in range(3):
        a = mixed_dataset(600, seed=20 + seed)
        b = mixed_dataset(600, seed=40 + seed)
        assert abs(lrd(a, b, seed=seed) - 0.5) <= 0.05


def test_lrd_near_zero_for_disjoint_distributions():
    a = mixed_dataset(400, seed=1)
    shifted = a.values.copy()
    shifted[:, 0] += 200.0
    assert lrd(a, Dataset(a.schema, shifted), seed=0) <= 0.05


def test_lrd_subsamples_and_validates():
    big = mixed_dataset(900, seed=2)
    small = mixed_dataset(300, seed=3)
    value = lrd(big, small, seed=0)  # sides unequal: larger one is subsampled
    assert 0.0 <= value <= 1.0
    with pytest.raises(DataError):
        lrd(big, small, folds=1)
    other = binary_group_dataset(300, 0.2, 0.6, seed=0)
    with pytest.raises(DataError, match="schemas differ"):
        lrd(big, other)


def test_tstr_cannot_see_the_protected_column():
    # label equals the protected bit on 95% of rows (DEO needs positives in
    # both groups); every other feature is noise. a leak would give AUC
    # ~0.95, a clean split leaves it near chance.
    ds = binary_group_dataset(1500, 0.05, 0.95, seed=3, n_features=4)
    train, test = ds.take(np.arange(1000)), ds.take(np.arange(1000, 1500))
    report = evaluate(train, test, train)
    assert report.aucroc_best < 0.6
    assert set(report.aucroc_per_model) == {"logistic_regression", "gaussian_nb",
                                            "bernoulli_nb", "decision_tree"}


def informative_dataset(n, seed):
    """Label driven by a visible feature, so TSTR has signal to find."""
    from ffpdg.data import BINARY, ColumnSpec, ROLE_LABEL, ROLE_PROTECTED, Schema

    r = np.random.default_rng(seed)
    f = (r.random((n, 3)) < 0.5).astype(float)
    c = (r.random(n) < 0.5).astype(float)
    y = (r.random(n) < np.where(f[:, 0] == 1, 0.85, 0.15)).astype(float)
    schema = Schema((
        ColumnSpec("f0", BINARY), ColumnSpec("f1", BINARY), ColumnSpec("f2", BINARY),
        ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
        ColumnSpec("y", BINARY, role=ROLE_LABEL),
    ))
    return Dataset(schema, np.column_stack([f, c, y]))


def test_evaluate_report_contents_and_kv_keys():
    real = informative_dataset(900, seed=4)
    train, test = real.take(np.arange(600)), real.take(np.arange(600, 900))
    synthetic = informative_dataset(600, seed=5)
    report = evaluate(train, test, synthetic, seed=0)
    assert 0.6 <= report.aucroc_best <= 1.0
    assert len(report.aucroc_per_model) == 4
    kv_lines = report.to_kv().splitlines()
    assert [line.split("=")[0] for line in kv_lines] == [
        "aucroc_best", "deo", "dsp", "di_ratio", "lrd",
    ]
    for line in kv_lines:
        float(line.split("=", 1)[1])  # every value is a plain number
    text = report.to_text()
    assert "AUCROC best" in text and "LRD" in text


def test_evaluate_checks_schema_and_column_names():
    real = binary_group_dataset(200, 0.3, 0.7, seed=6)
    other = mixed_dataset(200, seed=7)
    with pytest.raises(DataError, match="inconsistent"):
        evaluate(real, real, other)


def test_report_rejects_out_of_range_metrics():
    with pytest.raises(DataError, match="outside"):
        EvalReport(aucroc_best=1.2, aucroc_per_model={}, deo=0.0, dsp=0.0,
                   disparate_impact_ratio=1.0, disparate_impact_flag=False,
                   lrd=0.5)
