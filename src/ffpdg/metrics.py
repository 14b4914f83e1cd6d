"""Fairness, utility, and privacy-robustness metrics for dataset pairs.

Utility is train-on-synthetic / test-on-real AUC over the classifier
zoo. Fairness is the absolute equal-opportunity and statistical-parity
gaps of the zoo's thresholded predictions, plus the disparate-impact
ratio of the synthetic data itself. Privacy robustness is one minus the
cross-validated AUC of a logistic regression telling real rows from
synthetic ones, so 0.5 means indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .data import BINARY, Dataset, average_ranks, group_rates
from .errors import DataError

PREDICTION_THRESHOLD = 0.5
LRD_FOLDS = 5  # stratified cross-validation folds of the real-vs-synthetic discriminator


def auc_roc(scores, labels) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n1 = int(labels.sum())
    n0 = len(labels) - n1
    if n1 == 0 or n0 == 0:
        raise DataError("auc_roc needs both classes")
    ranks = average_ranks(scores)
    return float((ranks[labels == 1].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def _split_columns(dataset: Dataset):
    """(features, labels, protected): the zoo never sees the protected column.

    The zoo and the fairness gaps score a 0/1 label: a binary column or a
    categorical one with two levels.
    """
    schema = dataset.schema
    if schema.label_index is None:
        raise DataError("dataset has no label column")
    label = schema.columns[schema.label_index]
    if not (label.kind == BINARY or len(label.levels) == 2):
        levels = f" with {len(label.levels)} levels" if label.levels else ""
        raise DataError(f"evaluation needs a 0/1 label, but label column {label.name!r} "
                        f"is {label.kind}{levels}")
    drop = {schema.label_index, schema.protected_index}
    keep = [j for j in range(schema.d) if j not in drop]
    X = dataset.values[:, keep]
    return X, dataset.values[:, schema.label_index], dataset.values[:, schema.protected_index]


def dsp(predictions, protected) -> float:
    """Absolute gap in positive prediction rate between the two groups."""
    rate0, rate1 = group_rates(predictions, protected)
    return abs(rate0 - rate1)


def deo(predictions, labels, protected) -> float:
    """Absolute gap in true positive rate between the two groups: the DSP
    of the positive-label rows."""
    positive = np.asarray(labels) == 1
    return dsp(np.asarray(predictions)[positive], np.asarray(protected)[positive])


def disparate_impact(labels, protected) -> tuple[float, bool]:
    """Positive-rate ratio P(Y=1|C=0)/P(Y=1|C=1) and the <= 0.8 flag."""
    rate0, rate1 = group_rates(labels, protected)
    if rate1 == 0.0:
        raise DataError("privileged group has zero positive rate; ratio undefined")
    ratio = rate0 / rate1
    return ratio, ratio <= 0.8


def _stratified_folds(labels, k, rng):
    folds = [[] for _ in range(k)]
    for cls in (0.0, 1.0):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise DataError(f"class {int(cls)} has {len(idx)} rows, cannot stratify {k} folds")
        idx = rng.permutation(idx)
        for i, chunk in enumerate(np.array_split(idx, k)):
            folds[i].append(chunk)
    return [np.concatenate(parts) for parts in folds]


def lrd(real: Dataset, synthetic: Dataset, seed: int = 0) -> float:
    """One minus the mean CV AUC of a real-vs-synthetic discriminator.

    Rows are pooled with origin labels (real=1), the larger side seeded-
    subsampled to match the smaller, and a logistic regression scored by
    stratified `LRD_FOLDS`-fold cross validation.
    """
    if real.schema.columns != synthetic.schema.columns:
        raise DataError("real and synthetic schemas differ")
    rng = np.random.default_rng(seed)
    A, B = real.values, synthetic.values
    m = min(len(A), len(B))
    if len(A) > m:
        A = A[rng.choice(len(A), m, replace=False)]
    if len(B) > m:
        B = B[rng.choice(len(B), m, replace=False)]
    X = np.vstack([A, B])
    y = np.concatenate([np.ones(m), np.zeros(m)])

    aucs = []
    for test_idx in _stratified_folds(y, LRD_FOLDS, rng):
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        clf = models.fit(models.LOGISTIC_REGRESSION, X[train_mask], y[train_mask])
        aucs.append(auc_roc(models.predict_proba(clf, X[test_idx]), y[test_idx]))
    return float(1.0 - np.mean(aucs))


@dataclass(frozen=True)
class EvalReport:
    """One evaluation's metrics, with an AUC for each of the four zoo models."""

    aucroc_best: float
    aucroc_per_model: dict
    deo: float
    dsp: float
    disparate_impact_ratio: float
    disparate_impact_flag: bool
    lrd: float

    def __post_init__(self):
        for name in ("aucroc_best", "deo", "dsp", "lrd"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name}={v} outside [0,1]")
        if self.disparate_impact_ratio < 0:
            raise DataError("disparate impact ratio must be >= 0")

    def to_text(self) -> str:
        rows = [
            ("AUCROC best", f"{self.aucroc_best:.4f}", "max over zoo, trained on synthetic"),
            ("DEO", f"{self.deo:.4f}", "mean absolute TPR gap at threshold 0.5"),
            ("DSP", f"{self.dsp:.4f}", "mean absolute positive-rate gap at threshold 0.5"),
            ("DI ratio", f"{self.disparate_impact_ratio:.4f}",
             "flagged" if self.disparate_impact_flag else "not flagged (> 0.8)"),
            ("LRD", f"{self.lrd:.4f}", "1 - discriminator CV AUC"),
        ]
        for kind in sorted(self.aucroc_per_model):
            rows.append((f"  AUCROC {kind}", f"{self.aucroc_per_model[kind]:.4f}", ""))
        w0 = max(len(r[0]) for r in rows)
        w1 = max(len(r[1]) for r in rows)
        lines = [f"{'metric':<{w0}}  {'value':>{w1}}  notes"]
        lines += [f"{a:<{w0}}  {b:>{w1}}  {c}".rstrip() for a, b, c in rows]
        return "\n".join(lines)

    def to_kv(self) -> str:
        """One metric per line, for machine consumption. Exactly these keys."""
        lines = [
            f"aucroc_best={self.aucroc_best:.6f}",
            f"deo={self.deo:.6f}",
            f"dsp={self.dsp:.6f}",
            f"di_ratio={self.disparate_impact_ratio:.6f}",
            f"lrd={self.lrd:.6f}",
        ]
        return "\n".join(lines)


def evaluate(real_train: Dataset, real_test: Dataset, synthetic: Dataset, seed: int = 0) -> EvalReport:
    """Full metric suite over (real train, real test, synthetic)."""
    for other in (real_test, synthetic):
        if other.schema.columns != real_train.schema.columns:
            raise DataError("dataset schemas are inconsistent")

    Xs, ys, csyn = _split_columns(synthetic)
    Xr, yr, cr = _split_columns(real_test)
    scores = {}  # each zoo model's class-1 probabilities on the real rows
    for kind in models.ZOO:  # fixed order keeps reports deterministic
        try:  # every fit runs the same input checks, so one failure ends the evaluation
            clf = models.fit(kind, Xs, ys)
        except DataError as exc:
            raise DataError(f"the synthetic rows cannot train the zoo: {exc}") from None
        scores[kind] = models.predict_proba(clf, Xr)
    predictions = [(proba >= PREDICTION_THRESHOLD).astype(float) for proba in scores.values()]
    try:
        per_model = {kind: auc_roc(s, yr) for kind, s in scores.items()}
        deo_vals = [deo(pred, yr, cr) for pred in predictions]
        dsp_vals = [dsp(pred, cr) for pred in predictions]
    except DataError as exc:
        raise DataError(f"the held-out rows cannot score the zoo: {exc}") from None

    ratio, flag = disparate_impact(ys, csyn)
    lrd_value = lrd(real_train, synthetic, seed=seed)

    return EvalReport(
        aucroc_best=max(per_model.values()),
        aucroc_per_model=per_model,
        deo=float(np.mean(deo_vals)),
        dsp=float(np.mean(dsp_vals)),
        disparate_impact_ratio=ratio,
        disparate_impact_flag=flag,
        lrd=lrd_value,
    )
