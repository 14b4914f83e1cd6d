"""Fairness, utility, and privacy-robustness metrics for dataset pairs.

Utility is train-on-synthetic / test-on-real AUC over the classifier
zoo. Fairness is the absolute equal-opportunity and statistical-parity
gaps of the zoo's thresholded predictions, plus the disparate-impact
ratio of the synthetic data itself. Privacy robustness is one minus the
cross-validated AUC of a logistic regression telling real rows from
synthetic ones, so 0.5 means indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .data import BINARY, Dataset, average_ranks
from .errors import DataError

PREDICTION_THRESHOLD = 0.5


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


def _score_zoo(Xs, ys, Xr, yr):
    """Fit each zoo model once on synthetic rows and score it once on real rows.

    Returns (per-model AUCs, per-model class-1 probabilities on the real
    rows, skipped models with their errors). A model whose fit fails is
    skipped and recorded rather than fatal.
    """
    scores, skipped = {}, {}
    for kind in models.ZOO:  # fixed order keeps reports deterministic
        try:
            clf = models.fit(kind, Xs, ys)
        except DataError as exc:
            skipped[kind] = str(exc)
            continue
        scores[kind] = models.predict_proba(clf, Xr)
    if not scores:
        raise DataError("every zoo model failed to fit: " + "; ".join(skipped.values()))
    per_model = {kind: auc_roc(s, yr) for kind, s in scores.items()}
    return per_model, scores, skipped


def tstr(synthetic: Dataset, real_test: Dataset):
    """Fit each zoo model on synthetic rows, score AUC on real rows.

    Returns (best AUC, per-model AUCs, skipped models with their errors).
    """
    Xs, ys, _ = _split_columns(synthetic)
    Xr, yr, _ = _split_columns(real_test)
    per_model, _, skipped = _score_zoo(Xs, ys, Xr, yr)
    return max(per_model.values()), per_model, skipped


def deo(predictions, labels, protected) -> float:
    """Absolute gap in true positive rate between the two groups."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    protected = np.asarray(protected, dtype=np.float64)
    tpr = []
    for g in (0.0, 1.0):
        mask = (protected == g) & (labels == 1)
        if not mask.any():
            raise DataError(f"group {int(g)} has no positive-label members")
        tpr.append(predictions[mask].mean())
    return float(abs(tpr[0] - tpr[1]))


def dsp(predictions, protected) -> float:
    """Absolute gap in positive prediction rate between the two groups."""
    predictions = np.asarray(predictions, dtype=np.float64)
    protected = np.asarray(protected, dtype=np.float64)
    rates = []
    for g in (0.0, 1.0):
        mask = protected == g
        if not mask.any():
            raise DataError(f"group {int(g)} is empty")
        rates.append(predictions[mask].mean())
    return float(abs(rates[0] - rates[1]))


def disparate_impact(labels, protected) -> tuple[float, bool]:
    """Positive-rate ratio P(Y=1|C=0)/P(Y=1|C=1) and the <= 0.8 flag."""
    labels = np.asarray(labels, dtype=np.float64)
    protected = np.asarray(protected, dtype=np.float64)
    rates = []
    for g in (0.0, 1.0):
        mask = protected == g
        if not mask.any():
            raise DataError(f"group {int(g)} is empty")
        rates.append(labels[mask].mean())
    if rates[1] == 0.0:
        raise DataError("privileged group has zero positive rate; ratio undefined")
    ratio = float(rates[0] / rates[1])
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


def lrd(real: Dataset, synthetic: Dataset, folds: int = 5, seed: int = 0) -> float:
    """One minus the mean CV AUC of a real-vs-synthetic discriminator.

    Rows are pooled with origin labels (real=1), the larger side seeded-
    subsampled to match the smaller, and a logistic regression scored by
    stratified k-fold cross validation.
    """
    if folds < 2:
        raise DataError("folds must be >= 2")
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
    for test_idx in _stratified_folds(y, folds, rng):
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        clf = models.fit(models.LOGISTIC_REGRESSION, X[train_mask], y[train_mask])
        aucs.append(auc_roc(models.predict_proba(clf, X[test_idx]), y[test_idx]))
    return float(1.0 - np.mean(aucs))


@dataclass(frozen=True)
class EvalReport:
    aucroc_best: float
    aucroc_per_model: dict
    deo: float
    dsp: float
    disparate_impact_ratio: float
    disparate_impact_flag: bool
    lrd: float
    models_skipped: dict = field(default_factory=dict)

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
        for kind in sorted(self.models_skipped):
            rows.append((f"  skipped {kind}", "-", self.models_skipped[kind]))
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


def evaluate(real_train: Dataset, real_test: Dataset, synthetic: Dataset,
             seed: int = 0, folds: int = 5) -> EvalReport:
    """Full metric suite over (real train, real test, synthetic)."""
    for other in (real_test, synthetic):
        if other.schema.columns != real_train.schema.columns:
            raise DataError("dataset schemas are inconsistent")

    Xs, ys, csyn = _split_columns(synthetic)
    Xr, yr, cr = _split_columns(real_test)
    per_model, scores, skipped = _score_zoo(Xs, ys, Xr, yr)
    deo_vals, dsp_vals = [], []
    for proba in scores.values():
        pred = (proba >= PREDICTION_THRESHOLD).astype(float)
        deo_vals.append(deo(pred, yr, cr))
        dsp_vals.append(dsp(pred, cr))

    ratio, flag = disparate_impact(ys, csyn)
    lrd_value = lrd(real_train, synthetic, folds=folds, seed=seed)

    return EvalReport(
        aucroc_best=max(per_model.values()),
        aucroc_per_model=per_model,
        deo=float(np.mean(deo_vals)),
        dsp=float(np.mean(dsp_vals)),
        disparate_impact_ratio=ratio,
        disparate_impact_flag=flag,
        lrd=lrd_value,
        models_skipped=skipped,
    )
