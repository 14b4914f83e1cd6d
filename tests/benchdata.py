"""Distribution-matched stand-ins for the Adult and COMPAS benchmarks.

The real benchmarks need a network fetch (scripts/fetch_adult.py and
scripts/fetch_compas.py); tests must run offline. These simulators are
calibrated so that the pipeline-facing statistics match the real data:
marginal shapes (gamma-ish age, exponential-ish priors), group base
rates, and the strength of the label relationship, checked against the
published summary statistics of each benchmark. The frozen extracts in
data/ are drawn from these generators by scripts/make_benchmark_samples.py.

Calibration notes, measured on 200k simulated rows:
  adult:  P(income=1 | sex) = 0.244 / 0.097, identity-generator TSTR
          AUC 0.84 with the four-model zoo.
  compas: P(recid=1 | race) = 0.538 / 0.394, overall 0.468.
"""

import numpy as np

from ffpdg.data import (
    BINARY,
    CATEGORICAL,
    CONTINUOUS,
    ColumnSpec,
    Dataset,
    ROLE_LABEL,
    ROLE_PROTECTED,
    Schema,
)

ADULT_SCHEMA = Schema((
    ColumnSpec("age", CONTINUOUS),
    ColumnSpec("education_years", CONTINUOUS),
    ColumnSpec("race_white", BINARY),
    ColumnSpec("sex_male", BINARY, role=ROLE_PROTECTED),
    ColumnSpec("income", BINARY, role=ROLE_LABEL),
))

COMPAS_SCHEMA = Schema((
    ColumnSpec("age", CONTINUOUS),
    ColumnSpec("priors_count", CONTINUOUS),
    ColumnSpec("charge_felony", BINARY),
    ColumnSpec("sex_male", BINARY),
    ColumnSpec("race_minority", BINARY, role=ROLE_PROTECTED),
    ColumnSpec("two_year_recid", BINARY, role=ROLE_LABEL),
))

WIDE_SCHEMA = Schema(
    tuple(ColumnSpec(f"x{i}", CONTINUOUS) for i in range(3))
    + tuple(ColumnSpec(f"cat{i}", CATEGORICAL, levels=("a", "b", "c", "d", "e")) for i in range(3))
    + tuple(ColumnSpec(f"b{i}", BINARY) for i in range(8))
    + (ColumnSpec("group", BINARY, role=ROLE_PROTECTED), ColumnSpec("outcome", BINARY, role=ROLE_LABEL))
)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def make_adult(n: int, seed: int) -> Dataset:
    """Census-income-like rows: age/education drive income, sex gaps both."""
    r = np.random.default_rng(seed)
    sex = (r.random(n) < 0.67).astype(float)
    age = np.clip(17 + r.gamma(2.6, 8.0, n) + 3.0 * sex, 17, 90)
    edu = np.clip(np.round(r.normal(9.8 + 0.6 * sex, 2.6, n)), 4, 16)
    race = (r.random(n) < 0.85).astype(float)
    eta = (-3.6 + 0.075 * (age - 38) - 0.0009 * (age - 38) ** 2
           + 0.55 * (edu - 10) + 0.80 * race + 1.00 * sex)
    y = (r.random(n) < _sigmoid(eta)).astype(float)
    return Dataset(ADULT_SCHEMA, np.column_stack([age, edu, race, sex, y]))


def make_compas(n: int, seed: int) -> Dataset:
    """Recidivism-like rows: priors count is the dominant signal and is
    mildly coupled to race, so some group gap survives even a perfectly
    fair (race, label) joint."""
    r = np.random.default_rng(seed)
    race = (r.random(n) < 0.51).astype(float)
    sex = (r.random(n) < 0.81).astype(float)
    age = np.clip(18 + r.gamma(1.9, 6.5, n), 18, 80)
    priors = np.minimum(np.floor(r.exponential(2.4 + 0.5 * race, n)), 38)
    felony = (r.random(n) < 0.64).astype(float)
    eta = (-1.66 + 0.32 * priors - 0.004 * priors ** 2 - 0.058 * (age - 32)
           + 0.35 * felony + 0.55 * race + 0.35 * sex)
    y = (r.random(n) < _sigmoid(eta)).astype(float)
    return Dataset(COMPAS_SCHEMA, np.column_stack([age, priors, felony, sex, race, y]))


def make_wide(n: int, seed: int) -> Dataset:
    """Near-independent, near-uniform features; the protected group holds
    60% of rows, with positive rates about 0.49 outside it and 0.68 inside."""
    r = np.random.default_rng(seed)
    group = (r.random(n) < 0.6).astype(float)
    x = np.column_stack([
        r.normal(0.0, 1.0, n),
        r.lognormal(0.0, 0.75, n),
        r.uniform(-1.0, 1.0, n),
    ])
    cats = r.integers(0, 5, size=(n, 3)).astype(float)
    bits = (r.random((n, 8)) < np.linspace(0.35, 0.65, 8)).astype(float)
    eta = (0.80 * group + 0.25 * x[:, 0] - 0.15 * (x[:, 2] > 0)
           + 0.10 * (cats[:, 0] == 0) + 0.20 * bits[:, 0] - 0.20 * bits[:, 1])
    y = (r.random(n) < _sigmoid(eta)).astype(float)
    return Dataset(WIDE_SCHEMA, np.column_stack([x, cats, bits, group, y]))


# seeds used to freeze the bundled extracts; tests that load data/*.csv
# and tests that simulate directly see the same draw
SAMPLE_SEED = 7
HOLDOUT_SEED = 8
SAMPLE_ROWS = 1000
