"""Seeded input generators and writers for the benchmark workloads.

The benchmark keeps its own generators instead of importing the test
fixtures, so that its inputs stay the same on every commit it compares.
`make_adult` draws the same rows as the Adult simulator in
tests/benchdata.py. `make_wide` is the mixed-schema simulator of the
`wide-codes` workload.

Values come back as float64 matrices in the program's layout: continuous
cells hold the value, binary cells 0/1 and categorical cells the level
index. `write_inputs` renders them itself, so input bytes do not depend on
the program's CSV writer.
"""

from __future__ import annotations

import numpy as np

ADULT_SCHEMA = (
    ("age", "continuous", "feature", ()),
    ("education_years", "continuous", "feature", ()),
    ("race_white", "binary", "feature", ()),
    ("sex_male", "binary", "protected", ()),
    ("income", "binary", "label", ()),
)

_WIDE_LEVELS = ("a", "b", "c", "d", "e")

# 3 continuous + 3 five-level categorical + 8 binary + protected + label:
# at one bit per continuous column that is 3 + 15 + 8 + 1 + 1 = 28 code bits.
WIDE_SCHEMA = (
    tuple((f"x{i}", "continuous", "feature", ()) for i in range(3))
    + tuple((f"cat{i}", "categorical", "feature", _WIDE_LEVELS) for i in range(3))
    + tuple((f"b{i}", "binary", "feature", ()) for i in range(8))
    + (("group", "binary", "protected", ()), ("outcome", "binary", "label", ()))
)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def make_adult(n: int, seed: int) -> np.ndarray:
    """Census-income-like rows: age/education drive income, sex gaps both."""
    r = np.random.default_rng(seed)
    sex = (r.random(n) < 0.67).astype(float)
    age = np.clip(17 + r.gamma(2.6, 8.0, n) + 3.0 * sex, 17, 90)
    edu = np.clip(np.round(r.normal(9.8 + 0.6 * sex, 2.6, n)), 4, 16)
    race = (r.random(n) < 0.85).astype(float)
    eta = (-3.6 + 0.075 * (age - 38) - 0.0009 * (age - 38) ** 2
           + 0.55 * (edu - 10) + 0.80 * race + 1.00 * sex)
    y = (r.random(n) < _sigmoid(eta)).astype(float)
    return np.column_stack([age, edu, race, sex, y])


def make_wide(n: int, seed: int) -> np.ndarray:
    """Mixed-schema rows whose codes are almost all distinct.

    Features are close to independent and near uniform over their bits,
    so 20k rows fill about 19.7k of the roughly one million reachable
    28-bit codes. The protected group holds 60% of rows; the positive
    rate is about 0.49 outside it and 0.68 inside it, so the fair stage
    has a real gap to close.
    """
    r = np.random.default_rng(seed)
    group = (r.random(n) < 0.6).astype(float)
    x = np.column_stack([
        r.normal(0.0, 1.0, n),
        r.lognormal(0.0, 0.75, n),
        r.uniform(-1.0, 1.0, n),
    ])
    cats = r.integers(0, len(_WIDE_LEVELS), size=(n, 3)).astype(float)
    bits = (r.random((n, 8)) < np.linspace(0.35, 0.65, 8)).astype(float)
    eta = (0.80 * group + 0.25 * x[:, 0] - 0.15 * (x[:, 2] > 0)
           + 0.10 * (cats[:, 0] == 0) + 0.20 * bits[:, 0] - 0.20 * bits[:, 1])
    y = (r.random(n) < _sigmoid(eta)).astype(float)
    return np.column_stack([x, cats, bits, group, y])


def schema_text(schema) -> str:
    """The program's schema file format: one `<name> <kind> <role>` per line."""
    lines = []
    for name, kind, role, levels in schema:
        if kind == "categorical":
            kind = f"categorical({'|'.join(levels)})"
        lines.append(f"{name} {kind} {role}")
    return "\n".join(lines) + "\n"


def csv_rows(schema, values: np.ndarray) -> str:
    """CSV lines for `values`; continuous cells with 17 significant digits."""
    cells = []
    for j, (_, kind, _, levels) in enumerate(schema):
        column = values[:, j]
        if kind == "continuous":
            cells.append([format(v, ".17g") for v in column.tolist()])
        elif kind == "binary":
            cells.append(np.where(column == 1.0, "1", "0").tolist())
        else:
            cells.append(np.asarray(levels)[column.astype(int)].tolist())
    return "".join(",".join(row) + "\n" for row in zip(*cells))


# Rows rendered at a time, so that writing inputs does not raise the
# process's peak memory above what the operations themselves use.
_CHUNK_ROWS = 20_000


def write_inputs(directory, stem: str, schema, values: np.ndarray):
    """Write `<stem>.schema` and a header-first `<stem>.csv`; returns their paths."""
    schema_path = directory / f"{stem}.schema"
    csv_path = directory / f"{stem}.csv"
    schema_path.write_text(schema_text(schema), encoding="utf-8")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(name for name, *_ in schema) + "\n")
        for start in range(0, len(values), _CHUNK_ROWS):
            fh.write(csv_rows(schema, values[start:start + _CHUNK_ROWS]))
    return schema_path, csv_path
