"""Shared builders for the test suite."""

import numpy as np
import pytest

from ffpdg.data import (
    BINARY,
    CONTINUOUS,
    ColumnSpec,
    Dataset,
    ROLE_LABEL,
    ROLE_PROTECTED,
    Schema,
)


def binary_group_dataset(n, rate_c0, rate_c1, seed, n_features=0, p_c=0.5):
    """Protected bit c, label y with P(y=1|c) as given, plus iid noise bits.

    The noise features are independent of (c, y), so both groups share the
    same feature distribution and any synthetic group gap traces back to
    the (c, y) joint alone.
    """
    r = np.random.default_rng(seed)
    c = (r.random(n) < p_c).astype(float)
    y = np.where(c == 1, r.random(n) < rate_c1, r.random(n) < rate_c0).astype(float)
    cols = [ColumnSpec(f"f{i}", BINARY) for i in range(n_features)]
    cols += [ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
             ColumnSpec("y", BINARY, role=ROLE_LABEL)]
    blocks = [(r.random((n, n_features)) < 0.5).astype(float)] if n_features else []
    blocks += [c[:, None], y[:, None]]
    return Dataset(Schema(tuple(cols)), np.hstack(blocks))


def mixed_dataset(n, seed):
    """One column of every kind, for format round-trip tests."""
    from ffpdg.data import CATEGORICAL

    r = np.random.default_rng(seed)
    schema = Schema((
        ColumnSpec("height", CONTINUOUS),
        ColumnSpec("color", CATEGORICAL, levels=("red", "green", "blue")),
        ColumnSpec("member", BINARY, role=ROLE_PROTECTED),
        ColumnSpec("outcome", BINARY, role=ROLE_LABEL),
    ))
    values = np.column_stack([
        r.normal(170.0, 12.0, n),
        r.integers(0, 3, n).astype(float),
        (r.random(n) < 0.4).astype(float),
        (r.random(n) < 0.5).astype(float),
    ])
    return Dataset(schema, values)


def float_limit_column(kind, n, seed):
    """n values near the float64 limit: N(0, 1) * 1e307 ("normal", whose
    quantile grid has slopes that overflow) or a spread of +-1.7e308 with
    both ends present ("span", whose range overflows)."""
    r = np.random.default_rng(seed)
    if kind == "normal":
        return r.standard_normal(n) * 1e307
    x = r.uniform(-1.0, 1.0, n) * 1.7e308
    x[:2] = -1.7e308, 1.7e308
    return x


def one_feature_dataset(x, seed):
    """A continuous feature x beside a random protected bit c and label y."""
    r = np.random.default_rng(seed)
    n = len(x)
    schema = Schema((ColumnSpec("x", CONTINUOUS), ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
                     ColumnSpec("y", BINARY, role=ROLE_LABEL)))
    return Dataset(schema, np.column_stack([x, r.random(n) < 0.5, r.random(n) < 0.5]).astype(float))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
