"""Schema parsing, dataset validation, CSV round-trips, percentiles, splits."""

import math

import numpy as np
import pytest
from scipy.stats import rankdata

from conftest import mixed_dataset
from ffpdg.data import (
    BINARY,
    CATEGORICAL,
    CONTINUOUS,
    ColumnSpec,
    Dataset,
    ROLE_LABEL,
    ROLE_PROTECTED,
    Schema,
    average_ranks,
    column_stats,
    load_csv,
    load_schema,
    nearest_rank,
    save_csv,
    save_schema,
    schema_from_text,
    schema_to_text,
    split,
)
from ffpdg.errors import DataError, SchemaError


def two_col_schema():
    return Schema((
        ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
        ColumnSpec("y", BINARY, role=ROLE_LABEL),
    ))


def test_csv_round_trip_is_exact(tmp_path):
    ds = mixed_dataset(200, seed=3)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(path, ds.schema)
    # %.17g is enough digits for bit-exact float64 recovery
    assert np.array_equal(back.values, ds.values)
    assert back.schema == ds.schema


def test_schema_text_round_trip(tmp_path):
    schema = mixed_dataset(5, seed=0).schema
    path = tmp_path / "s.schema"
    save_schema(schema, path)
    assert load_schema(path) == schema
    assert schema_from_text(schema_to_text(schema)) == schema


def test_schema_text_rejects_malformed_line():
    with pytest.raises(SchemaError, match="line 2"):
        schema_from_text("a binary protected\nb binary\n")


def test_schema_requires_exactly_one_protected():
    with pytest.raises(SchemaError, match="protected"):
        Schema((ColumnSpec("a", BINARY), ColumnSpec("y", BINARY, role=ROLE_LABEL)))
    with pytest.raises(SchemaError, match="protected"):
        Schema((
            ColumnSpec("a", BINARY, role=ROLE_PROTECTED),
            ColumnSpec("b", BINARY, role=ROLE_PROTECTED),
        ))


def test_schema_rejects_duplicates_and_bad_kinds():
    with pytest.raises(SchemaError):
        Schema((
            ColumnSpec("a", BINARY, role=ROLE_PROTECTED),
            ColumnSpec("a", BINARY),
        ))
    with pytest.raises(SchemaError, match="must be binary"):
        ColumnSpec("a", CONTINUOUS, role=ROLE_PROTECTED)
    with pytest.raises(SchemaError):
        ColumnSpec("a", "integer")
    with pytest.raises(SchemaError, match="levels"):
        ColumnSpec("a", CATEGORICAL, levels=("only",))


def test_dataset_rejects_bad_values():
    schema = two_col_schema()
    with pytest.raises(DataError, match="non-binary"):
        Dataset(schema, np.array([[0.0, 0.5]]))
    with pytest.raises(DataError, match="non-finite"):
        Dataset(schema, np.array([[np.nan, 1.0]]))
    cat = Schema((
        ColumnSpec("g", CATEGORICAL, levels=("a", "b")),
        ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
    ))
    with pytest.raises(DataError, match="level index"):
        Dataset(cat, np.array([[2.0, 0.0]]))


def test_dataset_values_are_read_only():
    ds = mixed_dataset(10, seed=1)
    with pytest.raises(ValueError):
        ds.values[0, 0] = 99.0


def test_load_csv_errors_name_path_and_row(tmp_path):
    schema = two_col_schema()
    path = tmp_path / "bad.csv"
    path.write_text("c,y\n0,1\n0,2\n")
    with pytest.raises(DataError) as err:
        load_csv(path, schema)
    msg = str(err.value)
    assert str(path) in msg and "row 1" in msg and "'y'" in msg


def test_load_csv_rejects_header_mismatch(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,y\n0,1\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path, two_col_schema())


def test_nearest_rank_matches_direct_formula():
    r = np.random.default_rng(11)
    for _ in range(200):
        n = int(r.integers(1, 60))
        vals = np.sort(r.normal(size=n))
        q = float(r.random())
        want = vals[max(1, math.ceil(q * n)) - 1]
        assert nearest_rank(vals, q) == want


def test_nearest_rank_median_of_four_is_two():
    assert nearest_rank(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.0


def test_column_stats_values():
    schema = Schema((
        ColumnSpec("x", CONTINUOUS),
        ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
    ))
    ds = Dataset(schema, np.column_stack([
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([0.0, 1.0, 1.0, 1.0]),
    ]))
    stats = column_stats(ds, quantiles=(0.5,))
    assert stats.percentiles[0, 0] == 2.0
    assert stats.mins[0] == 1.0 and stats.maxs[0] == 4.0
    assert stats.means[0] == 2.5
    assert stats.positive_rates[1] == 0.75
    assert np.isnan(stats.positive_rates[0])


def test_split_sizes_disjoint_and_seeded():
    ds = mixed_dataset(103, seed=5)
    a, b = split(ds, 0.7, seed=9)
    assert a.n == math.ceil(0.7 * 103) and a.n + b.n == ds.n
    joined = np.vstack([a.values, b.values])
    assert np.array_equal(
        np.sort(joined, axis=0), np.sort(ds.values, axis=0)
    )
    a2, b2 = split(ds, 0.7, seed=9)
    assert np.array_equal(a.values, a2.values)
    a3, _ = split(ds, 0.7, seed=10)
    assert not np.array_equal(a.values, a3.values)


def test_split_rejects_degenerate_fraction():
    ds = mixed_dataset(10, seed=0)
    for f in (0.0, 1.0, -0.1):
        with pytest.raises(DataError):
            split(ds, f, seed=0)


def test_average_ranks_match_scipy_with_ties():
    r = np.random.default_rng(13)
    for n in (1, 2, 7, 50, 500):
        values = r.integers(0, 6, size=n).astype(float)  # heavy ties
        assert np.array_equal(average_ranks(values), rankdata(values))
        values = r.normal(size=n)
        assert np.array_equal(average_ranks(values), rankdata(values))
