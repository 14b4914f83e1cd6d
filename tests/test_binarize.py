"""Discretization codebook: thresholds, packed keys, inversion of observed codes."""

from pathlib import Path

import numpy as np
import pytest

from benchdata import make_wide
from conftest import mixed_dataset
from oracles import expanded_sample_codes, query_order_decode, row_codebook
from ffpdg import maxent
from ffpdg.binarize import build_codebook, decode_codes, pack_codes
from ffpdg.data import (
    BINARY,
    CATEGORICAL,
    CONTINUOUS,
    ColumnSpec,
    Dataset,
    ROLE_FEATURE,
    ROLE_LABEL,
    ROLE_PROTECTED,
    Schema,
    group_rates,
    load_csv,
    load_schema,
)
from ffpdg.errors import DataError

DATA = Path(__file__).resolve().parents[1] / "data"


def group(book, i):
    """Source rows stored under codebook entry i."""
    return book.row_order[book.row_starts[i]:book.row_starts[i + 1]]


def histogram(queries):
    """(distinct codes, counts) of a batch of code rows."""
    return row_codebook(queries)[:2]


def one(code):
    """A histogram holding one draw of one code."""
    return code[None, :], np.ones(1, dtype=int)


def with_continuous(values):
    schema = Schema((
        ColumnSpec("x", CONTINUOUS),
        ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
    ))
    values = np.asarray(values, dtype=float)
    c = np.arange(len(values)) % 2
    return Dataset(schema, np.column_stack([values, c.astype(float)]))


def test_single_bin_median_split():
    # threshold at the interpolated median 2.5, bit = 1 iff value >= it
    binary, book = build_codebook(with_continuous([1, 2, 3, 4]), 1)
    assert binary[:, 0].tolist() == [0, 0, 1, 1]
    assert book.thresholds[0] == (2.5,)


def test_thresholds_match_interpolated_quantiles():
    r = np.random.default_rng(4)
    for bins in (1, 2, 3):
        vals = r.normal(size=101)
        _, book = build_codebook(with_continuous(vals), bins)
        want = tuple(
            float(np.quantile(vals, (j + 1) / (bins + 1), method="linear"))
            for j in range(bins)
        )
        got = book.thresholds[0]
        assert np.allclose(got, want, atol=1e-12)
        assert len(got) == bins


def test_bit_budget_per_kind():
    ds = mixed_dataset(50, seed=2)
    binary, book = build_codebook(ds, bins_per_continuous=2)
    # continuous 2 bits, categorical one bit per level, binary 1 bit each
    assert book.m == 2 + 3 + 1 + 1
    assert binary.shape == (50, book.m)
    cat = book.bits(1)
    assert ds.schema.columns[1].kind == CATEGORICAL and len(cat) == 3
    # one-hot rows have exactly one set bit in the categorical block
    assert np.all(binary[:, list(cat)].sum(axis=1) == 1)


def test_keys_sorted_unique_and_groups_partition_rows():
    ds = mixed_dataset(80, seed=9)
    binary, book = build_codebook(ds, 1)
    keys = book.keys
    as_tuples = [tuple(k) for k in keys]
    assert as_tuples == sorted(as_tuples)
    assert len(set(as_tuples)) == len(as_tuples)
    all_rows = np.sort(np.concatenate([group(book, i) for i in range(len(keys))]))
    assert np.array_equal(all_rows, np.arange(80))


def test_observed_code_inverts_to_one_of_its_rows():
    ds = mixed_dataset(60, seed=1)
    binary, book = build_codebook(ds, 1)
    code = binary[17]
    row = decode_codes(*one(code), book, ds.values, seed=5)[0]
    members = [group(book, i) for i, k in enumerate(book.keys) if np.array_equal(k, code)]
    candidates = ds.values[members[0]]
    assert any(np.array_equal(row, cand) for cand in candidates)


def test_unseen_code_raises_data_error():
    ds = mixed_dataset(60, seed=8)
    binary, book = build_codebook(ds, 1)
    observed = {tuple(k) for k in book.keys}
    r = np.random.default_rng(3)
    unseen = [c for c in r.integers(0, 2, (50, book.m)).astype(np.uint8) if tuple(c) not in observed]
    assert unseen
    for code in unseen:
        with pytest.raises(DataError, match="1 of 1 codes are not in the codebook"):
            decode_codes(*one(code), book, ds.values, seed=11)
    # one unseen code fails the whole histogram, however many observed codes it holds
    codes = np.vstack([book.keys, unseen[0]])
    with pytest.raises(DataError, match=f"1 of {len(codes)} codes are not in the codebook"):
        decode_codes(codes, np.ones(len(codes), dtype=int), book, ds.values, seed=11)


def test_code_equidistant_from_two_keys_raises_data_error():
    # 01 and 10 are both distance 1 from keys 00 and 11; neither is picked
    schema = Schema((
        ColumnSpec("a", BINARY, role=ROLE_PROTECTED),
        ColumnSpec("b", BINARY),
    ))
    ds = Dataset(schema, np.array([[0.0, 0.0], [1.0, 1.0]]))
    _, book = build_codebook(ds, 1)
    for probe in ([0, 1], [1, 0]):
        with pytest.raises(DataError, match="1 of 1 codes are not in the codebook"):
            decode_codes(*one(np.array(probe, dtype=np.uint8)), book, ds.values, seed=0)
    with pytest.raises(DataError, match="2 of 3 codes are not in the codebook"):
        decode_codes(np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8), np.array([2, 1, 1]),
                     book, ds.values, seed=0)


def test_inverse_draw_frequencies_are_uniform_over_group():
    # one code maps to three distinct rows; draws should hit each ~1/3
    schema = Schema((
        ColumnSpec("x", CONTINUOUS),
        ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
    ))
    # median of [1, 2, 20, 21, 22] interpolates to 20, so the trio >= 20
    # shares one code and the two low rows share another
    vals = np.array([[20.0, 0.0], [21.0, 0.0], [22.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    ds = Dataset(schema, vals)
    binary, book = build_codebook(ds, 1)
    code = binary[0]
    assert np.array_equal(binary[0], binary[1]) and np.array_equal(binary[1], binary[2])
    draws = decode_codes(code[None, :], np.array([6000]), book, ds.values, seed=2)
    _, counts = np.unique(draws[:, 0], return_counts=True)
    assert counts.min() > 6000 / 3 * 0.85


def test_decode_codes_is_deterministic_and_order_preserving():
    ds = mixed_dataset(50, seed=12)
    binary, book = build_codebook(ds, 1)
    codes, counts = histogram(binary[np.random.default_rng(0).integers(0, 50, 200)])
    a = decode_codes(codes, counts, book, ds.values, seed=9)
    b = decode_codes(codes, counts, book, ds.values, seed=9)
    assert np.array_equal(a, b)
    c = decode_codes(codes, counts, book, ds.values, seed=10)
    assert not np.array_equal(a, c)
    # the groups follow the order of the codes, each group's draws unchanged
    flipped = decode_codes(codes[::-1], counts[::-1], book, ds.values, seed=9)
    groups = np.split(a, np.cumsum(counts)[:-1])
    assert np.array_equal(flipped, np.vstack(groups[::-1]))


def test_decoded_rows_come_from_training_rows():
    ds = mixed_dataset(50, seed=13)
    binary, book = build_codebook(ds, 2)
    out = decode_codes(*histogram(binary[:30]), book, ds.values, seed=4)
    train = {tuple(v) for v in ds.values}
    assert all(tuple(row) in train for row in out)


def test_shape_errors():
    ds = mixed_dataset(20, seed=0)
    _, book = build_codebook(ds, 1)
    with pytest.raises(DataError, match="codes must be"):
        decode_codes(np.zeros(book.m, dtype=np.uint8), np.ones(1, dtype=int), book, ds.values, seed=0)
    with pytest.raises(DataError, match="codes must be"):
        decode_codes(np.zeros((4, book.m + 2), dtype=np.uint8), np.ones(4, dtype=int), book, ds.values,
                     seed=0)
    with pytest.raises(DataError, match="rows has 19 rows, the codebook indexes 20"):
        decode_codes(book.keys, book.counts, book, ds.values[:-1], seed=0)
    with pytest.raises(DataError):
        build_codebook(ds, 0)


def test_repeated_codes_are_rejected():
    # two groups of one code would each start from the same shuffled row
    ds = mixed_dataset(20, seed=0)
    _, book = build_codebook(ds, 1)
    codes = np.vstack([book.keys, book.keys[[0, 2]]])
    with pytest.raises(DataError, match="2 codes are given more than once"):
        decode_codes(codes, np.ones(len(codes), dtype=int), book, ds.values, seed=0)


def test_non_binary_codes_are_rejected():
    ds = mixed_dataset(20, seed=0)
    _, book = build_codebook(ds, 1)
    for bad in (0.7, 2):
        codes = book.keys[:3].astype(float)
        codes[1, 0] = bad
        with pytest.raises(DataError, match="only 0 and 1"):
            decode_codes(codes, np.ones(3, dtype=int), book, ds.values, seed=0)


def test_one_bit_codes_pack_in_row_order():
    # a Dataset needs two columns, so a 1-bit code only reaches pack_codes directly
    binary = np.array([[1], [0], [1], [1]], dtype=np.uint8)
    keys, first, counts = np.unique(pack_codes(binary), return_index=True, return_counts=True)
    oracle_keys, oracle_counts, _ = row_codebook(binary)
    assert np.array_equal(binary[first], oracle_keys)
    assert np.array_equal(counts, oracle_counts)


def all_binary_dataset(binary):
    m = binary.shape[1]
    schema = Schema(tuple(
        ColumnSpec(f"b{j}", BINARY, role=ROLE_PROTECTED if j == 0 else ROLE_FEATURE)
        for j in range(m)
    ))
    return Dataset(schema, binary.astype(float))


def assert_codebook_matches_row_oracle_and_decode_draws_from_groups(binary, codes, asked):
    built, book = build_codebook(all_binary_dataset(binary), 1)
    assert np.array_equal(built, binary)
    keys, counts, groups = row_codebook(binary)
    assert np.array_equal(book.keys, keys)
    assert np.array_equal(book.counts, counts)
    assert len(book.row_starts) - 1 == len(groups)
    assert all(np.array_equal(group(book, i), g) for i, g in enumerate(groups))
    # rows of one code are identical here, so give every row its own
    # values to make the draw within a group visible
    m = binary.shape[1]
    rows = np.arange(binary.size, dtype=float).reshape(binary.shape)
    key_of = {tuple(k): i for i, k in enumerate(keys)}
    asked_per_key = np.zeros(len(keys), dtype=int)
    asked_per_key[[key_of[tuple(c)] for c in codes]] = asked
    for seed in (0, 7):
        out = decode_codes(codes, asked, book, rows, seed)
        assert np.array_equal(out, decode_codes(codes, asked, book, rows, seed))
        source = out[:, 0].astype(int) // m
        assert np.array_equal(out, rows[source])
        # each code's rows come from its own key's group, in the order of the codes ...
        assert np.array_equal(binary[source], np.repeat(codes, asked, axis=0))
        # ... and no source row is used more than ceil(draws / group size) times
        used = np.bincount(source, minlength=len(binary))
        rows_key = np.empty(len(binary), dtype=int)
        for i, g in enumerate(groups):
            rows_key[g] = i
        assert np.all(used <= -(-asked_per_key[rows_key] // counts[rows_key]))
    return counts


@pytest.mark.parametrize("m", [2, 5, 8, 9, 28, 64, 65, 202])
def test_packed_codebook_and_decode_match_row_oracle(m):
    r = np.random.default_rng(m)
    base = r.integers(0, 2, (40, m)).astype(np.uint8)
    binary = base[r.integers(0, len(base), 300)]  # repeated rows
    codes, asked = histogram(binary[r.integers(0, len(binary), 260)])
    order = r.permutation(len(codes))  # any order of distinct codes
    assert_codebook_matches_row_oracle_and_decode_draws_from_groups(binary, codes[order], asked[order])


def test_single_row_keys_decode_like_the_row_oracle():
    # 300 rows over about 290 codes: nearly every key has one source row,
    # a few have several, and the queries interleave both
    r = np.random.default_rng(28)
    base = r.integers(0, 2, (290, 28)).astype(np.uint8)
    binary = base[np.concatenate([np.arange(290), r.integers(0, 290, 10)])]
    binary = binary[r.permutation(len(binary))]
    codes, asked = histogram(binary[r.integers(0, len(binary), 500)])
    counts = assert_codebook_matches_row_oracle_and_decode_draws_from_groups(binary, codes, asked)
    assert np.sum(counts == 1) > 250 and np.sum(counts > 1) >= 5


def test_decode_draws_without_replacement_while_the_group_lasts():
    # one code carries 50 source rows; 50 queries use each row once, 120
    # queries use each row two or three times (ceil(120 / 50) = 3)
    schema = Schema((
        ColumnSpec("x", CONTINUOUS),
        ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
    ))
    x = np.concatenate([np.arange(50.0), 100.0 + np.arange(50.0)])
    ds = Dataset(schema, np.column_stack([x, np.zeros(100)]))
    binary, book = build_codebook(ds, 1)
    assert book.counts.tolist() == [50, 50]
    for asked, most in ((50, 1), (120, 3)):
        out = decode_codes(binary[:1], np.array([asked]), book, ds.values, seed=3)
        _, used = np.unique(out[:, 0], return_counts=True)
        assert len(used) == 50 and used.max() == most and used.min() >= asked // 50


def test_empty_batch_decodes_to_no_rows():
    ds = mixed_dataset(20, seed=0)
    _, book = build_codebook(ds, 1)
    out = decode_codes(np.zeros((0, book.m), dtype=np.uint8), np.zeros(0, dtype=int), book, ds.values,
                       seed=0)
    assert out.shape == (0, ds.schema.d)
    # every code drawn zero times: no rows either
    out = decode_codes(book.keys, np.zeros(book.entry_count(), dtype=int), book, ds.values, seed=0)
    assert out.shape == (0, ds.schema.d)


@pytest.mark.parametrize("name", ["adult", "compas", "wide"])
def test_decoded_histogram_equals_the_expanded_sample_row_for_row(name):
    # the fair stage as generate runs it, then the histogram sample and its
    # decode against one code row per draw decoded in query order
    if name == "wide":
        ds = make_wide(2000, 1)
    else:
        ds = load_csv(DATA / f"{name}_sample.csv", load_schema(DATA / f"{name}.schema"))
    _, book = build_codebook(ds, 1)
    keys, counts = book.keys, book.counts
    protected = book.bits(ds.schema.protected_index)[0]
    label = book.bits(ds.schema.label_index)[0]
    solution = maxent.solve_maxent(maxent.empirical_prior(keys, counts),
                                   maxent.fair_marginals(keys, counts, protected, label))
    for seed in range(10):
        fair_counts = maxent.sample_codes(solution.distribution, ds.n, seed)
        expanded = expanded_sample_codes(solution.distribution, ds.n, seed)
        assert np.array_equal(np.repeat(keys, fair_counts, axis=0), expanded)
        rows = decode_codes(keys, fair_counts, book, ds.values, seed + 100)
        assert np.array_equal(rows, query_order_decode(expanded, book, ds.values, seed + 100))
        assert (group_rates(keys[:, label], keys[:, protected], fair_counts)
                == group_rates(expanded[:, label], expanded[:, protected]))
