"""Peak memory of the n-row stages of generate.

The stage tests bound the tracemalloc peak above the memory live at the
call (numpy reports its array buffers to tracemalloc) in units of the
input's size: the table's n * d * 8 bytes, or one float64 column's n * 8.
Each bound sits below the peak that the stage reaches when its
intermediates live until it returns, so an input-sized copy kept past
its last use crosses it. The last two tests follow the tables themselves
through a CLI generate run by weak reference.
"""

import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from benchdata import make_adult
from ffpdg import binarize, cli, dp, rongauss
from ffpdg.data import (
    BINARY, CONTINUOUS, ROLE_LABEL, ROLE_PROTECTED, ColumnSpec, Dataset, Schema, average_ranks, load_csv,
    save_csv,
)

N = 50_000
DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="module")
def adult():
    return make_adult(N, seed=1)


def peak_over_live(fn, *args):
    """(result, peak bytes above the memory live when fn was called)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_decode_codes_gathers_the_rows_once(adult):
    codebook = binarize.build_codebook(adult, 1)[1]
    rows, peak = peak_over_live(binarize.decode_codes, codebook.keys, codebook.counts, codebook,
                                adult.values, 3)
    assert rows.shape == adult.values.shape
    assert peak <= 2.0 * adult.values.nbytes


def regression_table(n, seed):
    """Five uniform features, a protected bit and y = x beta + N(0, 0.1)."""
    r = np.random.default_rng(seed)
    x = r.random((n, 5))
    y = x @ np.array([3.0, -2.0, 1.5, 0.0, 0.5]) + r.normal(0.0, 0.1, n)
    schema = Schema(tuple(ColumnSpec(f"x{j}", CONTINUOUS) for j in range(5))
                    + (ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
                       ColumnSpec("y", CONTINUOUS, role=ROLE_LABEL)))
    return Dataset(schema, np.column_stack([x, r.random(n) < 0.5, y]))


def test_fit_frees_each_expanded_matrix_after_its_last_use(adult):
    # the expanded matrix, centred in place, beside its projection and the labels
    # (here d_eff = d): a centred copy beside it reaches 2.6 tables. In regression
    # the projection and the labels fill one (p+1) x n buffer, which divides in
    # place: a stacked copy divided out of place reaches 2.4 tables
    cases = ((adult, rongauss.MODE_CLASSIFICATION), (regression_table(N, 1), rongauss.MODE_REGRESSION))
    for table, mode in cases:
        model, peak = peak_over_live(rongauss.fit, table, rongauss.GenerationConfig(seed=1))
        assert model.mode == mode
        assert peak <= 2.3 * table.values.nbytes, mode


@pytest.mark.parametrize("d", [5, 8, 29])
def test_column_norms_equal_numpy_bit_for_bit_at_the_block_edges(d):
    # numpy sums a lone column pairwise from d = 8 up, and a column beside
    # others row by row; end every matrix on a column where the two differ
    # (about one in four from d = 8 up; none below), so that a one-column
    # last block would show
    rng = np.random.default_rng(d)
    for _ in range(100):
        last = rng.random((d, 1))
        if np.linalg.norm(last, axis=0) != np.linalg.norm(np.hstack([last, last]), axis=0)[0]:
            break
    b = dp.NORM_BLOCK
    for n in (1, 2, b - 1, b, b + 1, b + 2, 2 * b + 1):
        X = rng.random((d, n))
        X[:, -1:] = last
        assert np.array_equal(dp.column_norms(X), np.linalg.norm(X, axis=0)), n


def test_column_norms_square_one_block_at_a_time():
    X = np.random.default_rng(1).random((5, N))
    norms, peak = peak_over_live(dp.column_norms, X)
    assert np.array_equal(norms, np.linalg.norm(X, axis=0))
    # beside the result, the squares of a block and their sums; np.linalg.norm
    # holds two X-sized temporaries
    assert peak - norms.nbytes <= 1.5 * dp.NORM_BLOCK * X.itemsize * len(X)


def test_sample_frees_the_projected_draws_before_the_output(adult):
    model = rongauss.fit(adult, rongauss.GenerationConfig(seed=1))
    np.quantile([0.0, 1.0], 0.5)  # its first call imports a module, about 1.5 MB
    synthetic, peak = peak_over_live(rongauss.sample, model, N, 2)
    assert synthetic.values.shape == adult.values.shape
    # the coordinates and the output, plus one column's ranks; a column scaled out
    # of place, with its run bounds and interpolated values in arrays of their
    # own, reaches 3.4 tables
    assert peak <= 3.0 * adult.values.nbytes


def test_average_ranks_frees_the_sorted_copy_and_run_bounds_before_the_scatter():
    # distinct values: one tie run per value, so no run bounds are built
    values = np.random.default_rng(2).normal(size=N)
    ranks, peak = peak_over_live(average_ranks, values)
    assert np.array_equal(np.sort(ranks), np.arange(1.0, N + 1))
    # the order, the ranks and the result; run bounds built for untied values reach 4.2
    assert peak <= 3.5 * values.nbytes


def test_load_csv_row_parser_keeps_one_block_of_python_floats(adult, tmp_path):
    # a `1_0` cell parses by float() but not by numpy: the file goes to the row parser
    path = tmp_path / "underscore.csv"
    save_csv(adult, path)
    header, first, rest = path.read_bytes().split(b"\r\n", 2)
    path.write_bytes(b"\r\n".join([header, b"1_0" + first[first.index(b","):], rest]))
    loaded, peak = peak_over_live(load_csv, path, adult.schema)
    assert loaded.values[0, 0] == 10.0
    assert np.array_equal(loaded.values[1:], adult.values[1:])
    assert peak <= 2.5 * adult.values.nbytes


def test_generate_frees_the_input_and_the_fair_sample_before_sample(tmp_path, monkeypatch):
    tables, alive = {}, {}
    load, fit, sample = cli.load_csv, rongauss.fit, rongauss.sample

    def live():
        return [name for name, ref in tables.items() if ref() is not None]

    def loading(path, schema):
        dataset = load(path, schema)
        tables["input"] = weakref.ref(dataset.values)
        return dataset

    def fitting(dataset, config):
        tables["fair"] = weakref.ref(dataset.values)
        alive["fit"] = live()
        return fit(dataset, config)

    def sampling(model, n_out, seed):
        alive["sample"] = live()
        return sample(model, n_out, seed)

    monkeypatch.setattr(cli, "load_csv", loading)
    monkeypatch.setattr(rongauss, "fit", fitting)
    monkeypatch.setattr(rongauss, "sample", sampling)
    rc = cli.main(["generate", "--schema", str(DATA / "adult.schema"),
                   "--input", str(DATA / "adult_sample.csv"), "--output", str(tmp_path / "o.csv")])
    assert rc == 0
    # before 3.11 the caller's stack keeps a call's arguments alive until it
    # returns; from 3.11 on a Python call moves them into the callee's frame
    kept = [] if sys.version_info >= (3, 11) else ["input"]
    assert alive == {"fit": kept + ["fair"], "sample": kept}


def test_fit_frees_the_fair_table_once_it_is_expanded(tmp_path, monkeypatch):
    fair, alive = [], []
    normalize, centre = rongauss.pre_normalize, rongauss.center_and_renormalize

    def normalizing(dataset, *args):
        fair.append(weakref.ref(dataset.values))
        return normalize(dataset, *args)

    def centring(X, budget, seed):
        alive.append(fair[0]() is not None)
        return centre(X, budget, seed)

    monkeypatch.setattr(rongauss, "pre_normalize", normalizing)
    monkeypatch.setattr(rongauss, "center_and_renormalize", centring)
    rc = cli.main(["generate", "--schema", str(DATA / "adult.schema"),
                   "--input", str(DATA / "adult_sample.csv"), "--output", str(tmp_path / "o.csv")])
    assert rc == 0
    # fit has read the calibration, the labels and the expanded matrix; before
    # 3.11 the stack of fit's caller keeps the table alive until fit returns
    assert alive == [sys.version_info < (3, 11)]
