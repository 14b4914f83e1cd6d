"""Peak memory of the n-row stages of generate.

Each test bounds the tracemalloc peak above the memory live at the call
(numpy reports its array buffers to tracemalloc) in units of the input's
size: the table's n * d * 8 bytes, or one float64 column's n * 8. Each
bound sits below the peak that the stage reaches when its intermediates
live until it returns, so an input-sized copy kept past its last use
crosses it.
"""

import tracemalloc

import numpy as np
import pytest

from benchdata import make_adult
from ffpdg import binarize, rongauss
from ffpdg.data import average_ranks, load_csv, save_csv

N = 50_000


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
    binary, codebook = binarize.build_codebook(adult, 1)
    codes = binary[np.random.default_rng(0).permutation(N)]
    rows, peak = peak_over_live(binarize.decode_codes, codes, codebook, 3)
    assert rows.shape == adult.values.shape
    assert peak <= 2.0 * adult.values.nbytes


def test_fit_frees_each_expanded_matrix_after_its_last_use(adult):
    model, peak = peak_over_live(rongauss.fit, adult, rongauss.GenerationConfig(seed=1))
    assert model.mode == rongauss.MODE_CLASSIFICATION
    assert peak <= 3.5 * adult.values.nbytes


def test_sample_frees_the_projected_draws_before_the_output(adult):
    model = rongauss.fit(adult, rongauss.GenerationConfig(seed=1))
    synthetic, peak = peak_over_live(rongauss.sample, model, N, 2)
    assert synthetic.values.shape == adult.values.shape
    assert peak <= 4.9 * adult.values.nbytes


def test_average_ranks_frees_the_sorted_copy_and_run_bounds_before_the_scatter():
    # distinct values: one tie run per value, the largest run-bound arrays
    values = np.random.default_rng(2).normal(size=N)
    ranks, peak = peak_over_live(average_ranks, values)
    assert np.array_equal(np.sort(ranks), np.arange(1.0, N + 1))
    assert peak <= 4.5 * values.nbytes


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
