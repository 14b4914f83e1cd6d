"""Peak memory of the n-row stages of generate.

Each test bounds the tracemalloc peak above the memory live at the call
(numpy reports its array buffers to tracemalloc) in units of the input
table's size, n * d * 8 bytes. Each bound sits below the peak that the
stage reaches when its intermediates live until it returns, so an
(n, d)-sized copy kept past its last use crosses it.
"""

import tracemalloc

import numpy as np
import pytest

from benchdata import make_adult
from ffpdg import binarize, rongauss

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
