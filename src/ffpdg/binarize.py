"""Discretization of datasets into binary codes and inversion back to rows.

A CodeBook holds the schema, each continuous column's quantile
thresholds and the observed code -> source row indices dictionary; the
bit layout follows from the schema and the thresholds (`CodeBook.bits`).
Only observed codes can be inverted: `decode_codes` draws each code's
count of its own rows, which the caller passes in.

This module alone decides how a code is keyed. `pack_codes` packs each
0/1 row into bytes with np.packbits, which is big-endian, and views the
bytes as one fixed-width np.void key. Comparing keys byte by byte then
compares the rows lexicographically at any width, so one stable
np.lexsort over the byte columns (`distinct_codes`) groups equal codes in
key order, and np.searchsorted over keys stands in for a row-wise search
over bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BINARY, CATEGORICAL, CONTINUOUS, ColumnSpec, Dataset, Schema, interp_quantiles
from .errors import DataError


@dataclass(frozen=True)
class CodeBook:
    """Bit layout plus the observed code -> source row indices dictionary.

    A code is stored once, as a row of `keys`; its width `m`, its packed
    key (see pack_codes) and its row count are derived from it. Entry i
    is the code `keys[i]`, carried by the source rows listed in ascending
    order in `row_order[row_starts[i]:row_starts[i + 1]]` (compressed
    sparse rows: one index array, one offset per entry plus the end).
    Entries are sorted lexicographically.
    """

    schema: Schema
    thresholds: tuple[tuple[float, ...], ...]  # one per column; empty unless continuous
    keys: np.ndarray        # (k, m) uint8, lexicographically sorted, unique
    row_order: np.ndarray   # (n,) source row indices, grouped by key
    row_starts: np.ndarray  # (k + 1,) offsets of each key's group in row_order

    @property
    def m(self) -> int:
        return self.keys.shape[1]

    @property
    def counts(self) -> np.ndarray:
        """Source rows per entry."""
        return np.diff(self.row_starts)

    def entry_count(self) -> int:
        return len(self.keys)

    def bits(self, j: int) -> range:
        """Bit indices of schema column j: one per level of a categorical
        column, one per threshold of a continuous one, one for a binary one."""
        widths = [len(col.levels) or len(t) or 1 for col, t in zip(self.schema.columns, self.thresholds)]
        return range(sum(widths[:j]), sum(widths[:j + 1]))

    def summary(self) -> str:
        """Human-readable layout and entry counts for audit output."""
        lines = [f"bits={self.m} entries={self.entry_count()} rows={len(self.row_order)}"]
        for j, col in enumerate(self.schema.columns):
            detail = ""
            if col.kind == CONTINUOUS:
                detail = " thresholds=" + ",".join(format(t, ".6g") for t in self.thresholds[j])
            elif col.kind == CATEGORICAL:
                detail = " levels=" + ",".join(col.levels)
            bits = ",".join(str(b) for b in self.bits(j))
            lines.append(f"column={col.name} kind={col.kind} bits={bits}{detail}")
        return "\n".join(lines)


def pack_codes(bits) -> np.ndarray:
    """One fixed-width np.void key per row of a 2-d 0/1 matrix.

    Keys sort in the lexicographic order of the rows; the pad bits of the
    last byte are zero in every key. Raises DataError for an entry outside
    {0, 1}, which np.packbits would otherwise read as 1.
    """
    bits = np.asarray(bits)
    if np.any((bits != 0) & (bits != 1)):
        raise DataError("codes must contain only 0 and 1")
    packed = np.packbits(bits.astype(np.uint8, copy=False), axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def distinct_codes(bits):
    """Group the rows of a 0/1 matrix by code with one stable sort.

    Returns (keys, first, order, starts): the k distinct packed keys in
    ascending order, the first row carrying each, every row index grouped
    by key (ascending within a key), and the (k + 1,) offsets of the
    groups in `order`, so key i has `starts[i + 1] - starts[i]` rows.
    np.lexsort over the packed byte columns, most significant byte last,
    sorts in the byte order of the np.void keys.
    """
    packed = pack_codes(bits)
    columns = packed.view(np.uint8).reshape(len(packed), packed.dtype.itemsize)
    order = np.lexsort(columns.T[::-1])
    ordered = columns[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    starts = np.append(np.flatnonzero(new), len(order))
    first = order[starts[:-1]]
    return packed[first], first, order, starts


def _column_bits(col: ColumnSpec, values: np.ndarray, bins: int):
    """Binarize one column; returns (bits matrix, thresholds)."""
    if col.kind == BINARY:
        return values[:, None].astype(np.uint8), ()
    if col.kind == CATEGORICAL:
        return (values[:, None] == np.arange(len(col.levels))).astype(np.uint8), ()
    levels = [(j + 1) / (bins + 1) for j in range(bins)]
    thresholds = tuple(float(t) for t in interp_quantiles(np.sort(values), levels))
    return (values[:, None] >= np.asarray(thresholds)).astype(np.uint8), thresholds


def build_codebook(dataset: Dataset, bins_per_continuous: int) -> tuple[np.ndarray, CodeBook]:
    """Binarize a dataset and index every row under its code.

    Continuous columns get `bins_per_continuous` bits with thresholds at
    the 1/(bins+1), ..., bins/(bins+1) quantiles (bit = 1 iff value >=
    threshold), binary columns one identity bit, categorical columns a
    one-hot block. Returns the n x m binary matrix and the CodeBook.
    """
    if bins_per_continuous < 1:
        raise DataError("bins_per_continuous must be >= 1")
    columns = [_column_bits(col, dataset.values[:, j], bins_per_continuous)
               for j, col in enumerate(dataset.schema.columns)]
    binary = np.hstack([bits for bits, _ in columns])
    _, first, order, starts = distinct_codes(binary)
    codebook = CodeBook(
        schema=dataset.schema,
        thresholds=tuple(thresholds for _, thresholds in columns),
        keys=binary[first],
        row_order=order,
        row_starts=starts,
    )
    return binary, codebook


def decode_codes(codes: np.ndarray, counts: np.ndarray, codebook: CodeBook, rows: np.ndarray,
                 seed: int) -> np.ndarray:
    """`counts[i]` rows of `rows` (the table the codebook was built from)
    for each distinct observed code `codes[i]`, grouped in that order.

    The packed codes are matched to the packed codebook keys by
    np.searchsorted; a code the codebook does not hold, or one given
    twice, raises DataError. One stable argsort of the exact uint64 key
    `entry << 32 | 32 random bits` shuffles every entry's row_order slice
    at once. The j-th draw of an entry takes row j mod count of its
    shuffled slice, so an entry's rows are drawn without replacement until
    its draws outnumber them, and no source row is returned more than
    ceil(draws / count) times. A fixed seed fixes the output.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != codebook.m:
        raise DataError(f"codes must be (k, {codebook.m})")
    if len(rows) != len(codebook.row_order):
        raise DataError(f"rows has {len(rows)} rows, the codebook indexes {len(codebook.row_order)}")
    queries = pack_codes(codes)
    packed = pack_codes(codebook.keys)
    entry = np.minimum(np.searchsorted(packed, queries), codebook.entry_count() - 1)
    unseen = int(np.count_nonzero(packed[entry] != queries))
    if unseen:
        raise DataError(f"{unseen} of {len(codes)} codes are not in the codebook")
    if len(np.unique(entry)) < len(entry):
        raise DataError(f"{len(entry) - len(np.unique(entry))} codes are given more than once")
    sort_key = np.repeat(np.arange(len(packed), dtype=np.uint64), codebook.counts) << np.uint64(32)
    sort_key |= np.random.default_rng(seed).integers(0, 1 << 32, size=len(sort_key), dtype=np.uint64)
    # stable: two rows of an entry that drew the same 32 bits keep their
    # order on every platform, whichever sort numpy dispatches to
    shuffled = codebook.row_order[np.argsort(sort_key, kind="stable")]
    del sort_key
    rank = np.arange(np.sum(counts)) - np.repeat(np.cumsum(counts) - counts, counts)
    rank %= np.repeat(codebook.counts[entry], counts)
    rank += np.repeat(codebook.row_starts[entry], counts)
    source = shuffled[rank]
    del shuffled, rank
    return rows[source]
