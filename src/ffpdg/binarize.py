"""Discretization of datasets into binary codes and inversion back to rows.

A CodeBook remembers how each source column maps to bits (quantile
thresholds for continuous columns, identity for binary, one-hot for
categorical) and which original rows produced each observed code. Only
observed codes can be inverted: each maps back to one of its own rows.

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
from .errors import DataError, SchemaError


@dataclass(frozen=True)
class BitGroup:
    """Bits produced by one source column."""

    column: str
    kind: str
    bit_indices: tuple[int, ...]
    thresholds: tuple[float, ...] = ()  # continuous only, one per bit
    levels: tuple[str, ...] = ()        # categorical only, one per bit


@dataclass(frozen=True)
class CodeBook:
    """Bit layout plus the observed code -> source rows dictionary.

    Entry i is the code `keys[i]`, whose packed key (see pack_codes) is
    `packed[i]`; `counts[i]` source rows carry it, listed in ascending
    order in `row_order[row_starts[i]:row_starts[i + 1]]` (compressed
    sparse rows: one index array, one offset per entry plus the end).
    Entries are sorted by packed key, which is the lexicographic order of
    the codes.
    """

    schema: Schema
    m: int
    bit_layout: tuple[BitGroup, ...]
    keys: np.ndarray        # (k, m) uint8, lexicographically sorted, unique
    packed: np.ndarray      # (k,) np.void packed keys, same order
    counts: np.ndarray      # (k,) source rows per key
    row_order: np.ndarray   # (n,) indices into `rows`, grouped by key
    row_starts: np.ndarray  # (k + 1,) offsets of each key's group in row_order
    rows: np.ndarray        # original-space values the indices point into

    def entry_count(self) -> int:
        return len(self.keys)

    def bit_for_column(self, index: int) -> int:
        """Bit index of a single-bit (binary) source column."""
        group = self.bit_layout[index]
        if len(group.bit_indices) != 1:
            raise SchemaError(f"column {group.column!r} maps to {len(group.bit_indices)} bits")
        return group.bit_indices[0]

    def summary(self) -> str:
        """Human-readable layout and entry counts for audit output."""
        lines = [f"bits={self.m} entries={self.entry_count()} rows={len(self.rows)}"]
        for g in self.bit_layout:
            detail = ""
            if g.kind == CONTINUOUS:
                detail = " thresholds=" + ",".join(format(t, ".6g") for t in g.thresholds)
            elif g.kind == CATEGORICAL:
                detail = " levels=" + ",".join(g.levels)
            bits = ",".join(str(b) for b in g.bit_indices)
            lines.append(f"column={g.column} kind={g.kind} bits={bits}{detail}")
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


def _column_bits(col: ColumnSpec, values: np.ndarray, bins: int, offset: int):
    """Binarize one column; returns (bits matrix, BitGroup)."""
    if col.kind == BINARY:
        bits = values[:, None].astype(np.uint8)
        group = BitGroup(col.name, BINARY, (offset,))
    elif col.kind == CATEGORICAL:
        k = len(col.levels)
        bits = np.zeros((len(values), k), dtype=np.uint8)
        bits[np.arange(len(values)), values.astype(int)] = 1
        group = BitGroup(col.name, CATEGORICAL, tuple(range(offset, offset + k)), levels=col.levels)
    else:
        levels = [(j + 1) / (bins + 1) for j in range(bins)]
        thresholds = tuple(float(t) for t in interp_quantiles(np.sort(values), levels))
        bits = (values[:, None] >= np.asarray(thresholds)[None, :]).astype(np.uint8)
        group = BitGroup(col.name, CONTINUOUS, tuple(range(offset, offset + bins)), thresholds=thresholds)
    return bits, group


def build_codebook(dataset: Dataset, bins_per_continuous: int = 1) -> tuple[np.ndarray, CodeBook]:
    """Binarize a dataset and index every row under its code.

    Continuous columns get `bins_per_continuous` bits with thresholds at
    the 1/(bins+1), ..., bins/(bins+1) quantiles (bit = 1 iff value >=
    threshold), binary columns one identity bit, categorical columns a
    one-hot block. Returns the n x m binary matrix and the CodeBook.
    """
    if bins_per_continuous < 1:
        raise DataError("bins_per_continuous must be >= 1")
    blocks = []
    layout = []
    offset = 0
    for j, col in enumerate(dataset.schema.columns):
        bits, group = _column_bits(col, dataset.values[:, j], bins_per_continuous, offset)
        blocks.append(bits)
        layout.append(group)
        offset += bits.shape[1]
    binary = np.hstack(blocks)
    packed, first, order, starts = distinct_codes(binary)
    codebook = CodeBook(
        schema=dataset.schema,
        m=binary.shape[1],
        bit_layout=tuple(layout),
        keys=binary[first],
        packed=packed,
        counts=np.diff(starts),
        row_order=order,
        row_starts=starts,
        rows=dataset.values,
    )
    return binary, codebook


def decode_codes(codes: np.ndarray, codebook: CodeBook, seed: int) -> np.ndarray:
    """Invert a batch of observed codes to original-space rows.

    The queries are packed, grouped by distinct code (distinct_codes) and
    matched to the codebook's packed keys by np.searchsorted; a code the
    codebook does not hold raises DataError. One stable argsort of the
    exact uint64 key `entry << 32 | 32 random bits` shuffles every
    entry's row_order slice at once. The j-th query of an entry, counting
    in input order, takes row j mod count of its shuffled slice, so an
    entry's rows are drawn without replacement until its queries outnumber
    them, and no source row is returned more than ceil(queries / count)
    times. A fixed seed fixes the output; row order follows the input.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != codebook.m:
        raise DataError(f"codes must be (n, {codebook.m})")
    uniq, _, where_order, where_starts = distinct_codes(codes)
    entry = np.minimum(np.searchsorted(codebook.packed, uniq), codebook.entry_count() - 1)
    unseen = int(np.count_nonzero(codebook.packed[entry] != uniq))
    if unseen:
        raise DataError(f"{unseen} of {len(uniq)} distinct codes are not in the codebook")
    counts = codebook.counts
    sort_key = np.repeat(np.arange(len(counts), dtype=np.uint64), counts) << np.uint64(32)
    sort_key |= np.random.default_rng(seed).integers(0, 1 << 32, size=len(sort_key), dtype=np.uint64)
    # stable: two rows of an entry that drew the same 32 bits keep their
    # order on every platform, whichever sort numpy dispatches to
    shuffled = codebook.row_order[np.argsort(sort_key, kind="stable")]
    del sort_key
    sizes = np.diff(where_starts)
    query_entry = np.repeat(entry, sizes)
    rank = np.arange(len(codes)) - np.repeat(where_starts[:-1], sizes)
    rank %= counts[query_entry]
    rank += codebook.row_starts[query_entry]
    del query_entry
    # scatter the row indices into query order, so the (n, d) rows are
    # gathered once, with no n-row index array left but `source`
    source = np.empty_like(rank)
    source[where_order] = shuffled[rank]
    del shuffled, rank, where_order
    return codebook.rows[source]
