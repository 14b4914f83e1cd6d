"""Typed tabular datasets: schema declaration, CSV I/O, quantiles, ranks and group rates.

Values are stored in a single float64 matrix. Continuous columns hold the
raw value, binary columns hold 0/1, categorical columns hold the level
index. The schema carries the interpretation.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError

CONTINUOUS = "continuous"
BINARY = "binary"
CATEGORICAL = "categorical"

ROLE_FEATURE = "feature"
ROLE_PROTECTED = "protected"
ROLE_LABEL = "label"

_KINDS = (CONTINUOUS, BINARY, CATEGORICAL)
_ROLES = (ROLE_FEATURE, ROLE_PROTECTED, ROLE_LABEL)


@dataclass(frozen=True)
class ColumnSpec:
    """One column: name, value kind, and its role in modeling."""

    name: str
    kind: str
    role: str = ROLE_FEATURE
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise SchemaError("column name must be nonempty")
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown kind {self.kind!r} for column {self.name!r}")
        if self.role not in _ROLES:
            raise SchemaError(f"unknown role {self.role!r} for column {self.name!r}")
        if self.kind == CATEGORICAL:
            if len(self.levels) < 2:
                raise SchemaError(f"categorical column {self.name!r} needs >= 2 levels")
            if len(set(self.levels)) != len(self.levels):
                raise SchemaError(f"duplicate levels in column {self.name!r}")
            padded = next((lvl for lvl in self.levels if lvl != lvl.strip()), None)
            if padded is not None:
                # load_csv strips categorical cells, so this level could not be read back
                raise SchemaError(f"level {padded!r} of column {self.name!r} has surrounding whitespace")
        elif self.levels:
            raise SchemaError(f"levels given for non-categorical column {self.name!r}")
        if self.role == ROLE_PROTECTED and self.kind != BINARY:
            raise SchemaError(f"protected column {self.name!r} must be binary")
        # labels: binary or categorical for classification, continuous for regression


@dataclass(frozen=True)
class Schema:
    """Ordered column specs with exactly one protected and at most one label column."""

    columns: tuple[ColumnSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("column names must be unique")
        n_protected = sum(c.role == ROLE_PROTECTED for c in self.columns)
        n_label = sum(c.role == ROLE_LABEL for c in self.columns)
        if n_protected != 1:
            raise SchemaError(f"exactly one protected column required, got {n_protected}")
        if n_label > 1:
            raise SchemaError(f"at most one label column allowed, got {n_label}")

    @property
    def d(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def protected_index(self) -> int:
        return next(i for i, c in enumerate(self.columns) if c.role == ROLE_PROTECTED)

    @property
    def label_index(self) -> int | None:
        for i, c in enumerate(self.columns):
            if c.role == ROLE_LABEL:
                return i
        return None

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"no column named {name!r}")


@dataclass(frozen=True)
class Dataset:
    """Immutable n x d value table plus its schema."""

    schema: Schema
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError("values must be a 2-d array")
        n, d = values.shape
        if n < 1:
            raise DataError("dataset needs at least one row")
        if d != self.schema.d:
            raise DataError(f"schema has {self.schema.d} columns, values have {d}")
        if d < 2:
            raise DataError("dataset needs at least two columns")
        _validate_values(self.schema, values)
        # a copy even of a fresh array: owning it instead raised generate's peak RSS (ROADMAP)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.schema.index_of(name)]

    def take(self, indices) -> "Dataset":
        return Dataset(self.schema, self.values[np.asarray(indices, dtype=int)])


def _validate_values(schema: Schema, values: np.ndarray):
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"non-finite value at row {bad[0]}, column {schema.columns[bad[1]].name!r}")
    for j, col in enumerate(schema.columns):
        v = values[:, j]
        if col.kind == BINARY:
            if not np.all((v == 0.0) | (v == 1.0)):
                bad = int(np.argmax((v != 0.0) & (v != 1.0)))
                raise DataError(f"non-binary value at row {bad}, column {col.name!r}")
        elif col.kind == CATEGORICAL:
            ok = (v == np.round(v)) & (v >= 0) & (v < len(col.levels))
            if not np.all(ok):
                bad = int(np.argmax(~ok))
                raise DataError(f"invalid level index at row {bad}, column {col.name!r}")


# -- schema text format ----------------------------------------------------
#
# One line per column, in column order:
#     <name> <kind> <role>
# where kind is continuous | binary | categorical(level1|level2|...).
# Blank lines and lines starting with '#' are ignored.

def schema_to_text(schema: Schema) -> str:
    lines = ["# ffpdg schema: <name> <kind> <role>"]
    for c in schema.columns:
        kind = c.kind
        if c.kind == CATEGORICAL:
            kind = f"categorical({'|'.join(c.levels)})"
        lines.append(f"{c.name} {kind} {c.role}")
    return "\n".join(lines) + "\n"


def schema_from_text(text: str) -> Schema:
    cols = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise SchemaError(f"schema line {lineno}: expected '<name> <kind> <role>', got {raw!r}")
        name, kind, role = parts
        levels: tuple[str, ...] = ()
        if kind.startswith("categorical(") and kind.endswith(")"):
            levels = tuple(kind[len("categorical("):-1].split("|"))
            kind = CATEGORICAL
        cols.append(ColumnSpec(name=name, kind=kind, role=role, levels=levels))
    return Schema(tuple(cols))


def load_schema(path) -> Schema:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return schema_from_text(fh.read())
    except OSError as exc:
        raise SchemaError(f"cannot read schema file {path}: {exc}") from exc


def save_schema(schema: Schema, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(schema_to_text(schema))


# -- CSV I/O -----------------------------------------------------------------

# Rows per block read or written: enough to amortize a block's numpy calls,
# few enough that its Python objects add little to peak memory.
_BLOCK_ROWS = 256

# The bytes numpy's reader may see: tab, the line breaks, printable ASCII and
# every byte of a multi-byte UTF-8 character. Not the other C0 controls: numpy
# skips \x1c-\x1f around a number, float() does not.
_PLAIN_BYTES = bytes([9, 10, 13, *range(32, 127), *range(128, 256)])

# What float() skips around a number: whitespace other than \x1c-\x1f
_FLOAT_PADDING = re.compile(r"^[^\S\x1c-\x1f]+|[^\S\x1c-\x1f]+$")


def load_csv(path, schema: Schema) -> Dataset:
    """Parse a header-first UTF-8 CSV into a Dataset, validating every cell.

    Continuous cells must parse as decimal numbers (Python ``float``
    syntax, surrounding whitespace ignored), binary cells as 0/1,
    categorical cells must be a declared level string. Errors name the
    path, the offending column and the row, counted from 0 over the data
    rows (the header is not counted).

    An ordinary file is read by numpy's C text reader: UTF-8 text without
    NUL or control bytes other than tab and the line breaks, a header that
    matches the schema, one row per data line, numbers numpy parses as
    float() does and only 0/1 in the binary columns. Every other file
    (underscores or Unicode digits in a number, blank lines, quoted line
    breaks, any cell or row that fails, text that is not UTF-8) is read by
    ``csv.reader`` a row at a time and a cell at a time, which returns the
    same values and writes every error message.

    Both look categorical cells up in a ``_LevelIndex``; numpy's reader
    finds a cell that is exactly a level without running Python code.
    """
    level_maps = [
        _LevelIndex((lvl, float(i)) for i, lvl in enumerate(c.levels)) if c.kind == CATEGORICAL else None
        for c in schema.columns
    ]
    values = _load_plain(path, schema, level_maps)
    if values is None:
        values = _load_rows(path, schema, level_maps)
    return Dataset(schema, values)


def _load_plain(path, schema: Schema, level_maps) -> np.ndarray | None:
    """The data rows of an ordinary file as numpy's C reader parses them, or None."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    if raw.translate(None, _PLAIN_BYTES):
        return None
    try:
        # strict: a quote left open at the line end means the header runs on
        header = next(csv.reader([re.match(rb"[^\r\n]*", raw)[0].decode("utf-8")], strict=True))
    except (UnicodeDecodeError, csv.Error):
        return None
    # physical lines after the header: a \n, a \r and a \r\n pair each end one
    lines = raw.count(b"\n") - raw.endswith((b"\n", b"\r"))
    if b"\r" in raw:
        lines += raw.count(b"\r") - raw.count(b"\r\n")
    del raw
    if header != schema.names or lines < 1:
        return None
    # numpy passes each cell with its quotes removed; a cell that is a level is
    # found without a Python call, a padded one is stripped by __missing__
    converters = {j: levels.__getitem__ for j, levels in enumerate(level_maps) if levels is not None}
    try:
        # a text handle keeps numpy from opening the path itself (it would
        # decompress a .gz name); universal newlines read a CR as a line end.
        # A decode error is a ValueError.
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "no data": the row count below rejects it
            values = np.loadtxt(fh, dtype=np.float64, delimiter=",", quotechar='"', comments=None,
                                skiprows=1, ndmin=2, converters=converters, encoding="utf-8")
    except (OSError, ValueError):
        return None
    # numpy skips blank lines and joins a quoted line break into one row;
    # either leaves fewer rows than lines
    if values.shape != (lines, schema.d):
        return None
    binary = values[:, [j for j, c in enumerate(schema.columns) if c.kind == BINARY]]
    if not np.all((binary == 0.0) | (binary == 1.0)):
        return None
    return values


def _load_rows(path, schema: Schema, level_maps) -> np.ndarray:
    """Parse the data rows through ``csv.reader``, a row at a time and a cell at a time.

    Cells are converted in column order and the first that fails raises,
    so an error names the earliest row, then the leftmost column. The
    parsed floats become a float64 block every ``_BLOCK_ROWS`` rows.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header, blocks, values = None, [], []
    try:
        with fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if header != schema.names:
                raise DataError(f"{path}: header {header!r} does not match schema columns {schema.names!r}")
            for row, cells in enumerate(reader):
                if len(cells) != schema.d:
                    raise DataError(f"{path}: row {row} has {len(cells)} cells, expected {schema.d}")
                for cell, col, levels in zip(cells, schema.columns, level_maps):
                    try:
                        values.append(_parse_cell(cell, col, levels))
                    except ValueError as exc:
                        raise DataError(f"{path}: row {row}, column {col.name!r}: {exc}") from None
                if row % _BLOCK_ROWS == _BLOCK_ROWS - 1:
                    blocks.append(np.array(values))
                    values.clear()
    except csv.Error as exc:
        # raised between rows: the rows parsed so far are the ones before it
        row = len(blocks) * _BLOCK_ROWS + len(values) // schema.d
        raise DataError(f"{path}: {'header' if header is None else f'row {row}'}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not blocks and not values:
        raise DataError(f"{path}: no data rows")
    blocks.append(np.array(values))
    return np.concatenate(blocks).reshape(-1, schema.d)


class _LevelIndex(dict):
    """A categorical column's level strings -> level index as a float.

    A cell that is not a key is stripped and looked up again, as the row
    parser reads a categorical cell; a second miss raises ValueError.
    """

    def __missing__(self, cell: str) -> float:
        text = cell.strip()
        value = self.get(text)
        if value is None:
            raise ValueError(f"unknown level {text!r}")
        return value


def _parse_cell(cell: str, col: ColumnSpec, levels) -> float:
    """The value of one cell of col; a ValueError says why the cell fails."""
    if col.kind == CATEGORICAL:
        return levels[cell]
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"cannot parse {_FLOAT_PADDING.sub('', cell)!r}") from None
    if col.kind == BINARY and value not in (0.0, 1.0):
        raise ValueError(f"binary cell must be 0 or 1, got {_FLOAT_PADDING.sub('', cell)!r}")
    return value


def save_csv(dataset: Dataset, path):
    """Write a Dataset as CSV so that load_csv(save_csv(D)) == D.

    The header is the schema's column names. Every row is written as the
    ``csv`` module's default writer would write it: fields that hold a
    comma, a quote or a line break are quoted, and every line ends in
    ``\\r\\n``. Binary cells are written as 0/1 and categorical cells as
    their level strings; continuous cells are formatted ``.17g``, enough
    significant digits for a bit-exact float64 round trip.

    Rows go out a block at a time through one printf-style row template
    of ``_row_fields``: a ``%.17g`` per continuous cell and a ``%s`` per run
    of binary and categorical cells, taken pre-joined from a table.
    """
    schema = dataset.schema
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    fields = _row_fields(schema)
    row = ",".join("%.17g" if table is None else "%s" for _, _, table in fields) + "\r\n"
    with fh:
        csv.writer(fh).writerow(schema.names)
        for first in range(0, dataset.n, _BLOCK_ROWS):
            block = dataset.values[first:first + _BLOCK_ROWS]
            cells = np.empty((len(block), len(fields)), dtype=object)
            for k, (columns, strides, table) in enumerate(fields):
                if table is None:
                    cells[:, k] = block[:, columns]
                else:
                    # level cells are small whole numbers: the code is exact in float64
                    cells[:, k] = table[(block[:, columns] @ strides).astype(np.intp)]
            # printf-style %.17g and the .17g format spec share one C formatter
            fh.write((row * len(block)) % tuple(cells.ravel().tolist()))


# Most joint values a field of several level columns may take
_JOINED_VALUES = 256


def _row_fields(schema: Schema) -> list[tuple]:
    """The fields of a saved row as (columns, strides, table), left to right.

    A continuous column is a field of its own: its index, then None, None.
    Each run of adjacent binary and categorical columns is cut greedily into
    fields whose columns take at most ``_JOINED_VALUES`` joint values (a
    categorical column with more levels is a field alone). Such a field's
    text for a row is ``table[cells @ strides]``: the mixed-radix code of
    its cells, leftmost column most significant, indexes every joint value's
    comma-joined, quoted-as-needed texts.
    """
    fields = []
    for j, col in enumerate(schema.columns):
        if col.kind == CONTINUOUS:
            fields.append((j, None, None))
            continue
        texts = ("0", "1") if col.kind == BINARY else tuple(_csv_field(lvl) for lvl in col.levels)
        table = fields[-1][2] if fields else None
        if table is not None and len(table) * len(texts) <= _JOINED_VALUES:
            columns, strides, _ = fields[-1]
            fields[-1] = (slice(columns.start, j + 1), np.append(strides * len(texts), 1.0),
                          [f"{joined},{text}" for joined in table for text in texts])
        else:
            fields.append((slice(j, j + 1), np.ones(1), list(texts)))
    return [(columns, strides, None if table is None else np.array(table, dtype=object))
            for columns, strides, table in fields]


def _csv_field(text: str) -> str:
    """text as the csv module's default writer writes it inside a row, quoted if needed.

    The field is written second of two, so the writer's rule for a row that
    is one empty field does not apply.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow(["", text])
    return buf.getvalue()[1:-2]


# -- quantiles, ranks and group rates -----------------------------------------

def interp_quantiles(sorted_values: np.ndarray, levels) -> np.ndarray:
    """Linear-interpolation quantiles of a sorted 1-d array at each level in [0, 1]."""
    n = len(sorted_values)
    pos = np.asarray(levels, dtype=np.float64) * (n - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def tie_runs(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, mean_ranks, sizes) of a 1-d array: the argsort that puts it in
    ascending order, then for each run of equal values in that order the
    mean of its 1-based ranks and its length. When no two values tie, the
    ranks are 1..n and `sizes` is a read-only view of ones that holds no
    buffer: no run bounds are built."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    order = np.argsort(values)
    ordered = values[order]
    new_run = ordered[1:] != ordered[:-1]
    del ordered
    if new_run.all():
        return order, np.arange(1.0, n + 1), np.broadcast_to(np.intp(1), n)
    starts = np.flatnonzero(np.r_[True, new_run])
    del new_run
    sizes = np.diff(starts, append=n)
    # a tie run holds ranks starts+1 .. starts+sizes; twice their mean is the
    # integer 2*starts+1+sizes (built in place), and half of it is exact in float64
    starts *= 2
    starts += 1
    starts += sizes
    means = 0.5 * starts
    return order, means, sizes


def scatter_runs(order, run_values, sizes, out=None) -> np.ndarray:
    """Give every row the value of its tie run: the rows of `tie_runs`'
    `order`, one value per run of `sizes` rows; written into `out` (a view
    with one slot per row) if given, else into a new array."""
    if len(run_values) < len(order):
        run_values = np.repeat(run_values, sizes)
    if out is None:
        out = np.empty(len(order))
    out[order] = run_values
    return out


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-d array; tied values share the mean of their ranks."""
    return scatter_runs(*tie_runs(values))


def group_rates(values, groups, weights=None) -> tuple[float, float]:
    """(mean over protected group 0, mean over group 1) of `values`, each row
    counted `weights` times (once without weights). Sums of 0/1 values with
    integer weights are exact, so a code histogram gives the rates of the
    rows it counts, bit for bit."""
    values = np.asarray(values, dtype=np.float64)
    groups = np.asarray(groups)
    weights = np.ones(len(values)) if weights is None else np.asarray(weights, dtype=np.float64)
    rates = []
    for g in (0, 1):
        mask = groups == g
        total = weights[mask].sum()
        if total == 0:
            raise DataError(f"protected group {g} has no rows")
        rates.append(float(weights[mask] @ values[mask] / total))
    return rates[0], rates[1]
