"""Schema parsing, dataset validation, CSV round-trips, quantiles and ranks."""

import csv
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

from conftest import mixed_dataset
from ffpdg import cli
from ffpdg.data import (
    _BLOCK_ROWS,
    _load_rows,
    BINARY,
    CATEGORICAL,
    CONTINUOUS,
    ColumnSpec,
    Dataset,
    ROLE_LABEL,
    ROLE_PROTECTED,
    Schema,
    average_ranks,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    schema_from_text,
    schema_to_text,
)
from ffpdg.errors import DataError, SchemaError
from oracles import cellwise_load_csv, cellwise_save_csv

DATA = Path(__file__).resolve().parents[1] / "data"
B = _BLOCK_ROWS


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


@pytest.mark.parametrize("level", [" a", "a ", "\ta", "a\n", "\r\n"])
def test_schema_rejects_a_level_that_load_csv_would_strip(level):
    with pytest.raises(SchemaError, match="whitespace"):
        ColumnSpec("c", CATEGORICAL, levels=(level, "b"))


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


def test_load_csv_reads_the_header_as_csv_reader_does(tmp_path):
    """A quote left open on the first line runs the header on into the data rows."""
    path = tmp_path / "h.csv"
    path.write_text('c,"y\r\n0,1\r\n1,0\r\n')
    with pytest.raises(DataError) as err:
        load_csv(path, two_col_schema())
    with pytest.raises(DataError) as ref:
        cellwise_load_csv(path, two_col_schema())
    assert str(err.value) == str(ref.value)
    assert "does not match schema columns" in str(err.value)


# levels that the csv module must quote (a comma, quotes, both, line breaks),
# plus the empty level that categorical(a||b) declares
QUOTED_LEVELS = ("plain", "a,b", 'say "hi"', 'x,"y"', "ünï", "line\nbreak", "crlf\r\nbreak", "")

# float64 values whose .17g form differs from repr or needs all 17 digits
AWKWARD = (0.1, 0.1 + 0.2, 1 / 3, 2 / 3 * 1e-300, 5e-324, 1.7976931348623157e308,
           -0.0, 123456789.12345679, 1e22, 1e16 + 2)


def quoting_schema():
    return Schema((
        ColumnSpec("score", CONTINUOUS),
        ColumnSpec("tag", CATEGORICAL, levels=QUOTED_LEVELS),
        ColumnSpec("member", BINARY, role=ROLE_PROTECTED),
        ColumnSpec("share", CONTINUOUS),
        ColumnSpec("outcome", CATEGORICAL, role=ROLE_LABEL, levels=("no", "yes")),
    ))


def quoting_dataset(n, seed):
    r = np.random.default_rng(seed)
    score = r.normal(size=n) * 10.0 ** r.integers(-20, 21, n)
    where = r.choice(n, size=min(n, len(AWKWARD)), replace=False)
    score[where] = AWKWARD[:len(where)]
    tag = r.integers(0, len(QUOTED_LEVELS), n)
    tag[:min(n, 3)] = (2, 1, 3)[:min(n, 3)]
    return Dataset(quoting_schema(), np.column_stack([
        score, tag, r.random(n) < 0.4, r.random(n), r.random(n) < 0.5,
    ]).astype(float))


def rewrite_rows(src, dst, edit):
    """Copy a CSV through csv.reader/csv.writer, passing each data row through edit(k, cells)."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(edit(k, cells) for k, cells in enumerate(rows))


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
def test_csv_io_matches_the_cellwise_oracle(tmp_path, n):
    ds = quoting_dataset(n, seed=n)
    assert any(format(x, ".17g") != repr(x) for x in ds.values[:, 0].tolist())
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    save_csv(ds, ours)
    cellwise_save_csv(ds, ref)
    written = ours.read_bytes()
    assert written == ref.read_bytes()
    tags = [QUOTED_LEVELS[int(t)] for t in ds.values[:, 1]]
    assert written.count(b"\r\n") == n + 1 + tags.count("crlf\r\nbreak")
    assert b'"say ""hi"""' in written
    if n > B:
        assert set(tags) == set(QUOTED_LEVELS)
        assert b'"line\nbreak"' in written and b'"crlf\r\nbreak"' in written
    for path in (ours, ref):
        back = load_csv(path, ds.schema)
        assert back.values.tobytes() == ds.values.tobytes()
        assert back.values.tobytes() == cellwise_load_csv(path, ds.schema).values.tobytes()

    pads = (" ", "\t", "  ", " \t ")
    r = np.random.default_rng(n)
    padded = tmp_path / "padded.csv"
    rewrite_rows(ours, padded, lambda k, cells: [
        pads[r.integers(4)] + cell + pads[r.integers(4)] for cell in cells])
    back = load_csv(padded, ds.schema)
    assert back.values.tobytes() == ds.values.tobytes()
    assert back.values.tobytes() == cellwise_load_csv(padded, ds.schema).values.tobytes()


def test_percent_g_formats_like_the_format_spec():
    """save_csv writes continuous cells through a printf-style %.17g row template."""
    r = np.random.default_rng(17)
    bits = np.frombuffer(r.bytes(8 * 10_000), dtype=np.float64)
    values = [*AWKWARD, *bits[np.isfinite(bits)].tolist()]
    assert ["%.17g" % x for x in values] == [format(x, ".17g") for x in values]


def test_load_csv_follows_float_syntax(tmp_path):
    """Continuous cells parse as float() does: underscores, Unicode digits, signs, underflow."""
    schema = Schema((ColumnSpec("x", CONTINUOUS), ColumnSpec("c", BINARY, role=ROLE_PROTECTED)))
    cells = ["1_0", "\t2.5 ", "\u0661\u0662", "+.5", "-0", "1e-400", "1E5", " 1.0 "]
    path = tmp_path / "floats.csv"
    path.write_text("x,c\n" + "".join(f"{x},{x if k == len(cells) - 1 else 0}\n"
                                       for k, x in enumerate(cells)), encoding="utf-8")
    back = load_csv(path, schema)
    assert back.values[:, 0].tolist() == [10.0, 2.5, 12.0, 0.5, -0.0, 0.0, 1e5, 1.0]
    assert back.values.tobytes() == cellwise_load_csv(path, schema).values.tobytes()
    for cell in ("nan", "-inf", "1e400"):
        path.write_text(f"x,c\n1,0\n{cell},1\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_csv(path, schema)
        assert str(err.value) == "non-finite value at row 1, column 'x'"


@pytest.mark.parametrize("column, cell, why", [
    ("score", "12abc", "cannot parse '12abc'"),
    ("member", "2", "binary cell must be 0 or 1, got '2'"),
    ("tag", "nope", "unknown level 'nope'"),
])
def test_load_csv_names_a_bad_cell_past_a_block_boundary(tmp_path, column, cell, why):
    ds = quoting_dataset(2 * B + 3, seed=4)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    save_csv(ds, good)
    j = ds.schema.index_of(column)
    rewrite_rows(good, bad, lambda k, cells: (
        cells[:j] + [f" {cell} "] + cells[j + 1:] if k == B + 3 else cells))
    with pytest.raises(DataError) as err:
        load_csv(bad, ds.schema)
    assert str(err.value) == f"{bad}: row {B + 3}, column {column!r}: {why}"
    with pytest.raises(DataError) as ref:
        cellwise_load_csv(bad, ds.schema)
    assert str(err.value) == str(ref.value)


def test_load_csv_names_a_short_row_past_a_block_boundary(tmp_path):
    ds = quoting_dataset(2 * B + 3, seed=5)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    save_csv(ds, good)
    rewrite_rows(good, bad, lambda k, cells: cells[:-1] if k == B + 3 else cells)
    with pytest.raises(DataError) as err:
        load_csv(bad, ds.schema)
    assert str(err.value) == f"{bad}: row {B + 3} has 4 cells, expected 5"
    with pytest.raises(DataError) as ref:
        cellwise_load_csv(bad, ds.schema)
    assert str(err.value) == str(ref.value)


def test_load_csv_reports_the_first_of_several_faults_like_the_oracle(tmp_path):
    """Faults in several rows and columns: the earliest row wins, then the leftmost column."""
    ds = quoting_dataset(B + 40, seed=6)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    save_csv(ds, good)
    faults = {0: "1.5.5", 1: "nope", 2: "0.5", 3: "x", 4: "maybe", "short": None}
    rows = (0, 1, 7, B - 1, B, B + 3)
    r = np.random.default_rng(6)
    for _ in range(40):
        planted = {}
        for _ in range(int(r.integers(1, 4))):
            k = int(r.choice(rows))
            kind = list(faults)[r.integers(len(faults))]
            planted.setdefault(k, []).append(kind)

        def edit(k, cells, planted=planted):
            cells = list(cells)
            for kind in planted.get(k, ()):
                if kind == "short":
                    cells = cells[:2]
                elif len(cells) == ds.d:
                    cells[kind] = faults[kind]
            return cells

        rewrite_rows(good, bad, edit)
        with pytest.raises(DataError) as err:
            load_csv(bad, ds.schema)
        with pytest.raises(DataError) as ref:
            cellwise_load_csv(bad, ds.schema)
        assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("cell", ["\x1c1", "1\x1f"])
def test_load_csv_rejects_a_number_that_only_str_strip_would_clean(tmp_path, cell):
    """str.strip() drops \x1c-\x1f, float() does not: the cell cannot be parsed, and the
    message shows it as float() reads it."""
    schema = Schema((ColumnSpec("x", CONTINUOUS), ColumnSpec("c", BINARY, role=ROLE_PROTECTED)))
    path = tmp_path / "sep.csv"
    path.write_text(f"x,c\n1,0\n{cell},1\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_csv(path, schema)
    assert str(err.value) == f"{path}: row 1, column 'x': cannot parse {cell!r}"
    with pytest.raises(DataError) as ref:
        cellwise_load_csv(path, schema)
    assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("schema", [two_col_schema(), Schema((ColumnSpec("c", BINARY, role=ROLE_PROTECTED),))])
@pytest.mark.parametrize("header_end, why", [(None, "empty file"), ("\n", "no data rows"), ("", "no data rows")])
def test_load_csv_names_a_file_without_data_rows(tmp_path, schema, header_end, why):
    """One column too: numpy reads a header-only file as shape (0, 1)."""
    path = tmp_path / "empty.csv"
    path.write_text("" if header_end is None else ",".join(schema.names) + header_end)
    with pytest.raises(DataError) as err:
        load_csv(path, schema)
    assert str(err.value) == f"{path}: {why}"
    with pytest.raises(DataError) as ref:
        cellwise_load_csv(path, schema)
    assert str(err.value) == str(ref.value)


def assert_load_error(path, schema_path, schema, message, capsys):
    """load_csv and the oracle raise DataError(message); generate on the file exits 1 naming it."""
    with pytest.raises(DataError) as err:
        load_csv(path, schema)
    assert str(err.value) == message
    with pytest.raises(DataError) as ref:
        cellwise_load_csv(path, schema)
    assert str(ref.value) == message
    rc = cli.main(["generate", "--schema", str(schema_path), "--input", str(path),
                   "--output", str(path.with_suffix(".out.csv"))])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("line, where", [(0, "header"), (6, "row 5")])
def test_load_csv_names_a_cell_over_the_csv_field_limit(tmp_path, capsys, line, where):
    """csv.reader's field limit (131,072 characters) is reached only by the row parser:
    the trailing blank line keeps numpy's reader from taking the file."""
    schema = load_schema(DATA / "adult.schema")
    lines = (DATA / "adult_sample.csv").read_bytes().split(b"\r\n")
    lines[line] = b" " * 140_000 + lines[line]
    path = tmp_path / "wide.csv"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    assert_load_error(path, DATA / "adult.schema", schema,
                      f"{path}: {where}: field larger than field limit ({csv.field_size_limit()})", capsys)


def test_load_csv_names_a_file_that_is_not_utf8(tmp_path, capsys):
    schema = Schema((
        ColumnSpec("x", CONTINUOUS),
        ColumnSpec("tag", CATEGORICAL, levels=("e", "\u00e9")),
        ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
    ))
    save_schema(schema, tmp_path / "tag.schema")
    path = tmp_path / "latin1.csv"
    path.write_bytes("x,tag,c\n1.5,e,0\n2.5,\u00e9,1\n".encode("latin-1"))
    assert_load_error(path, tmp_path / "tag.schema", schema,
                      f"{path}: not UTF-8 text: invalid continuation byte", capsys)


# tag levels a file of printable ASCII can hold on one line
ONE_LINE_ASCII = [k for k, lvl in enumerate(QUOTED_LEVELS) if lvl.isascii() and "\n" not in lvl]


def csv_line(cells, quote=()):
    """One CSV line: a cell is quoted when it must be, or when its index is in quote."""
    return ",".join('"' + c.replace('"', '""') + '"' if j in quote or any(ch in c for ch in ',"\r\n') else c
                    for j, c in enumerate(cells))


def edit_rows(kind, r, rows):
    """(rows as cell lists, line end) after one seeded edit of the kind named."""
    k = int(r.integers(len(rows)))
    if kind == "padding":
        pads = (" ", "\t", "  ", " \t ")
        rows = [[pads[r.integers(4)] + c + pads[r.integers(4)] for c in cells] for cells in rows]
    elif kind == "non-ASCII whitespace":
        pads = ("\u00a0", "\u2003", "\u2028", "\u0085")
        rows = [[pads[r.integers(4)] + c + pads[r.integers(4)] for c in cells] for cells in rows]
    elif kind == "non-ASCII level":
        rows[k][1] = "ünï"
    elif kind == "Unicode digits":
        rows[k][0] = "\u0661\u0662"
    elif kind == "separator padding":
        rows[k][3] = "\x1c" + rows[k][3]
    elif kind == "quoted line break":
        rows[k][1] = ("line\nbreak", "crlf\r\nbreak")[r.integers(2)]
    elif kind == "underscores":
        rows[k][0] = "1_000.5"
    elif kind == "bad cell":
        j = int(r.integers(5))
        rows[k][j] = ("12abc", "nope", "2", "0.5x", "maybe")[j]
    elif kind == "short row":
        rows[k] = rows[k][:-1]
    elif kind == "long row":
        rows[k] = rows[k] + ["0"]
    return rows, "\r" if kind == "CR line ends" else "\r\n"


# edits that keep a file ordinary, so numpy's reader takes it
PLAIN_EDITS = ("none", "padding", "quoted numbers", "CR line ends", "non-ASCII whitespace",
               "non-ASCII level")
FALLBACK_EDITS = ("blank line", "whitespace line", "quoted line break", "underscores",
                  "Unicode digits", "separator padding", "bad cell", "short row", "long row")


@pytest.mark.parametrize("kind", PLAIN_EDITS + FALLBACK_EDITS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_load_csv_matches_the_cellwise_oracle_on_edited_files(tmp_path, monkeypatch, kind, seed):
    """Each edit gives the oracle's value bytes or error text, on the reader the edit calls for."""
    ds = quoting_dataset(2 * B + 3, seed=seed)
    ds = ds.take(np.flatnonzero(np.isin(ds.values[:, 1], ONE_LINE_ASCII)))
    save_csv(ds, tmp_path / "base.csv")
    with open(tmp_path / "base.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    r = np.random.default_rng(seed)
    rows, newline = edit_rows(kind, r, rows)
    lines = [csv_line(header)]
    for k, cells in enumerate(rows):
        # quoted numbers: the score, member and share cells of every third row
        lines.append(csv_line(cells, quote=(0, 2, 3) if kind == "quoted numbers" and k % 3 == 0 else ()))
    if kind in ("blank line", "whitespace line"):
        lines.insert(int(r.integers(2, len(lines))), "" if kind == "blank line" else " \t")
    path = tmp_path / "edited.csv"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))

    calls = []

    def counting_load_rows(*args):
        calls.append(args)
        return _load_rows(*args)

    monkeypatch.setattr("ffpdg.data._load_rows", counting_load_rows)
    try:
        ref = cellwise_load_csv(path, ds.schema).values.tobytes()
    except DataError as exc:
        with pytest.raises(DataError) as err:
            load_csv(path, ds.schema)
        assert str(err.value) == str(exc)
    else:
        assert load_csv(path, ds.schema).values.tobytes() == ref
    assert (not calls) == (kind in PLAIN_EDITS)


def test_load_csv_reads_a_plain_file_without_the_block_parser(tmp_path, monkeypatch):
    ds = mixed_dataset(2 * B + 3, seed=8)
    path = tmp_path / "plain.csv"
    save_csv(ds, path)

    def refuse(*args):
        raise AssertionError("the row parser ran on a plain file")

    monkeypatch.setattr("ffpdg.data._load_rows", refuse)
    assert load_csv(path, ds.schema).values.tobytes() == ds.values.tobytes()


@pytest.mark.parametrize("name", ["adult_sample", "adult_holdout", "compas_sample", "compas_holdout"])
def test_bundled_data_round_trips_byte_for_byte(tmp_path, name):
    """The bundled files are the writer's own output: CRLF line ends, .17g continuous cells."""
    src = DATA / f"{name}.csv"
    schema = load_schema(DATA / f"{name.split('_')[0]}.schema")
    out = tmp_path / "out.csv"
    save_csv(load_csv(src, schema), out)
    assert out.read_bytes() == src.read_bytes()


def test_average_ranks_match_scipy_with_ties():
    r = np.random.default_rng(13)
    for n in (1, 2, 7, 50, 500):
        values = r.integers(0, 6, size=n).astype(float)  # heavy ties
        assert np.array_equal(average_ranks(values), rankdata(values))
        values = r.normal(size=n)
        assert np.array_equal(average_ranks(values), rankdata(values))
