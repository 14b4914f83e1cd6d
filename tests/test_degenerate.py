"""Degenerate inputs through the CLI: every run ends in a release that reads back, or one tagged line.

Each case is a seeded table of at most 300 rows, built with numpy alone.
`generate` runs on it through `cli.main`, and so do `inspect` and
`evaluate` when it succeeds. A run either exits 0 with output that
reloads (the CSV under the schema with the expected row count; the
audit's model sampling exactly as the fitted one does for a fixed seed),
or exits 1 with exactly one line on stderr, `error: ...`. A Python
warning counts as a line, since the CLI would print it.
"""

import warnings

import numpy as np
import pytest

from conftest import binary_group_dataset, float_limit_column, one_feature_dataset
from ffpdg import cli
from ffpdg.audit import read_audit
from ffpdg.data import (BINARY, ROLE_LABEL, ROLE_PROTECTED, ColumnSpec, Dataset, Schema, load_csv,
                        save_csv, save_schema)
from ffpdg.rongauss import generate_with_artifacts, sample

N = 300


def _with_column(ds, j, value):
    values = ds.values.copy()
    values[:, j] = value
    return Dataset(ds.schema, values)


def _wide_binary(features, seed):
    r = np.random.default_rng(seed)
    cols = tuple(ColumnSpec(f"f{i}", BINARY) for i in range(features))
    cols += (ColumnSpec("c", BINARY, role=ROLE_PROTECTED), ColumnSpec("y", BINARY, role=ROLE_LABEL))
    return Dataset(Schema(cols), (r.random((N, features + 2)) < 0.5).astype(float))


def _cases():
    group = binary_group_dataset(N, 0.3, 0.6, seed=11, n_features=3)
    continuous = one_feature_dataset(np.random.default_rng(12).standard_normal(N), seed=13)
    label, protected = group.schema.label_index, group.schema.protected_index
    one_group_label = group.values.copy()
    one_group_label[group.values[:, protected] == 0, label] = 0.0
    return {
        **{f"{k}-rows-in-a-class": _with_column(group, label, np.arange(N) < k) for k in (1, 2, 3)},
        "constant-continuous": _with_column(continuous, 0, 4.25),
        "constant-binary": _with_column(group, 0, 1.0),
        "empty-protected-group": _with_column(group, protected, 0.0),
        "one-label-in-one-group": Dataset(group.schema, one_group_label),
        "one-label-overall": _with_column(group, label, 0.0),
        "float-limit-normal": one_feature_dataset(float_limit_column("normal", N, 14), seed=15),
        "float-limit-span": one_feature_dataset(float_limit_column("span", N, 16), seed=17),
        "70-code-bits": _wide_binary(70, seed=18),
    }


CASES = _cases()


def _run(argv, capsys):
    """(exit code, stderr lines): each warning raised is one more line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    return rc, err + [str(w.message) for w in caught]


def _assert_failed_once(rc, err):
    assert rc == 1 and len(err) == 1 and err[0].startswith("error: "), (rc, err)


@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_input_releases_readable_output_or_fails_once(tmp_path, capsys, case):
    ds = CASES[case]
    schema_path, csv_path = tmp_path / "t.schema", tmp_path / "t.csv"
    out, audit = tmp_path / "o.csv", tmp_path / "o.audit"
    save_schema(ds.schema, schema_path)
    save_csv(ds, csv_path)
    argv = ["generate", "--schema", str(schema_path), "--input", str(csv_path),
            "--output", str(out), "--audit", str(audit), "--seed", "3"]
    rc, err = _run(argv, capsys)
    if rc != 0:
        _assert_failed_once(rc, err)
        assert not out.exists()
        return

    released = load_csv(out, ds.schema)
    assert released.n == ds.n
    args = cli.build_parser().parse_args(argv)
    result = generate_with_artifacts(load_csv(csv_path, ds.schema),
                                     cli._generation_config(args, n_out=args.n_out, rate=args.rate))
    assert released.values.tobytes() == result.dataset.values.tobytes()
    model = read_audit(audit)["model"]
    assert sample(model, 50, seed=5).values.tobytes() == sample(result.model, 50, seed=5).values.tobytes()

    rc, err = _run(["inspect", "--audit", str(audit)], capsys)
    assert rc == 0 and err == [], err
    rc, err = _run(["evaluate", "--schema", str(schema_path), "--input", str(csv_path),
                    "--test", str(csv_path), "--synthetic", str(out)], capsys)
    if rc != 0:
        _assert_failed_once(rc, err)
