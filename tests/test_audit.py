"""Audit files: render, parse, and model round-trip."""

import json
import re

import numpy as np
import pytest

from conftest import binary_group_dataset
from ffpdg import cli
from ffpdg.audit import (
    FORMAT_LINE,
    model_section,
    parse_model_section,
    read_audit,
    render_audit,
    write_audit,
)
from ffpdg.dp import PrivacyBudget
from ffpdg.errors import DataError
from ffpdg.rongauss import GenerationConfig, generate_with_artifacts, sample


@pytest.fixture(scope="module")
def artifacts():
    ds = binary_group_dataset(600, 0.25, 0.6, seed=20, n_features=3)
    config = GenerationConfig(budget=PrivacyBudget.from_total(2.0), seed=9)
    return generate_with_artifacts(ds, config=config), config


def test_model_section_round_trip_is_bit_exact(artifacts):
    result, _ = artifacts
    rebuilt = parse_model_section(model_section(result.model))
    a = sample(result.model, 250, seed=13)
    b = sample(rebuilt, 250, seed=13)
    assert np.array_equal(a.values, b.values)
    assert rebuilt.schema == result.model.schema


def test_render_layout(artifacts):
    result, config = artifacts
    text = render_audit(result, config, 0.123)
    lines = text.splitlines()
    assert lines[0] == FORMAT_LINE
    assert "dp_reported=eps_mu+eps_sigma=2" in text
    assert "Lipschitz" in text
    for section in ("[config]", "[codebook]", "[maxent]", "[rates]", "[privacy]", "[model]"):
        assert section in lines
    assert "generate_seconds=0.123" in text


def test_read_audit_round_trip(tmp_path, artifacts):
    result, config = artifacts
    path = tmp_path / "run.audit"
    write_audit(path, result, config, 1.5)
    parsed = read_audit(path)
    assert set(parsed) == {"sections", "model"}
    assert "config" in parsed["sections"]
    a = sample(result.model, 100, seed=1)
    b = sample(parsed["model"], 100, seed=1)
    assert np.array_equal(a.values, b.values)


def test_read_audit_rejects_non_audit_file(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("hello\nworld\n")
    with pytest.raises(DataError, match="format line"):
        read_audit(path)


def test_read_audit_names_missing_section(tmp_path, artifacts):
    result, config = artifacts
    text = render_audit(result, config, 0.1)
    path = tmp_path / "broken.audit"
    for section, after in (("[rates]", text.index("[privacy]")), ("[model]", len(text))):
        path.write_text(text[:text.index(section)] + text[after:])
        with pytest.raises(DataError, match=re.escape(section)):
            read_audit(path)


def test_read_audit_names_the_path_of_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.audit"
    path.write_bytes(b"\xff\xfe" + FORMAT_LINE.encode("utf-16-le"))
    with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
        read_audit(path)
    assert cli.main(["inspect", "--audit", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text: invalid start byte\n"


def _continuous_f0(record):
    """f0 declared continuous in the schema, where its post-processing entry,
    made for a binary column, has no quantile grid."""
    record["schema"] = record["schema"].replace("f0 binary", "f0 continuous")


# edits of the JSON model record of the fixture's classification audit
# (d_eff 5, p 4, two classes), and the error each must raise
CORRUPTIONS = {
    "no class mean": (lambda r: r["means"].pop(),
                      r"classification model has 1 means, expected 2"),
    "short class mean": (lambda r: r["means"][0].__delitem__(slice(2, None)),
                         r"mean 0 has shape \(2,\), expected \(4,\)"),
    "short mu": (lambda r: r["mu"].pop(), r"mu has shape \(4,\), expected \(5,\)"),
    "extra class weight": (lambda r: r["weights"].append(0.5),
                           r"weights has shape \(3,\), expected \(2,\)"),
    "missing sigma row": (lambda r: r["sigma"][0].pop(), r"sigma 0 has shape \(3, 4\), expected \(4, 4\)"),
    "ragged sigma": (lambda r: r["sigma"][1][0].pop(),
                     r"field 'sigma': setting an array element with a sequence"),
    # one cell, as regression has, whose blocks keep the classification sizes
    "regression sizes": (lambda r: r.update(mode="regression",
                                            schema=r["schema"].replace("y binary", "y continuous"),
                                            class_values=[], weights=[1.0], means=r["means"][:1],
                                            sigma=r["sigma"][:1]),
                         r"sigma 0 has shape \(4, 4\), expected \(5, 5\)"),
    "regression on a binary label": (lambda r: r.update(mode="regression"),
                                     r"regression mode needs a continuous label column"),
    # unsupervised mode also models the label, so the layout needs one row more
    "unsupervised blocks": (lambda r: r.update(mode="unsupervised"),
                            r"W has shape \(5, 4\), expected \(6, 4\)"),
    "unknown mode": (lambda r: r.update(mode="auto"), r"unknown mode 'auto'"),
    "not a number": (lambda r: r.update(class_values=["x"]),
                     r"field 'class_values': could not convert string to float: 'x'"),
    "extra schema column": (lambda r: r.update(schema=r["schema"] + "f9 binary feature\n"),
                            r"W has shape \(5, 4\), expected \(6, 4\)"),
    "short post": (lambda r: r["post"].pop(),
                   r"model has 4 post-processing entries, expected one per schema column \(5\)"),
    "empty grid": (_continuous_f0, r"post-processing of f0 has an empty quantile grid"),
    "weights off one": (lambda r: r["weights"].__setitem__(0, 0.9),
                        r"weights \[0.9, .*\] are not a distribution"),
    "no classes": (lambda r: r.update(class_values=[], weights=[], means=[], sigma=[]),
                   r"weights \[\] are not a distribution"),
    "one class": (lambda r: r.update(class_values=[0.0], weights=[1.0], means=r["means"][:1],
                                     sigma=r["sigma"][:1]),
                  r"classification model has 1 class values"),
    "NaN sigma": (lambda r: r["sigma"][1][2].__setitem__(3, float("nan")),
                  r"model sigma 1 holds a non-finite value"),
    "infinite W": (lambda r: r["W"][4].__setitem__(0, float("-inf")), r"model W holds a non-finite value"),
    "NaN rate": (lambda r: r["post"][2].update(rate=float("nan")),
                 r"post-processing of f2 holds a non-finite value"),
    "rate above one": (lambda r: r["post"][2].update(rate=1.7),
                       r"post-processing of f2 has rate 1.7, outside \[0, 1\]"),
    "negative rate": (lambda r: r["post"][2].update(rate=-3.0),
                      r"post-processing of f2 has rate -3.0, outside \[0, 1\]"),
    "class value outside the label": (lambda r: r["class_values"].__setitem__(1, 7.0),
                                      r"class values \[0.0, 7.0\] are not distinct ascending values"),
    "class values out of order": (lambda r: r["class_values"].reverse(),
                                  r"class values \[1.0, 0.0\] are not distinct ascending values"),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_malformed_model_fails_naming_the_path(tmp_path, artifacts, capsys, name):
    edit, error = CORRUPTIONS[name]
    result, config = artifacts
    text = render_audit(result, config, 0.1)
    head, model = text.split("[model]\n", 1)
    record = json.loads(model)
    edit(record)
    path = tmp_path / "broken.audit"
    path.write_text(head + "[model]\n" + json.dumps(record) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*" + error):
        read_audit(path)
    assert cli.main(["inspect", "--audit", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert re.search(error, err)


@pytest.mark.parametrize("mode", ["unsupervised", "classification", "regression"])
def test_model_round_trip_in_each_mode(mode):
    # a categorical column shifts every later column's rows, and only the
    # unsupervised layout models the label
    from ffpdg.data import (
        BINARY, CATEGORICAL, CONTINUOUS, ColumnSpec, Dataset, ROLE_LABEL, ROLE_PROTECTED, Schema,
    )
    from ffpdg.rongauss import fit

    r = np.random.default_rng(0)
    x = r.random((400, 2))
    color = r.integers(0, 3, 400).astype(float)
    c = (r.random(400) < 0.5).astype(float)
    y = x @ np.array([1.0, -2.0]) + r.normal(0, 0.1, 400)
    label = ColumnSpec("y", CONTINUOUS, role=ROLE_LABEL)
    if mode == "classification":
        label, y = ColumnSpec("y", BINARY, role=ROLE_LABEL), (y > np.median(y)).astype(float)
    ds = Dataset(
        Schema((ColumnSpec("x0", CONTINUOUS), ColumnSpec("color", CATEGORICAL, levels=("r", "g", "b")),
                ColumnSpec("x1", CONTINUOUS), ColumnSpec("c", BINARY, role=ROLE_PROTECTED), label)),
        np.column_stack([x[:, 0], color, x[:, 1], c, y]),
    )
    model = fit(ds, GenerationConfig(budget=PrivacyBudget.from_total(10.0), seed=2, mode=mode))
    assert model.d_eff == (8 if mode == "unsupervised" else 7)
    rebuilt = parse_model_section(model_section(model))
    a = sample(model, 200, seed=5)
    b = sample(rebuilt, 200, seed=5)
    assert np.array_equal(a.values, b.values)
