"""Audit files: render, parse, and model round-trip."""

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
    start = text.index("[rates]")
    end = text.index("[privacy]")
    path = tmp_path / "broken.audit"
    path.write_text(text[:start] + text[end:])
    with pytest.raises(DataError, match=r"\[rates\]"):
        read_audit(path)


# (pattern, replacement) edits of the fixture's classification audit
# (d_eff 5, p 4, two classes), and the error each must raise
CORRUPTIONS = {
    "no label line": (r"^label=.*\n", "", r"no label= line"),
    "no class mean": (r"^mean1=.*\n", "", r"no mean1= line"),
    "short class mean": (r"^(mean0=\S+ \S+) .*$", r"\1", r"mean0 has shape \(2,\), expected \(4,\)"),
    "short mu": (r"(\[model\.mu\]\n.*) \S+$", r"\1", r"mu has shape \(4,\), expected \(5,\)"),
    "extra class weight": (r"^(weights=.*)$", r"\1 0.5", r"class weights has shape \(3,\), expected \(2,\)"),
    "missing sigma row": (r"(\[model\.sigma 0 4\]\n(?:.*\n){3}).*\n", r"\1",
                          r"sigma 0 has shape \(3, 4\), expected \(4, 4\)"),
    "ragged sigma": (r"(\[model\.sigma 1 4\]\n.*) \S+$", r"\1", r"unparseable line"),
    "regression sizes": (r"^mode=.*$", "mode=regression", r"sigma 0 has shape \(4, 4\), expected \(5, 5\)"),
    "unsupervised blocks": (r"^mode=.*$", "mode=unsupervised", r"has 2 covariance blocks, expected 1"),
    "unknown mode": (r"^mode=.*$", "mode=auto", r"unknown mode 'auto'"),
    "not a number": (r"^d_eff=.*$", "d_eff=five", r"unparseable line"),
    "short encoding": (r"^column=f0 .*$", "column=f0", r"unparseable line"),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_malformed_model_fails_naming_the_path(tmp_path, artifacts, capsys, name):
    pattern, replacement, error = CORRUPTIONS[name]
    result, config = artifacts
    text = render_audit(result, config, 0.1)
    head, model = text.split("[model]\n", 1)
    model, edits = re.subn(pattern, replacement, model, count=1, flags=re.MULTILINE)
    assert edits == 1
    path = tmp_path / "broken.audit"
    path.write_text(head + "[model]\n" + model)
    with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*" + error):
        read_audit(path)
    assert cli.main(["inspect", "--audit", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert re.search(error, err)


def test_regression_model_round_trip():
    r = np.random.default_rng(0)
    from ffpdg.data import (
        BINARY, CONTINUOUS, ColumnSpec, Dataset, ROLE_LABEL, ROLE_PROTECTED, Schema,
    )
    from ffpdg.rongauss import fit

    x = r.random((400, 2))
    c = (r.random(400) < 0.5).astype(float)
    y = x @ np.array([1.0, -2.0]) + r.normal(0, 0.1, 400)
    ds = Dataset(
        Schema((ColumnSpec("x0", CONTINUOUS), ColumnSpec("x1", CONTINUOUS),
                ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
                ColumnSpec("y", CONTINUOUS, role=ROLE_LABEL))),
        np.column_stack([x, c, y]),
    )
    model = fit(ds, GenerationConfig(budget=PrivacyBudget.from_total(10.0),
                                     seed=2, mode="regression"))
    rebuilt = parse_model_section(model_section(model))
    a = sample(model, 200, seed=5)
    b = sample(rebuilt, 200, seed=5)
    assert np.array_equal(a.values, b.values)
