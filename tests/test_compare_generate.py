"""scripts/compare_generate.py: the byte-identity sweep between two source trees."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "compare_generate", ROOT / "scripts" / "compare_generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_against_itself_is_identical(tmp_path):
    script = load_script()
    cases = [c for c in script.bundled_cases()
             if c["name"] in ("adult-seed0-bins1", "compas-seed3-bins3")]
    assert len(cases) == 2
    results = script.compare(ROOT / "src", ROOT / "src", cases, tmp_path)
    assert results == {"adult-seed0-bins1": None, "compas-seed3-bins3": None}
    for tree in ("old", "new"):
        assert (tmp_path / tree / "adult-seed0-bins1.csv").stat().st_size > 0


def test_difference_names_what_differs(tmp_path):
    script = load_script()
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "case.csv").write_text("a\n1\n")
        (d / "case.audit").write_text(f"generate_seconds={len(d.name)}\nseed=1\n")
    assert script.difference("case", old, new, 0, 0) is None  # wall clock ignored
    assert script.difference("case", old, new, 0, 2) == "exit code 0 != 2"
    (new / "case.audit").write_text("seed=2\n")
    assert script.difference("case", old, new, 0, 0) == "audit differs"
    (new / "case.csv").write_text("a\n2\n")
    assert script.difference("case", old, new, 0, 0) == "CSV bytes differ"
