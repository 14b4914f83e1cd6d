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
    names = ("adult-seed0-bins1", "compas-seed3-bins3", "compas-seed0-all", "evaluate-compas-seed4")
    cases = [c for c in script.bundled_cases() + script.evaluate_cases(tmp_path) if c["name"] in names]
    assert len(cases) == 4
    results = script.compare(ROOT / "src", ROOT / "src", cases, tmp_path)
    assert results == dict.fromkeys(names)
    for tree in ("old", "new"):
        assert (tmp_path / tree / "adult-seed0-bins1.csv").stat().st_size > 0
        shown = (tmp_path / tree / "compas-seed0-all.inspect").read_text()
        assert "projection_orthonormality_defect=" in shown and "generate_seconds=" not in shown
        assert "aucroc_best=" in (tmp_path / tree / "evaluate-compas-seed4.stdout").read_text()


def test_evaluate_cases_cover_the_benchmark_inputs_and_both_extracts(tmp_path):
    cases = load_script().evaluate_cases(tmp_path)
    names = [c["name"] for c in cases]
    assert names == ([f"evaluate-10k-seed{seed}" for seed in range(3)]
                     + [f"evaluate-{stem}-seed{seed}" for stem in ("adult", "compas") for seed in range(10)])
    first = cases[0]
    assert first["command"] == "evaluate" and first["seed"] == 0
    assert len(Path(first["input"]).read_text().splitlines()) == 10_001


def test_difference_names_what_differs(tmp_path):
    script = load_script()
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "case.csv").write_text("a\n1\n")
        (d / "case.audit").write_text(
            f"ffpdg audit 1\n\n[config]\nseed=1\ngenerate_seconds={len(d.name)}\n\n"
            "[maxent]\niterations=3\n\n[rates]\ngap_after=0\n")
        (d / "case.inspect").write_text("[config]\nseed=1\n\n[model]\np=4\n")
    assert script.difference("case", old, new, 0, 0) is None  # wall clock ignored
    assert script.difference("case", old, new, 0, 2) == "exit code 0 != 2"
    (new / "case.audit").write_text(
        "ffpdg audit 1\n\n[config]\nseed=1\n\n[maxent]\niterations=4\n\n"
        "[rates]\ngap_after=0\n\n[model]\np=4\n")
    assert script.difference("case", old, new, 0, 0) == "audit differs in [maxent] [model]"
    (new / "case.csv").write_text("a\n2\n")
    assert (script.difference("case", old, new, 0, 0)
            == "CSV bytes differ; audit differs in [maxent] [model]")
    (new / "case.inspect").write_text("[config]\nseed=1\n\n[model]\np=5\n")
    assert (script.difference("case", old, new, 0, 0)
            == "CSV bytes differ; audit differs in [maxent] [model]; inspect output differs")
    (new / "case.audit").unlink()
    (new / "case.inspect").unlink()
    assert (script.difference("case", old, new, 0, 1)
            == "exit code 0 != 1; .audit written by one tree only; .inspect written by one tree only; "
               "CSV bytes differ")


def test_difference_names_a_differing_evaluate_output(tmp_path):
    script = load_script()
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "case.stdout").write_text("aucroc_best=0.812345\nlrd=0.490000\n")
    assert script.difference("case", old, new, 0, 0) is None
    (new / "case.stdout").write_text("aucroc_best=0.812346\nlrd=0.490000\n")
    assert script.difference("case", old, new, 0, 0) == "evaluate output differs"
    assert script.difference("case", old, new, 0, 1) == "exit code 0 != 1; evaluate output differs"
    (new / "case.stdout").unlink()
    assert script.difference("case", old, new, 0, 0) == ".stdout written by one tree only"
