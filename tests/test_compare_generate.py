"""scripts/compare_generate.py: the byte-identity sweep between two source trees."""

import importlib.util
from pathlib import Path

import numpy as np

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
        assert "model.projection.p=3\n" in (tmp_path / tree / "compas-seed0-all.model").read_text()
        assert "aucroc_best=" in (tmp_path / tree / "evaluate-compas-seed4.stdout").read_text()


def test_evaluate_cases_cover_the_benchmark_inputs_and_both_extracts(tmp_path):
    cases = load_script().evaluate_cases(tmp_path)
    names = [c["name"] for c in cases]
    assert names == ([f"evaluate-10k-seed{seed}" for seed in range(3)]
                     + [f"evaluate-{stem}-seed{seed}" for stem in ("adult", "compas") for seed in range(10)])
    first = cases[0]
    assert first["command"] == "evaluate" and first["seed"] == 0
    assert len(Path(first["input"]).read_text().splitlines()) == 10_001


def test_regression_cases_run_a_continuous_label_at_three_seeds(tmp_path):
    script = load_script()
    cases = script.regression_cases(tmp_path)
    assert [c["name"] for c in cases] == [f"regression-seed{seed}" for seed in range(3)]
    assert [c["seed"] for c in cases] == [0, 1, 2]
    assert {(c["command"], c["input"], tuple(c["args"])) for c in cases} == {
        ("generate", cases[0]["input"], ())}
    assert Path(cases[0]["schema"]).read_text().splitlines()[-1] == "y continuous label"
    header, *rows = Path(cases[0]["input"]).read_text().splitlines()
    assert header == "x0,x1,x2,x3,x4,c,y" and len(rows) == 2_000
    y = np.array([float(row.split(",")[-1]) for row in rows])
    assert y.min() >= 0.0 and np.median(y) < y.mean()  # skewed right


def test_difference_names_what_differs(tmp_path):
    script = load_script()
    old, new = tmp_path / "old", tmp_path / "new"
    for k, d in enumerate((old, new), start=1):
        d.mkdir()
        (d / "case.csv").write_text("a\n1\n")
        (d / "case.audit").write_text(
            f"ffpdg audit {k}\n\n[config]\nseed=1\ngenerate_seconds={k}\n\n"
            f"[maxent]\niterations=3\n\n[rates]\ngap_after=0\n\n[model]\n{{\"p\": {k}}}\n")
        (d / "case.model").write_text("model.mode='unsupervised'\nmodel.d_eff=5\n")
        (d / "case.inspect").write_text("[config]\nseed=1\n\n[model]\np=4\n")
    # the wall clock, the format line and the model's text are not compared
    assert script.difference("case", old, new, 0, 0) is None
    assert script.difference("case", old, new, 0, 2) == "exit code 0 != 2"
    (new / "case.audit").write_text(
        "ffpdg audit 1\n\n[config]\nseed=1\n\n[maxent]\niterations=4\n\n"
        "[rates]\ngap_after=0\n\n[model]\nmode=unsupervised\n[model.mu]\n0.5\n")
    assert script.difference("case", old, new, 0, 0) == "audit differs in [maxent]"
    (new / "case.csv").write_text("a\n2\n")
    assert (script.difference("case", old, new, 0, 0)
            == "CSV bytes differ in a; audit differs in [maxent]")
    (new / "case.model").write_text("model.mode='unsupervised'\nmodel.d_eff=6\n")
    assert (script.difference("case", old, new, 0, 0)
            == "CSV bytes differ in a; audit differs in [maxent]; model differs")
    (new / "case.inspect").write_text("[config]\nseed=1\n\n[model]\np=5\n")
    assert (script.difference("case", old, new, 0, 0)
            == "CSV bytes differ in a; audit differs in [maxent]; model differs; inspect output differs")
    for suffix in (".audit", ".model", ".inspect"):
        (new / f"case{suffix}").unlink()
    assert (script.difference("case", old, new, 0, 1)
            == "exit code 0 != 1; .audit written by one tree only; .model written by one tree only; "
               ".inspect written by one tree only; CSV bytes differ in a")


def test_a_csv_difference_names_the_differing_columns(tmp_path):
    script = load_script()
    old, new = tmp_path / "old", tmp_path / "new"
    for d, y in ((old, "1.5"), (new, "2.5")):
        d.mkdir()
        (d / "case.csv").write_text(f"x,c,y\n0.25,1,{y}\n0.75,0,3\n")
    assert script.difference("case", old, new, 0, 0) == "CSV bytes differ in y"
    (new / "case.csv").write_bytes(b"x,c,y\r\n0.25,1,1.5\r\n0.75,0,3\r\n")  # line ends only
    assert script.difference("case", old, new, 0, 0) == "CSV bytes differ"


def test_model_lines_print_every_field_by_value():
    from types import SimpleNamespace as Fields

    model = Fields(
        mode="regression", d_eff=2, projection=Fields(p=1, W=np.array([[1.5], [-0.0]])),
        mu_dp=np.array([0.25, 0.1]), weights_dp=np.ones(1), means_dp=(np.zeros(1),), sigma_dp=(np.eye(1),),
        class_values=(), postprocess=(Fields(rate=np.float64(0.5), quantile_grid=()),
                                      Fields(rate=0.0, quantile_grid=(np.float64(0.1), 2.0))))
    assert load_script().model_lines(model) == [
        "model.mode='regression'", "model.d_eff=2", "model.projection.p=1",
        "model.projection.W[0][0]=1.5", "model.projection.W[1][0]=-0.0",
        "model.mu_dp[0]=0.25", "model.mu_dp[1]=0.1", "model.weights_dp[0]=1.0", "model.means_dp[0][0]=0.0",
        "model.sigma_dp[0][0][0]=1.0", "model.postprocess[0].rate=0.5", "model.postprocess[1].rate=0.0",
        "model.postprocess[1].quantile_grid[0]=0.1", "model.postprocess[1].quantile_grid[1]=2.0"]


def test_a_model_of_another_layout_prints_absent_fields_and_differs_in_layout(tmp_path):
    from types import SimpleNamespace as Fields

    script = load_script()
    model = Fields(mode="unsupervised", d_eff=2, projection=Fields(p=1, W=np.array([[1.0], [0.0]])),
                   mu_dp=np.zeros(2), sigma_dp=(np.eye(1),), class_values=(), postprocess=())
    lines = script.model_lines(model)
    assert "model.weights_dp absent" in lines and "model.means_dp absent" in lines
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
    (old / "case.model").write_text("\n".join(lines) + "\n")
    (new / "case.model").write_text("\n".join(lines).replace(" absent", "[0]=1.0") + "\n")
    assert script.difference("case", old, new, 0, 0) == "model layout differs"


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
