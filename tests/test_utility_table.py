"""scripts/utility_table.py: the classification and regression utility grid and its committed records."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CELLS = [(stem, epsilon) for stem in ("adult", "compas") for epsilon in (0.25, 1.0, 8.0)]
REGRESSION_CELLS = [(label, epsilon, n) for label in ("normal", "skewed") for epsilon in (1.0, 8.0)
                    for n in (500, 2000, 8000)]


def load_script():
    spec = importlib.util.spec_from_file_location("utility_table", ROOT / "scripts" / "utility_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_seed_slice_writes_one_cell_per_extract_and_epsilon(tmp_path, capsys):
    out = tmp_path / "utility.json"
    assert load_script().main(["--seeds", "2", "--output", str(out), f"here={ROOT / 'src'}"]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["grid"]["seeds"] == 2 and list(record["arms"]) == ["here"]
    cells = record["arms"]["here"]["cells"]
    assert [(c["extract"], c["epsilon"]) for c in cells] == CELLS
    for cell in cells:
        assert (cell["runs"], cell["zero_weight_runs"], cell["rejected_runs"]) == (2, 0, 0)
        for name in ("aucroc_best", "dsp", "lrd"):
            q = cell[name]
            assert 0.0 <= q["q1"] <= q["median"] <= q["q3"] <= 1.0, (cell["extract"], name)
    regression = record["arms"]["here"]["regression_cells"]
    assert [(c["label"], c["epsilon"], c["n"]) for c in regression] == REGRESSION_CELLS
    for cell in regression:
        q = cell["coef_error"]
        assert cell["runs"] == 2 and 0.0 <= q["q1"] <= q["median"] <= q["q3"] < float("inf"), cell
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 + len(CELLS) + len(REGRESSION_CELLS)
    assert printed[1].startswith("adult     0.25  here ")
    assert printed[2 + len(CELLS)].startswith("normal       1    500  here ")


def test_committed_record_passes_the_class_cell_gate():
    # no median AUC falls by more than half the parent's interquartile range,
    # and no class vanishes and no evaluation is rejected in the change's arm
    record = json.loads((ROOT / "UTILITY_class_cells.json").read_text(encoding="utf-8"))
    parent, change = record["arms"]["parent"]["cells"], record["arms"]["change"]["cells"]
    assert [(c["extract"], c["epsilon"]) for c in change] == CELLS and record["grid"]["seeds"] == 100
    for before, after in zip(parent, change):
        auc, base = after["aucroc_best"], before["aucroc_best"]
        assert auc["median"] - base["median"] >= -(base["q3"] - base["q1"]) / 2, after
        assert after["zero_weight_runs"] == after["rejected_runs"] == 0, after


def test_committed_record_passes_the_regression_cell_gate():
    # no median coefficient error rises by more than half the parent's interquartile range
    record = json.loads((ROOT / "UTILITY_regression_cells.json").read_text(encoding="utf-8"))
    parent = record["arms"]["parent"]["regression_cells"]
    change = record["arms"]["change"]["regression_cells"]
    assert [(c["label"], c["epsilon"], c["n"]) for c in change] == REGRESSION_CELLS
    assert record["grid"]["seeds"] == 100
    for before, after in zip(parent, change):
        error, base = after["coef_error"], before["coef_error"]
        assert error["median"] - base["median"] <= (base["q3"] - base["q1"]) / 2, after
