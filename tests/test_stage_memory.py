"""scripts/stage_memory.py: traced and resident memory of each stage of one generate run."""

import importlib.util
from pathlib import Path

from ffpdg import rongauss

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "stage_memory", ROOT / "scripts" / "stage_memory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_stage_prints_before_peak_and_after(capsys):
    script = load_script()
    sample = rongauss.sample
    rc = script.main(["--schema", str(ROOT / "data" / "adult.schema"),
                      "--input", str(ROOT / "data" / "adult_sample.csv")])
    assert rc == 0
    assert rongauss.sample is sample  # the wrappers are gone again
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("rows=1000 ")
    assert lines[1].split() == ["stage", "before_mb", "peak_mb", "after_mb", "hwm_mb"]
    rows = []
    for line in lines[2:]:
        name, *figures = line.split()
        depth = (len(line) - len(line.lstrip(" "))) // 2
        rows.append((depth, name, *map(float, figures)))
    assert {name for _, name, *_ in rows} == (
        {"load_csv", "generate_with_artifacts", "save_csv"} | {attr for _, attr in script.STAGES})
    assert "fit" not in {name for _, name, *_ in rows}  # a wrapper would keep its table alive
    for i, (depth, name, before, peak, after, hwm) in enumerate(rows):
        assert peak >= max(before, after), name
        assert hwm > 0, name
        # a caller's peak and high water cover those of the stages nested in it
        for inner in rows[i + 1:]:
            if inner[0] <= depth:
                break
            assert peak >= inner[3] and hwm >= inner[5], (name, inner[1])
    # the high water only rises from one top-level stage to the next
    top = [hwm for depth, *_, hwm in rows if depth == 0]
    assert top == sorted(top)
