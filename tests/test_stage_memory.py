"""scripts/stage_memory.py: traced memory of each stage of one generate run."""

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
    fit = rongauss.fit
    rc = script.main(["--schema", str(ROOT / "data" / "adult.schema"),
                      "--input", str(ROOT / "data" / "adult_sample.csv")])
    assert rc == 0
    assert rongauss.fit is fit  # the wrappers are gone again
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("rows=1000 ")
    rows = []
    for line in lines[2:]:
        name, before, peak, after = line.split()
        depth = (len(line) - len(line.lstrip(" "))) // 2
        rows.append((depth, name, float(before), float(peak), float(after)))
    assert {name for _, name, *_ in rows} == (
        {"load_csv", "generate_with_artifacts", "save_csv"} | {attr for _, attr in script.STAGES})
    for i, (depth, name, before, peak, after) in enumerate(rows):
        assert peak >= max(before, after), name
        # a caller's peak covers the peaks of the stages nested in it
        for inner in rows[i + 1:]:
            if inner[0] <= depth:
                break
            assert peak >= inner[3], (name, inner[1])
