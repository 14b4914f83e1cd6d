"""The benchmark's tracer still finds every target and probe in the program.

perfbench/spans.py wraps module attributes by name and reads fields of
their results; a renamed function or field shows up here as a missing
target or a probe that reads nothing.
"""

import importlib.util
from pathlib import Path

from ffpdg import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
PROBES = ("binarize.entries", "binarize.bits", "binarize.distinct_queries", "maxent.iterations",
          "maxent.support", "maxent.solution_gap", "rongauss.d_eff", "rongauss.p")


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_generate_finds_every_target_and_probe(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = cli.main(["generate", "--schema", str(DATA / "adult.schema"),
                       "--input", str(DATA / "adult_sample.csv"), "--output", str(tmp_path / "o.csv"),
                       "--audit", str(tmp_path / "run.audit")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.missing == []
    values = tracer.run_probes()
    for name in PROBES:
        assert values[name] > 0, name
