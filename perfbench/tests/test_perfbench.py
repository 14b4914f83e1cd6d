"""Tests of the benchmark's own code: span arithmetic, output checks, simulators."""

import sys

import numpy as np
import pytest

import checks
import run
import simulate
import spans


def _span(id, name, parent, start, end):
    return {"id": id, "name": name, "parent": parent, "start": start, "end": end,
            "cpu_start": start, "cpu_end": end}


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        _span(0, "op", None, 0.0, 10.0),
        _span(1, "cli.main", 0, 0.5, 9.5),
        _span(2, "data.load_csv", 1, 1.0, 4.0),
        _span(3, "binarize.decode_codes", 1, 5.0, 9.0),
        _span(4, "maxent.solve_maxent", 3, 5.0, 6.0),
        _span(5, "maxent.sample_codes", 3, 5.5, 7.0),  # overlaps its sibling
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 1.0, 1: 2.0, 2: 3.0, 3: 2.0, 4: 1.0, 5: 1.5})

    summary = spans.op_summary(tree, 0, {"dp.calls": 3})
    assert summary["data.load_csv_s"] == pytest.approx(3.0)
    assert summary["binarize.decode_codes_s"] == pytest.approx(2.0)
    assert summary["maxent.sample_codes_s"] == pytest.approx(1.5)
    assert summary["cli.main_s"] == pytest.approx(2.0)
    assert summary["models.predict_proba_s"] == 0.0
    assert summary["dp.calls"] == 3 and summary["binarize.entries"] == 0
    # the root's and cli.main's self time (1 + 2 of 10 s) is uncovered
    assert summary["trace.coverage"] == pytest.approx(0.7)
    # CPU time equal to wall time everywhere: nothing waited
    assert summary["data.wait_s"] == pytest.approx(0.0)


def test_merge_hangs_child_process_spans_under_the_parent_span():
    tree = [_span(0, "op", None, 0.0, 10.0)]
    child = [_span(0, "cli.import", None, 1.0, 2.0), _span(1, "cli.main", None, 2.0, 9.0),
             _span(2, "data.load_csv", 1, 3.0, 4.0)]
    spans.merge(tree, child, 0)
    assert [(s["id"], s["parent"]) for s in tree] == [(0, None), (1, 0), (2, 0), (3, 2)]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_tracer_reports_a_missing_target_and_restores_originals():
    import ffpdg.binarize

    original = ffpdg.binarize.decode_codes
    tracer = spans.Tracer()
    tracer.install([("ffpdg.binarize", "decode_codes", "binarize.decode_codes"),
                    ("ffpdg.binarize", "no_such_function", "binarize.gone")])
    assert ffpdg.binarize.decode_codes is not original
    tracer.uninstall()
    assert ffpdg.binarize.decode_codes is original
    assert tracer.missing == ["ffpdg.binarize.no_such_function"]


@pytest.fixture
def generate_run(tmp_path):
    """A small generate workload after its warm-up operation."""
    workload = run.GenerateWorkload("tiny", simulate.make_adult, simulate.ADULT_SCHEMA, 400)
    paths = workload.write_inputs(tmp_path, seed=0)
    warm = workload.run(paths, 0)
    return workload, paths, workload.reference(paths, warm), warm


def test_repeated_same_seed_operations_pass(generate_run):
    workload, paths, reference, warm = generate_run
    tally = checks.Tally()
    tally.record(workload.check(reference, paths, warm))
    tally.record(workload.check(reference, paths, workload.run(paths, 0)))
    assert (tally.attempted, tally.failed) == (2, 0)


def test_tampered_output_csv_is_counted_as_failed(generate_run):
    workload, paths, reference, _ = generate_run
    op = workload.run(paths, 0)
    lines = paths["output"].read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1] + ["2"])  # label must be 0 or 1
    paths["output"].write_text("\n".join(lines) + "\n")
    tally = checks.Tally()
    tally.record(workload.check(reference, paths, op))
    # a reference built from the tampered file fails its own reload check
    fresh = checks.GenerateReference(paths["output"], paths["audit"], paths["schema"], 400)
    assert any("does not reload" in p for p in fresh.problems)
    tally.record(checks.check_generate(fresh, paths["output"], paths["audit"]))
    assert (tally.attempted, tally.failed) == (2, 2)


def test_non_deterministic_repeat_is_counted_as_failed(generate_run):
    workload, paths, reference, _ = generate_run
    op = workload.run(paths, 1)  # as if the same-seed repeat had drawn differently
    tally = checks.Tally()
    tally.record(workload.check(reference, paths, op))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "differs from the first operation" in tally.reasons[0]


def test_evaluate_check_needs_every_key_in_range_and_repeatable():
    good = "aucroc_best=0.8\ndeo=0.1\ndsp=0.05\ndi_ratio=1.2\nlrd=0.4\n"
    assert checks.check_evaluate(good, good) == []
    assert checks.check_evaluate(good.replace("lrd=0.4\n", ""), None) == ["evaluate output lacks lrd="]
    assert checks.check_evaluate(good.replace("deo=0.1", "deo=1.5"), None)
    assert checks.check_evaluate(good.replace("dsp=0.05", "dsp=0.06"), good)


def test_inspect_check_bounds_the_orthonormality_defect():
    assert checks.check_inspect("projection_orthonormality_defect=4.441e-16\n") == []
    assert checks.check_inspect("projection_orthonormality_defect=1e-6\n")
    assert checks.check_inspect("mode=classification\n")


def test_wide_generator_is_deterministic_in_its_seed():
    a, b, c = simulate.make_wide(500, 7), simulate.make_wide(500, 7), simulate.make_wide(500, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert simulate.csv_rows(simulate.WIDE_SCHEMA, a) == simulate.csv_rows(simulate.WIDE_SCHEMA, b)


def test_wide_schema_has_28_code_bits(tmp_path):
    from ffpdg.binarize import build_codebook
    from ffpdg.data import load_csv, load_schema

    schema_path, csv_path = simulate.write_inputs(
        tmp_path, "wide", simulate.WIDE_SCHEMA, simulate.make_wide(300, 0))
    binary, _ = build_codebook(load_csv(csv_path, load_schema(schema_path)), 1)
    assert binary.shape == (300, 28)


def test_adult_generator_matches_the_test_fixture():
    sys.path.insert(0, str(run.ROOT / "tests"))
    try:
        import benchdata
    finally:
        sys.path.remove(str(run.ROOT / "tests"))
    assert np.array_equal(simulate.make_adult(2000, 5), benchdata.make_adult(2000, 5).values)
