"""End-to-end CLI runs, through subprocess and in-process through `cli.main`."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import binary_group_dataset, float_limit_column, mixed_dataset, one_feature_dataset
from ffpdg import cli
from ffpdg.audit import FORMAT_LINE, read_audit
from ffpdg.data import Dataset, load_csv, load_schema, save_csv, save_schema

DATA = Path(__file__).resolve().parents[1] / "data"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ffpdg.cli", *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train = binary_group_dataset(2500, 0.25, 0.6, seed=30, n_features=3)
    holdout = binary_group_dataset(600, 0.25, 0.6, seed=31, n_features=3)
    save_schema(train.schema, root / "data.schema")
    save_csv(train, root / "train.csv")
    save_csv(holdout, root / "holdout.csv")
    return root


def test_generate_writes_csv_and_audit(workdir):
    out = workdir / "syn.csv"
    audit = workdir / "run.audit"
    proc = run_cli("generate", "--schema", workdir / "data.schema",
                   "--input", workdir / "train.csv", "--output", out,
                   "--audit", audit, "--epsilon", "2", "--seed", "3",
                   "--n-out", "500")
    assert proc.returncode == 0, proc.stderr
    assert "generate_seconds=" in proc.stdout
    assert "rows=500" in proc.stdout
    syn = load_csv(out, load_schema_for(workdir))
    assert syn.n == 500
    assert audit.read_text().splitlines()[0] == FORMAT_LINE


def load_schema_for(workdir):
    from ffpdg.data import load_schema
    return load_schema(workdir / "data.schema")


def test_generate_deterministic_bytes(workdir):
    a, b = workdir / "a.csv", workdir / "b.csv"
    for out in (a, b):
        proc = run_cli("generate", "--schema", workdir / "data.schema",
                       "--input", workdir / "train.csv", "--output", out,
                       "--seed", "7", "--n-out", "300")
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_prints_report_and_kv(workdir):
    syn = workdir / "for_eval.csv"
    assert run_cli("generate", "--schema", workdir / "data.schema",
                   "--input", workdir / "train.csv", "--output", syn,
                   "--seed", "5", "--n-out", "600").returncode == 0
    proc = run_cli("evaluate", "--schema", workdir / "data.schema",
                   "--input", workdir / "train.csv", "--test", workdir / "holdout.csv",
                   "--synthetic", syn, "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    for key in ("aucroc_best=", "deo=", "dsp=", "di_ratio=", "lrd="):
        assert key in proc.stdout
    assert "AUCROC best" in proc.stdout


def test_evaluate_report_file_holds_exactly_the_printed_text(workdir):
    syn = workdir / "for_report.csv"
    assert run_cli("generate", "--schema", workdir / "data.schema",
                   "--input", workdir / "train.csv", "--output", syn,
                   "--seed", "6", "--n-out", "600").returncode == 0
    report = workdir / "eval.report"
    proc = run_cli("evaluate", "--schema", workdir / "data.schema",
                   "--input", workdir / "train.csv", "--test", workdir / "holdout.csv",
                   "--synthetic", syn, "--seed", "1", "--report", report)
    assert proc.returncode == 0, proc.stderr
    assert "aucroc_best=" in proc.stdout
    assert report.read_text(encoding="utf-8") == proc.stdout


def test_bench_reports_growth_exponent(workdir):
    proc = run_cli("bench", "--schema", workdir / "data.schema",
                   "--input", workdir / "train.csv", "--max-n", "2000",
                   "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    assert "n=1000 " in proc.stdout and "n=2000 " in proc.stdout
    assert "growth_exponent_ok=" in proc.stdout


def test_inspect_prints_sections(workdir):
    audit = workdir / "run.audit"
    if not audit.exists():  # ordering safety if run alone
        run_cli("generate", "--schema", workdir / "data.schema",
                "--input", workdir / "train.csv", "--output", workdir / "tmp.csv",
                "--audit", audit, "--seed", "3", "--n-out", "200")
    proc = run_cli("inspect", "--audit", audit)
    assert proc.returncode == 0, proc.stderr
    for line in ("[config]", "[privacy]", "dp_reported=eps_mu+eps_sigma="):
        assert line in proc.stdout
    assert "projection_orthonormality_defect=" in proc.stdout


def test_usage_errors_exit_2(workdir):
    assert run_cli().returncode == 2
    proc = run_cli("generate", "--schema", workdir / "data.schema")
    assert proc.returncode == 2
    assert "--input" in proc.stderr or "required" in proc.stderr


def test_missing_input_exits_1_and_names_path(workdir):
    proc = run_cli("generate", "--schema", workdir / "data.schema",
                   "--input", workdir / "nope.csv", "--output", workdir / "x.csv")
    assert proc.returncode == 1
    assert "nope.csv" in proc.stderr


def test_runtime_imports_without_scipy():
    code = "import sys, ffpdg, ffpdg.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.fixture(scope="module")
def mixed_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_mixed")
    data = mixed_dataset(600, seed=32)
    save_schema(data.schema, root / "mixed.schema")
    save_csv(data, root / "mixed.csv")
    return root


def test_generate_maps_every_flag_into_the_run(mixed_dir, capsys):
    out, audit = mixed_dir / "flags.csv", mixed_dir / "flags.audit"
    rc = cli.main(["generate", "--schema", str(mixed_dir / "mixed.schema"),
                   "--input", str(mixed_dir / "mixed.csv"), "--output", str(out),
                   "--audit", str(audit), "--epsilon", "3", "--epsilon-split", "1:2",
                   "--p", "3", "--n-out", "250", "--bins", "2", "--mode", "unsupervised",
                   "--rate", "0.9", "--seed", "4"])
    assert rc == 0, capsys.readouterr().err
    parsed = read_audit(audit)
    config = dict(line.split("=", 1) for line in parsed["sections"]["config"] if "=" in line)
    assert {k: config[k] for k in ("epsilon", "eps_mu", "eps_sigma", "p", "n_out", "bins",
                                   "mode", "seed", "rate")} == {
        "epsilon": "3", "eps_mu": "1", "eps_sigma": "2", "p": "3", "n_out": "250",
        "bins": "2", "mode": "unsupervised", "seed": "4", "rate": "0.90000000000000002"}
    assert "rows=250" in capsys.readouterr().out


# "1:1e-17" and "1e-300:1e300" are well formed but give the mean a share
# that rounds to 1 and to 0
@pytest.mark.parametrize("split", ["0.3", "a:b", "0:1", "1:1e-17", "1e-300:1e300"])
def test_malformed_epsilon_split_exits_1_and_names_the_flag(mixed_dir, capsys, split):
    rc = cli.main(["generate", "--schema", str(mixed_dir / "mixed.schema"),
                   "--input", str(mixed_dir / "mixed.csv"), "--output", str(mixed_dir / "x.csv"),
                   "--epsilon-split", split])
    assert rc == 1
    assert "--epsilon-split" in capsys.readouterr().err
    assert not (mixed_dir / "x.csv").exists()


@pytest.mark.parametrize("flags, error", [
    (["--epsilon", "nan"], "epsilon values must be finite"),
    (["--epsilon", "inf"], "epsilon values must be finite"),
    (["--epsilon-split", "nan:1"], "--epsilon-split"),
], ids=["epsilon-nan", "epsilon-inf", "split-nan"])
def test_non_finite_budget_exits_1_before_any_stage(mixed_dir, capsys, flags, error):
    rc = cli.main(["generate", "--schema", str(mixed_dir / "mixed.schema"),
                   "--input", str(mixed_dir / "mixed.csv"), "--output", str(mixed_dir / "x.csv"),
                   *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert error in err
    for stage in ("binarize", "fair redistribution", "code inversion", "projection fit",
                  "gaussian sampling"):
        assert stage not in err
    assert not (mixed_dir / "x.csv").exists()


def test_epsilon_split_of_huge_parts_splits_like_their_ratio(mixed_dir, capsys):
    outputs = []
    for split in ("1e308:1e308", "1:1"):
        out = mixed_dir / f"split-{split}.csv"
        rc = cli.main(["generate", "--schema", str(mixed_dir / "mixed.schema"),
                       "--input", str(mixed_dir / "mixed.csv"), "--output", str(out),
                       "--epsilon-split", split, "--seed", "5"])
        assert rc == 0, capsys.readouterr().err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("flags", [
    ["--epsilon", "1e-310"],
    ["--epsilon", "1e-20", "--epsilon-split", "1e-295:1"],
], ids=["epsilon", "split"])
def test_infinite_noise_scale_exits_1_and_names_the_scale(mixed_dir, capsys, flags):
    rc = cli.main(["generate", "--schema", str(mixed_dir / "mixed.schema"),
                   "--input", str(mixed_dir / "mixed.csv"), "--output", str(mixed_dir / "x.csv"),
                   *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert "projection fit: Laplace scale must be positive and finite, got inf" in err
    assert not (mixed_dir / "x.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("epsilon, epsilon_mu", [("1e-300", "3e-301"), ("1e-200", "3e-201"),
                                                 ("1e-160", "3e-161"), ("1e-156", "3e-157")])
def test_tiny_epsilon_exits_1_and_names_epsilon_mu(tmp_path, capsys, epsilon, epsilon_mu):
    # finite noise scales whose mean noise overflows the centred samples' norms:
    # the error names the budget, with no numpy warning on the way
    out = tmp_path / "x.csv"
    rc = cli.main(["generate", "--schema", str(DATA / "adult.schema"),
                   "--input", str(DATA / "adult_sample.csv"), "--output", str(out),
                   "--epsilon", epsilon])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: projection fit: epsilon_mu={epsilon_mu} is too small: the mean's noise "
        "is so large that the centred samples' norms overflow\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [
    ["--epsilon", "1e-155"],
    ["--epsilon", "1e-145", "--epsilon-split", "1:1e-10"],
    ["--epsilon", "1e-148", "--epsilon-split", "1:1e-10"],
], ids=["epsilon", "split-class1", "split-smaller"])
def test_tiny_epsilon_sigma_releases_rows_that_reload(tmp_path, capsys, flags):
    # each class's noised moment and sum are divided by its noised size, whose
    # noise is as large, so a huge noise scale releases finite cells, with no
    # numpy warning on the way
    out = tmp_path / "x.csv"
    rc = cli.main(["generate", "--schema", str(DATA / "adult.schema"),
                   "--input", str(DATA / "adult_sample.csv"), "--output", str(out), "--seed", "0",
                   *flags])
    assert rc == 0 and capsys.readouterr().err == ""
    assert load_csv(out, load_schema(DATA / "adult.schema")).n == 1000


@pytest.mark.parametrize("table, rate", [("no-positives", "1"), ("no-positives", "0.5"),
                                         ("label-is-protected", "1")])
def test_parity_a_group_cannot_reach_exits_1_as_infeasible(tmp_path, capsys, table, rate):
    # protected group 0 holds no positive label, so no re-weighting of its
    # observed codes raises its positive rate to the target
    ds = binary_group_dataset(200, 0.0, 0.6, seed=3, n_features=2)
    if table == "label-is-protected":
        values = ds.values.copy()
        values[:, -1] = values[:, -2]
        ds = Dataset(ds.schema, values)
    save_schema(ds.schema, tmp_path / "t.schema")
    save_csv(ds, tmp_path / "t.csv")
    out = tmp_path / "o.csv"
    rc = cli.main(["generate", "--schema", str(tmp_path / "t.schema"), "--input", str(tmp_path / "t.csv"),
                   "--output", str(out), "--rate", rate])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: fair redistribution: protected group 0 has no rows whose label bit is 1, "
        "but parity needs its positive rate at ")
    assert not out.exists()


def test_bench_reads_the_shared_generation_flags(mixed_dir, capsys):
    rc = cli.main(["bench", "--schema", str(mixed_dir / "mixed.schema"),
                   "--input", str(mixed_dir / "mixed.csv"), "--bins", "0"])
    assert rc == 1
    assert "binarize: " in capsys.readouterr().err


@pytest.mark.parametrize("max_n", ["0", "-5"])
def test_bench_max_n_below_1_exits_1_and_names_the_flag(mixed_dir, capsys, max_n):
    rc = cli.main(["bench", "--schema", str(mixed_dir / "mixed.schema"),
                   "--input", str(mixed_dir / "mixed.csv"), "--max-n", max_n])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --max-n must be at least 1, got {max_n}\n"
    assert captured.out == ""


def loaded_modules(*argv) -> set[str]:
    """The `ffpdg.*` modules a fresh interpreter holds after `cli.main(argv)`."""
    code = ("import json, sys\n"
            "from ffpdg import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(json.dumps([rc, [m for m in sys.modules if m.startswith('ffpdg.')]]))")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stderr
    return set(modules)


def test_import_ffpdg_loads_no_submodule():
    code = "import sys, ffpdg; print([m for m in sys.modules if m.startswith('ffpdg.')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


GENERATION_MODULES = {f"ffpdg.{m}" for m in ("rongauss", "binarize", "maxent", "dp", "audit")}
EVALUATION_MODULES = {"ffpdg.models", "ffpdg.metrics"}


def test_evaluate_loads_no_generation_module():
    modules = loaded_modules("evaluate", "--schema", DATA / "adult.schema",
                             "--input", DATA / "adult_sample.csv",
                             "--test", DATA / "adult_holdout.csv",
                             "--synthetic", DATA / "adult_holdout.csv")
    assert EVALUATION_MODULES <= modules
    assert not modules & GENERATION_MODULES


def test_generate_and_inspect_load_no_evaluation_module(tmp_path):
    audit = tmp_path / "run.audit"
    generated = loaded_modules("generate", "--schema", DATA / "adult.schema",
                               "--input", DATA / "adult_sample.csv",
                               "--output", tmp_path / "syn.csv", "--audit", audit)
    inspected = loaded_modules("inspect", "--audit", audit)
    assert GENERATION_MODULES <= generated
    assert "ffpdg.audit" in inspected
    assert not (generated | inspected) & EVALUATION_MODULES


def test_large_split_budget_runs_and_reports_the_epsilon_spent(tmp_path, capsys):
    # from about 8,200 up, eps_mu + eps_sigma of a split total rounds off the total
    audit = tmp_path / "run.audit"
    rc = cli.main(["generate", "--schema", str(DATA / "adult.schema"),
                   "--input", str(DATA / "adult_sample.csv"), "--output", str(tmp_path / "o.csv"),
                   "--audit", str(audit), "--epsilon", "30000", "--epsilon-split", "1:2"])
    assert rc == 0, capsys.readouterr().err
    config = dict(line.split("=", 1) for line in read_audit(audit)["sections"]["config"] if line)
    assert float(config["epsilon"]) == float(config["eps_mu"]) + float(config["eps_sigma"])
    assert float(config["epsilon"]) <= 30000  # the rounded slices never overspend


def test_evaluate_rejects_a_three_level_label_naming_it(tmp_path, capsys):
    from ffpdg.data import CATEGORICAL, ROLE_LABEL, ColumnSpec, Dataset, Schema

    ds = mixed_dataset(300, seed=4)
    label = ColumnSpec("outcome", CATEGORICAL, role=ROLE_LABEL, levels=("no", "maybe", "yes"))
    values = ds.values.copy()
    values[:, 3] = np.random.default_rng(5).integers(0, 3, ds.n)
    ds = Dataset(Schema(ds.schema.columns[:3] + (label,)), values)
    save_schema(ds.schema, tmp_path / "cat.schema")
    save_csv(ds, tmp_path / "cat.csv")
    csv = str(tmp_path / "cat.csv")
    rc = cli.main(["evaluate", "--schema", str(tmp_path / "cat.schema"),
                   "--input", csv, "--test", csv, "--synthetic", csv])
    assert rc == 1
    assert capsys.readouterr().err == ("error: evaluation needs a 0/1 label, but label column "
                                       "'outcome' is categorical with 3 levels\n")


def test_generate_on_a_categorical_label_in_auto_mode(tmp_path, capsys):
    from ffpdg.data import CATEGORICAL, ROLE_LABEL, ColumnSpec, Dataset, Schema

    ds = mixed_dataset(600, seed=4)
    label = ColumnSpec("outcome", CATEGORICAL, role=ROLE_LABEL, levels=("no", "maybe", "yes"))
    values = ds.values.copy()
    values[:, 3] = np.random.default_rng(5).integers(0, 3, ds.n)
    ds = Dataset(Schema(ds.schema.columns[:3] + (label,)), values)
    save_schema(ds.schema, tmp_path / "cat.schema")
    save_csv(ds, tmp_path / "cat.csv")
    rc = cli.main(["generate", "--schema", str(tmp_path / "cat.schema"),
                   "--input", str(tmp_path / "cat.csv"), "--output", str(tmp_path / "o.csv")])
    assert rc == 0, capsys.readouterr().err
    assert set(load_csv(tmp_path / "o.csv", ds.schema).column("outcome")) <= {0.0, 1.0, 2.0}


def test_an_unexpected_error_in_the_fair_stage_exits_1_tagged(mixed_dir, capsys, monkeypatch):
    from ffpdg import maxent

    def broken(prior, constraints):
        raise RuntimeError("solver broke")

    monkeypatch.setattr(maxent, "solve_maxent", broken)
    rc = cli.main(["generate", "--schema", str(mixed_dir / "mixed.schema"),
                   "--input", str(mixed_dir / "mixed.csv"), "--output", str(mixed_dir / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: fair redistribution: solver broke\n"
    assert not (mixed_dir / "x.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, scale", [("normal", 1.0), ("span", 1.0), ("normal", 1e-7)],
                         ids=["normal-1e307", "span-1.7e308", "normal-1e300"])
def test_a_column_near_the_float64_limit_fails_once_naming_it(tmp_path, capsys, kind, scale):
    # N(0, 1) * 1e307 has a finite range but grid slopes that overflow in
    # `sample`; +-1.7e308 has a range that overflows in `pre_normalize`;
    # N(0, 1) * 1e300 fits in both
    ds = one_feature_dataset(float_limit_column(kind, 300, 7) * scale, seed=8)
    save_schema(ds.schema, tmp_path / "t.schema")
    save_csv(ds, tmp_path / "t.csv")
    out = tmp_path / "o.csv"
    rc = cli.main(["generate", "--schema", str(tmp_path / "t.schema"), "--input", str(tmp_path / "t.csv"),
                   "--output", str(out)])
    err = capsys.readouterr().err
    if scale < 1.0:
        assert rc == 0, err
        assert load_csv(out, ds.schema).n == 300
        return
    assert rc == 1
    assert err.startswith("error: projection fit: continuous column 'x' spans [")
    assert err.endswith("]: its range or its quantile grid's slope overflows float64\n")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_regression_label_too_large_to_scale_fails_once_naming_it(tmp_path, capsys):
    # range and grid slopes are finite, but 2 * y overflows when the label is scaled into [-1, 1]
    from ffpdg.data import BINARY, CONTINUOUS, ROLE_LABEL, ROLE_PROTECTED, ColumnSpec, Schema

    r = np.random.default_rng(9)
    schema = Schema((ColumnSpec("x", CONTINUOUS), ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
                     ColumnSpec("y", CONTINUOUS, role=ROLE_LABEL)))
    values = np.column_stack([r.standard_normal(300), r.random(300) < 0.5,
                              r.permutation(np.linspace(9e307, 1e308, 300))]).astype(float)
    save_schema(schema, tmp_path / "t.schema")
    save_csv(Dataset(schema, values), tmp_path / "t.csv")
    rc = cli.main(["generate", "--schema", str(tmp_path / "t.schema"), "--input", str(tmp_path / "t.csv"),
                   "--output", str(tmp_path / "o.csv")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: projection fit: label 'y' spans [9e+307, 1e+308]: "
                                       "scaling it into [-1, 1] overflows float64\n")


def test_evaluate_on_single_label_synthetic_rows_fails_once(tmp_path, capsys):
    schema = load_schema(DATA / "adult.schema")
    ds = load_csv(DATA / "adult_sample.csv", schema)
    values = ds.values.copy()
    values[:, schema.label_index] = 0.0
    save_csv(Dataset(schema, values), tmp_path / "syn.csv")
    rc = cli.main(["evaluate", "--schema", str(DATA / "adult.schema"),
                   "--input", str(DATA / "adult_sample.csv"), "--test", str(DATA / "adult_holdout.csv"),
                   "--synthetic", str(tmp_path / "syn.csv")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: the synthetic rows cannot train the zoo: "
                                       "training labels contain a single class\n")


@pytest.mark.parametrize("column, error", [
    ("income", "auc_roc needs both classes"),
    ("sex_male", "protected group 1 has no rows"),
], ids=["income", "sex_male"])
def test_evaluate_on_a_one_sided_holdout_names_the_held_out_rows(tmp_path, capsys, column, error):
    schema = load_schema(DATA / "adult.schema")
    holdout = load_csv(DATA / "adult_holdout.csv", schema)
    values = holdout.values.copy()
    values[:, [c.name for c in schema.columns].index(column)] = 0.0
    save_csv(Dataset(schema, values), tmp_path / "holdout.csv")
    rc = cli.main(["evaluate", "--schema", str(DATA / "adult.schema"),
                   "--input", str(DATA / "adult_sample.csv"), "--test", str(tmp_path / "holdout.csv"),
                   "--synthetic", str(DATA / "adult_sample.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: the held-out rows cannot score the zoo: {error}\n"


@pytest.mark.parametrize("flags, error", [
    (["--mode", "regression"], "regression mode needs a continuous label column"),
    (["--p", "5"], "projected dimension p=5 must satisfy 1 <= p < d_eff=5"),
], ids=["mode-regression", "p-5"])
def test_stops_that_need_only_the_schema_and_flags_come_before_the_fair_stage(
        tmp_path, capsys, monkeypatch, flags, error):
    from ffpdg import binarize

    calls = []
    build_codebook = binarize.build_codebook
    monkeypatch.setattr(binarize, "build_codebook", lambda *args: calls.append(args) or build_codebook(*args))
    out = tmp_path / "x.csv"
    rc = cli.main(["generate", "--schema", str(DATA / "adult.schema"),
                   "--input", str(DATA / "adult_sample.csv"), "--output", str(out), *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert calls == [] and not out.exists()
