"""Check that two source trees make identical `generate`, `inspect` and `evaluate` outputs.

Give it two directories that each hold the `ffpdg` package (the `src/`
of two checkouts):

    python3 scripts/compare_generate.py OLD_SRC NEW_SRC

`generate` cases: data/{adult,compas}_sample.csv at seeds 0-9, plus the
inputs of the benchmark's adult-300k and wide-codes workloads (built
with perfbench/simulate.py at seed 1), each at `--bins` 1 and 3; both
extracts at seed 0 once per set of the other generate flags (budget and
split, projected dimension, output rows, unsupervised mode, relaxed
rate, quantile count), once with all of them, and once at `--rate 0.5`,
which keeps compas's observed joint; and a 2,000-row table
with a skewed continuous label (regression mode) at seeds 0-2.
`evaluate` cases: the benchmark's evaluate-10k inputs at `--seed` 0-2
(three 10,000-row perfbench/simulate.py Adult draws per seed, as that
workload writes them), and each extract with its holdout as both
`--test` and `--synthetic` at seeds 0-9. Each tree runs every case in
one child process, with BLAS pinned to one thread, and runs `inspect` on each
audit a `generate` case writes, and rebuilds the model from that audit
with its own `read_audit`. A `generate` case is identical when both
trees exit with the same code, write the same CSV bytes, the same audit
sections and the same rebuilt model, and `inspect` prints the same
output. The audit and the `inspect` output are compared without their
`generate_seconds=` line, and the audit without its format line and its
`[model...]` sections: those hold the model in the tree's own audit
format, so the model is compared by value instead: the numbers that make
up the release (`RELEASE`, then each column's post-processing rate and
grid), with floats as their repr. A model without one of the `RELEASE`
attributes (a tree with another model layout) prints it as absent, and
its case reports that the model layout differs. An
`evaluate` case is identical when both exit with the same code and print
the same standard output. Each differing case prints everything that
differs: exit code, the names of the CSV columns whose cells differ, the
names of the audit `[section]`s, the model, the inspect output and the
evaluate output. Then prints `N of M identical` and exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
SEEDS = range(10)
BINS = (1, 3)
SIMULATED_SEED = 1
EVALUATE_SEEDS = range(3)
EVALUATE_ROWS = 10_000
REGRESSION_SEEDS = range(3)
REGRESSION_ROWS = 2_000
# five uniform features, a protected bit, and a label y = Exp(1) * (1 + x0)
REGRESSION_SCHEMA = (tuple((f"x{j}", "continuous", "feature", ()) for j in range(5))
                     + (("c", "binary", "protected", ()), ("y", "continuous", "label", ())))
FLAG_CASES = {
    "epsilon": ["--epsilon", "4", "--epsilon-split", "1:3"],
    "p": ["--p", "3"],
    "n-out": ["--n-out", "1700"],
    "unsupervised": ["--mode", "unsupervised"],
    "rate": ["--rate", "0.8"],
    "quantiles": ["--quantiles", "33"],
}
FLAG_CASES["all"] = [arg for args in FLAG_CASES.values() for arg in args] + ["--bins", "2"]
# below compas's observed group-rate ratio, so that extract keeps its joint; adult's moves
FLAG_CASES["rate-0.5"] = ["--rate", "0.5"]
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
VOLATILE_AUDIT_PREFIX = "generate_seconds="
ABSENT = object()
# the rebuilt model's attributes `model_lines` prints, in order; a tree
# whose model lacks one prints it as absent
RELEASE = ("mode", "d_eff", "projection.p", "projection.W", "mu_dp", "weights_dp", "means_dp",
           "sigma_dp", "class_values")


def bundled_cases() -> list[dict]:
    """The bundled 1000-row extracts at every seed and bin count, then at
    seed 0 under each set of `FLAG_CASES`."""
    def case(stem, name, seed, args):
        return {"name": f"{stem}-seed{seed}-{name}", "command": "generate",
                "schema": str(DATA / f"{stem}.schema"), "input": str(DATA / f"{stem}_sample.csv"),
                "seed": seed, "args": args}

    stems = ("adult", "compas")
    return ([case(stem, f"bins{bins}", seed, ["--bins", str(bins)])
             for stem in stems for seed in SEEDS for bins in BINS]
            + [case(stem, name, 0, args) for stem in stems for name, args in FLAG_CASES.items()])


def _simulate():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import simulate

    return simulate


def simulated_cases(work: Path) -> list[dict]:
    """The adult-300k and wide-codes benchmark inputs, written under `work`."""
    simulate = _simulate()
    cases = []
    for name, make, schema, rows in (("adult-300k", simulate.make_adult, simulate.ADULT_SCHEMA, 300_000),
                                     ("wide-codes", simulate.make_wide, simulate.WIDE_SCHEMA, 20_000)):
        schema_path, csv_path = simulate.write_inputs(work, name, schema, make(rows, SIMULATED_SEED))
        cases += [{"name": f"{name}-seed{SIMULATED_SEED}-bins{bins}", "command": "generate",
                   "schema": str(schema_path), "input": str(csv_path), "seed": SIMULATED_SEED,
                   "args": ["--bins", str(bins)]}
                  for bins in BINS]
    return cases


def regression_cases(work: Path) -> list[dict]:
    """`generate` in regression mode (the label is continuous) on one seeded
    `REGRESSION_SCHEMA` table, written under `work`, at each of `REGRESSION_SEEDS`."""
    r = np.random.default_rng(SIMULATED_SEED)
    x = r.random((REGRESSION_ROWS, 5))
    c = (r.random(REGRESSION_ROWS) < 0.5).astype(float)
    y = r.exponential(1.0, REGRESSION_ROWS) * (1.0 + x[:, 0])
    schema, table = _simulate().write_inputs(work, "regression", REGRESSION_SCHEMA,
                                             np.column_stack([x, c, y]))
    return [{"name": f"regression-seed{seed}", "command": "generate", "schema": str(schema),
             "input": str(table), "seed": seed, "args": []} for seed in REGRESSION_SEEDS]


def evaluate_cases(work: Path) -> list[dict]:
    """`evaluate` on the evaluate-10k benchmark inputs (written under
    `work`) at each of `EVALUATE_SEEDS`, then on each bundled extract with
    its holdout as the synthetic rows at each of `SEEDS`."""
    def case(name, schema, train, test, synthetic, seed):
        return {"name": name, "command": "evaluate", "schema": str(schema), "input": str(train),
                "seed": seed, "args": ["--test", str(test), "--synthetic", str(synthetic)]}

    simulate = _simulate()
    cases = []
    for seed in EVALUATE_SEEDS:
        paths = {}
        for k, role in enumerate(("train", "holdout", "synthetic")):
            schema, paths[role] = simulate.write_inputs(
                work, f"evaluate-10k-seed{seed}-{role}", simulate.ADULT_SCHEMA,
                simulate.make_adult(EVALUATE_ROWS, 3 * seed + k))
        cases.append(case(f"evaluate-10k-seed{seed}", schema, paths["train"], paths["holdout"],
                          paths["synthetic"], seed))
    for stem in ("adult", "compas"):
        holdout = DATA / f"{stem}_holdout.csv"
        cases += [case(f"evaluate-{stem}-seed{seed}", DATA / f"{stem}.schema",
                       DATA / f"{stem}_sample.csv", holdout, holdout, seed) for seed in SEEDS]
    return cases


def run_tree(src: Path, cases: list[dict], out: Path) -> None:
    """Run every case against the package under `src` in one child process."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "cases.json").write_text(json.dumps(cases), encoding="utf-8")
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(out)],
                   env=env, check=True)


def model_lines(model) -> list[str]:
    """One `name=value` line for every number of the release a rebuilt
    model holds: the `RELEASE` attributes (`name absent` for one the model
    lacks, as a tree with another model layout does), then each
    post-processing entry's rate and quantile grid, arrays element by
    element."""
    values = {}
    for path in RELEASE:
        try:
            values[f"model.{path}"] = operator.attrgetter(path)(model)
        except AttributeError:
            values[f"model.{path}"] = ABSENT
    for j, post in enumerate(model.postprocess):
        values[f"model.postprocess[{j}].rate"] = post.rate
        values[f"model.postprocess[{j}].quantile_grid"] = post.quantile_grid
    return [line for name, value in values.items() for line in value_lines(value, name)]


def value_lines(obj, name: str) -> list[str]:
    """`name=value` lines for a value, sequences element by element; each
    value is printed as its repr, numpy numbers as Python ones, and
    `ABSENT` as `name absent`."""
    if obj is ABSENT:
        return [f"{name} absent"]
    if hasattr(obj, "tolist"):  # numpy arrays and numbers
        obj = obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [line for i, item in enumerate(obj) for line in value_lines(item, f"{name}[{i}]")]
    return [f"{name}={obj!r}"]


def child(out: Path) -> None:
    """Child side of run_tree: every case through `cli.main`, exit codes to
    codes.json; `generate` writes `<case>.csv` and `<case>.audit`, `inspect`
    on that audit prints `<case>.inspect` (standard output and error,
    without the `generate_seconds=` line), and the model `read_audit`
    rebuilds from it goes to `<case>.model` (`model_lines`, or the error);
    an `evaluate` case's standard output goes to `<case>.stdout`."""
    from ffpdg import cli
    from ffpdg.audit import read_audit
    from ffpdg.errors import FfpdgError

    codes = {}
    for case in json.loads((out / "cases.json").read_text(encoding="utf-8")):
        stem = out / case["name"]
        argv = [case["command"], "--schema", case["schema"], "--input", case["input"],
                "--seed", str(case["seed"]), *case["args"]]
        if case["command"] == "generate":
            argv += ["--output", f"{stem}.csv", "--audit", f"{stem}.audit"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            codes[case["name"]] = cli.main(argv)
        if case["command"] == "evaluate":
            Path(f"{stem}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
        elif Path(f"{stem}.audit").exists():
            shown = io.StringIO()
            with contextlib.redirect_stdout(shown), contextlib.redirect_stderr(shown):
                cli.main(["inspect", "--audit", f"{stem}.audit"])
            lines = shown.getvalue().splitlines(keepends=True)
            Path(f"{stem}.inspect").write_text(
                "".join(l for l in lines if not l.startswith(VOLATILE_AUDIT_PREFIX)), encoding="utf-8")
            try:
                model = model_lines(read_audit(f"{stem}.audit")["model"])
            except FfpdgError as exc:
                model = [f"error: {exc}"]
            Path(f"{stem}.model").write_text("\n".join(model) + "\n", encoding="utf-8")
    (out / "codes.json").write_text(json.dumps(codes), encoding="utf-8")


def _audit_sections(path: Path) -> dict[str, str]:
    """An audit's text by `[section]` header, without its format line, its
    `[model...]` sections, its `generate_seconds=` line and the blank lines
    that end each section; lines between the format line and the first
    header go under `(preamble)`."""
    sections = {"(preamble)": []}
    lines = sections["(preamble)"]
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        if line.startswith("[") and line.endswith("]"):
            lines = sections.setdefault(line, [])
        elif not line.startswith(VOLATILE_AUDIT_PREFIX):
            lines.append(line)
    return {header: "\n".join(lines).rstrip("\n") for header, lines in sections.items()
            if not header.startswith("[model")}


def _csv_columns(path: Path) -> dict[str, tuple[str, ...]]:
    """A CSV file's cells as text, by header name."""
    header, *rows = path.read_text(encoding="utf-8").splitlines() or [""]
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


def difference(name: str, old: Path, new: Path, old_code: int, new_code: int) -> str | None:
    """Everything that differs for case `name` between the two output
    directories, joined by "; ", or None: the exit codes, an output written
    by one tree only, the CSV bytes by column, the audit sections by name,
    the rebuilt model, the inspect output and the evaluate output."""
    found = []
    if old_code != new_code:
        found.append(f"exit code {old_code} != {new_code}")
    csv_a, csv_b = old / f"{name}.csv", new / f"{name}.csv"
    audit_a, audit_b = old / f"{name}.audit", new / f"{name}.audit"
    model_a, model_b = old / f"{name}.model", new / f"{name}.model"
    inspect_a, inspect_b = old / f"{name}.inspect", new / f"{name}.inspect"
    stdout_a, stdout_b = old / f"{name}.stdout", new / f"{name}.stdout"
    for suffix, a, b in ((".csv", csv_a, csv_b), (".audit", audit_a, audit_b), (".model", model_a, model_b),
                         (".inspect", inspect_a, inspect_b), (".stdout", stdout_a, stdout_b)):
        if a.exists() != b.exists():
            found.append(f"{suffix} written by one tree only")
    if csv_a.exists() and csv_b.exists() and not filecmp.cmp(csv_a, csv_b, shallow=False):
        columns_a, columns_b = _csv_columns(csv_a), _csv_columns(csv_b)
        changed = [c for c in {**columns_a, **columns_b} if columns_a.get(c) != columns_b.get(c)]
        found.append("CSV bytes differ" + (" in " + " ".join(changed) if changed else ""))
    if audit_a.exists() and audit_b.exists():
        sections_a, sections_b = _audit_sections(audit_a), _audit_sections(audit_b)
        changed = [s for s in {**sections_a, **sections_b} if sections_a.get(s) != sections_b.get(s)]
        if changed:
            found.append("audit differs in " + " ".join(changed))
    if model_a.exists() and model_b.exists() and not filecmp.cmp(model_a, model_b, shallow=False):
        absent = any(line.endswith(" absent") for path in (model_a, model_b)
                     for line in path.read_text(encoding="utf-8").splitlines())
        found.append("model layout differs" if absent else "model differs")
    if inspect_a.exists() and inspect_b.exists() and not filecmp.cmp(inspect_a, inspect_b, shallow=False):
        found.append("inspect output differs")
    if stdout_a.exists() and stdout_b.exists() and not filecmp.cmp(stdout_a, stdout_b, shallow=False):
        found.append("evaluate output differs")
    return "; ".join(found) or None


def compare(old_src, new_src, cases: list[dict], work: Path) -> dict[str, str | None]:
    """Run `cases` on both trees; map each case name to its difference or None."""
    old, new = work / "old", work / "new"
    run_tree(Path(old_src).resolve(), cases, old)
    run_tree(Path(new_src).resolve(), cases, new)
    old_codes = json.loads((old / "codes.json").read_text(encoding="utf-8"))
    new_codes = json.loads((new / "codes.json").read_text(encoding="utf-8"))
    return {c["name"]: difference(c["name"], old, new, old_codes[c["name"]], new_codes[c["name"]])
            for c in cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    args = parser.parse_args(argv)
    if args.child:
        child(Path(args.child))
        return 0
    if not (args.old_src and args.new_src):
        parser.error("OLD_SRC and NEW_SRC are required")
    with tempfile.TemporaryDirectory(prefix="compare_generate_") as tmp:
        work = Path(tmp)
        cases = bundled_cases() + simulated_cases(work) + regression_cases(work) + evaluate_cases(work)
        results = compare(args.old_src, args.new_src, cases, work)
    for name, why in results.items():
        if why is not None:
            print(f"DIFFERS {name}: {why}")
    same = sum(why is None for why in results.values())
    print(f"{same} of {len(results)} identical")
    return 0 if same == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
