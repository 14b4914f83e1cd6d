"""Print, and optionally record, the utility of the classification and regression releases on a fixed grid.

    python3 scripts/utility_table.py [--seeds 100] [--output UTILITY.json] [LABEL=]SRC ...

Each SRC is a directory holding the `ffpdg` package (the `src/` of a
checkout); `LABEL=` names its arm (default: the path). For every arm,
in one child process with BLAS pinned to one thread, each bundled
extract (data/{adult,compas}_sample.csv) runs at each of `EPSILONS` and
seeds 0 to N-1 through `generate_with_artifacts` (the seed as the
config seed, the budget split 30/70) and then `metrics.evaluate`
against its holdout (the same seed). A cell is one extract at one ε. It
reports the median and quartiles of `aucroc_best`, DSP and LRD over the
runs that `evaluate` accepted, the number of runs whose release gave a
class zero weight, and the number of runs that `evaluate` rejected.

Regression cells use demo 05's schema (five uniform features, a
protected bit, a continuous label) with beta = `BETA`: the label is
x beta + N(0, 0.1) ("normal") or x beta + Exp(1) ("skewed"). A cell is
one label at one of `REGRESSION_EPSILONS` and one of `REGRESSION_ROWS`;
each seed draws its table with data seed 1000*seed + n, fits it in
regression mode with the seed as the config seed and samples n rows
with seed + 100. It reports the quartiles of the relative coefficient
error |b - beta|/|beta| of least squares (with an intercept) on the
synthetic rows.

Prints one row per cell and arm; an arm after the first also prints its
median's change against the first arm's and half the first arm's
interquartile range, the change that the release's utility gate allows
(a fall in AUC, a rise in coefficient error).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
EXTRACTS = ("adult", "compas")
EPSILONS = (0.25, 1.0, 8.0)
METRICS = ("aucroc_best", "dsp", "lrd")
BETA = (3.0, -2.0, 1.5, 0.0, 0.5)
REGRESSION_LABELS = ("normal", "skewed")
REGRESSION_EPSILONS = (1.0, 8.0)
REGRESSION_ROWS = (500, 2_000, 8_000)
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def quartiles(values) -> dict:
    """{q1, median, q3} of the values (numpy.percentile at 25/50/75), or Nones for none."""
    if not len(values):
        return dict.fromkeys(("q1", "median", "q3"))
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def regression_table(label: str, n: int, seed: int):
    """Demo 05's table: five uniform features, a protected bit and y = x beta + noise."""
    from ffpdg.data import BINARY, CONTINUOUS, ROLE_LABEL, ROLE_PROTECTED, ColumnSpec, Dataset, Schema

    r = np.random.default_rng(seed)
    x = r.random((n, len(BETA)))
    c = (r.random(n) < 0.5).astype(float)
    y = x @ np.array(BETA) + (r.normal(0.0, 0.1, n) if label == "normal" else r.exponential(1.0, n))
    schema = Schema(tuple(ColumnSpec(f"x{j}", CONTINUOUS) for j in range(len(BETA)))
                    + (ColumnSpec("c", BINARY, role=ROLE_PROTECTED),
                       ColumnSpec("y", CONTINUOUS, role=ROLE_LABEL)))
    return Dataset(schema, np.column_stack([x, c, y]))


def regression_cells(seeds: int) -> list:
    """The regression cells, run against the `ffpdg` this process imports."""
    from ffpdg.dp import PrivacyBudget
    from ffpdg.rongauss import MODE_REGRESSION, GenerationConfig, fit, sample

    beta = np.array(BETA)
    cells = []
    for label in REGRESSION_LABELS:
        for epsilon in REGRESSION_EPSILONS:
            for n in REGRESSION_ROWS:
                errors = []
                for seed in range(seeds):
                    config = GenerationConfig(budget=PrivacyBudget.from_total(epsilon),
                                              mode=MODE_REGRESSION, seed=seed)
                    synth = sample(fit(regression_table(label, n, 1000 * seed + n), config), n, seed + 100)
                    X = np.column_stack([synth.values[:, :len(beta)], np.ones(n)])
                    coef = np.linalg.lstsq(X, synth.column("y"), rcond=None)[0]
                    errors.append(np.linalg.norm(coef[:len(beta)] - beta) / np.linalg.norm(beta))
                cells.append({"label": label, "epsilon": epsilon, "n": n, "runs": seeds,
                              "coef_error": quartiles(errors)})
    return cells


def grid(seeds: int) -> dict:
    """The cells of the grid, run against the `ffpdg` this process imports,
    with the library versions they ran under."""
    from ffpdg.data import load_csv, load_schema
    from ffpdg.dp import PrivacyBudget
    from ffpdg.errors import DataError
    from ffpdg.metrics import evaluate
    from ffpdg.rongauss import GenerationConfig, generate_with_artifacts

    cells = []
    for stem in EXTRACTS:
        schema = load_schema(DATA / f"{stem}.schema")
        train = load_csv(DATA / f"{stem}_sample.csv", schema)
        holdout = load_csv(DATA / f"{stem}_holdout.csv", schema)
        for epsilon in EPSILONS:
            values = {name: [] for name in METRICS}
            zero_weight = rejected = 0
            for seed in range(seeds):
                config = GenerationConfig(budget=PrivacyBudget.from_total(epsilon), seed=seed)
                result = generate_with_artifacts(train, config)
                zero_weight += bool(np.any(np.asarray(result.model.weights_dp) == 0.0))
                try:
                    report = evaluate(train, holdout, result.dataset, seed=seed)
                except DataError:
                    rejected += 1
                    continue
                for name in METRICS:
                    values[name].append(getattr(report, name))
            cells.append({"extract": stem, "epsilon": epsilon, "runs": seeds,
                          **{name: quartiles(values[name]) for name in METRICS},
                          "zero_weight_runs": zero_weight, "rejected_runs": rejected})
    return {"python": sys.version.split()[0], "numpy": np.__version__, "cells": cells,
            "regression_cells": regression_cells(seeds)}


def run_arm(src: Path, seeds: int) -> dict:
    """`grid` against the package under `src`, in a child process."""
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(seeds)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def table(arms: dict) -> str:
    """One row per cell and arm; arms after the first add their median's
    change against the first arm and half the first arm's IQR, of the AUC
    in a class cell and of the coefficient error in a regression cell."""
    def spread(q):
        return "-" if q["median"] is None else f"{q['median']:.3f} [{q['q1']:.3f}, {q['q3']:.3f}]"

    labels = list(arms)
    lines = [f"{'extract':<8} {'eps':>5}  {'arm':<12} {'aucroc_best':<22} {'dsp':<22} {'lrd':<22} "
             f"{'zero':>4} {'rej':>4}  dAUC (allowed)"]
    for i, first in enumerate(arms[labels[0]]["cells"]):
        for label in labels:
            cell = arms[label]["cells"][i]
            row = (f"{cell['extract']:<8} {cell['epsilon']:>5g}  {label:<12} "
                   + " ".join(f"{spread(cell[name]):<22}" for name in METRICS)
                   + f" {cell['zero_weight_runs']:>4} {cell['rejected_runs']:>4}")
            base, auc = first["aucroc_best"], cell["aucroc_best"]
            if label != labels[0] and None not in (base["median"], auc["median"]):
                row += f"  {auc['median'] - base['median']:+.3f} (-{(base['q3'] - base['q1']) / 2:.4f})"
            lines.append(row.rstrip())
    lines.append(f"{'label':<8} {'eps':>5} {'n':>6}  {'arm':<12} {'coef_error':<22}  dError (allowed)")
    for i, first in enumerate(arms[labels[0]]["regression_cells"]):
        for label in labels:
            cell = arms[label]["regression_cells"][i]
            base, error = first["coef_error"], cell["coef_error"]
            row = f"{cell['label']:<8} {cell['epsilon']:>5g} {cell['n']:>6}  {label:<12} {spread(error):<22}"
            if label != labels[0]:
                row += f"  {error['median'] - base['median']:+.3f} (+{(base['q3'] - base['q1']) / 2:.4f})"
            lines.append(row.rstrip())
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--seeds", type=int, default=100, help="seeds 0..N-1 per cell (default 100)")
    parser.add_argument("--output", help="also write the record here as JSON")
    parser.add_argument("srcs", nargs="*", metavar="[LABEL=]SRC")
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(grid(args.child)))
        return 0
    if not args.srcs:
        parser.error("at least one SRC is required")
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    arms = {}
    for spec in args.srcs:
        label, _, path = spec.rpartition("=")
        arms[label or path] = {"src": path, **run_arm(Path(path).resolve(), args.seeds)}
    print(table(arms))
    if args.output:
        record = {"command": "python3 scripts/utility_table.py " + " ".join(argv or sys.argv[1:]),
                  "grid": {"extracts": list(EXTRACTS), "epsilons": list(EPSILONS), "seeds": args.seeds,
                           "split": "30/70", "metrics": list(METRICS),
                           "regression": {"labels": list(REGRESSION_LABELS), "beta": list(BETA),
                                          "epsilons": list(REGRESSION_EPSILONS),
                                          "rows": list(REGRESSION_ROWS)}},
                  "machine": {"cpus": os.cpu_count(), "threads": "BLAS pinned to 1"},
                  "arms": arms}
        Path(args.output).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
