"""Check that two source trees make byte-identical `generate` outputs.

Give it two directories that each hold the `ffpdg` package (the `src/`
of two checkouts):

    python3 scripts/compare_generate.py OLD_SRC NEW_SRC

Cases: data/{adult,compas}_sample.csv at seeds 0-9, plus the inputs of
the benchmark's adult-300k and wide-codes workloads (built with
perfbench/simulate.py at seed 1), each at `--bins` 1 and 3. Each tree
runs every case in one child process, with BLAS pinned to one thread.
A case is identical when both trees exit with the same code, write the
same CSV bytes and the same audit once its `generate_seconds=` line is
dropped. Prints `N of M identical` and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
SEEDS = range(10)
BINS = (1, 3)
SIMULATED_SEED = 1
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
VOLATILE_AUDIT_PREFIX = "generate_seconds="


def bundled_cases() -> list[dict]:
    """The bundled 1000-row extracts at every seed and bin count."""
    return [
        {"name": f"{stem}-seed{seed}-bins{bins}", "schema": str(DATA / f"{stem}.schema"),
         "input": str(DATA / f"{stem}_sample.csv"), "seed": seed, "bins": bins}
        for stem in ("adult", "compas") for seed in SEEDS for bins in BINS
    ]


def simulated_cases(work: Path) -> list[dict]:
    """The adult-300k and wide-codes benchmark inputs, written under `work`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import simulate

    cases = []
    for name, make, schema, rows in (("adult-300k", simulate.make_adult, simulate.ADULT_SCHEMA, 300_000),
                                     ("wide-codes", simulate.make_wide, simulate.WIDE_SCHEMA, 20_000)):
        schema_path, csv_path = simulate.write_inputs(work, name, schema, make(rows, SIMULATED_SEED))
        cases += [{"name": f"{name}-seed{SIMULATED_SEED}-bins{bins}", "schema": str(schema_path),
                   "input": str(csv_path), "seed": SIMULATED_SEED, "bins": bins} for bins in BINS]
    return cases


def run_tree(src: Path, cases: list[dict], out: Path) -> None:
    """Run every case against the package under `src` in one child process."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "cases.json").write_text(json.dumps(cases), encoding="utf-8")
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(out)],
                   env=env, check=True)


def child(out: Path) -> None:
    """Child side of run_tree: `generate --audit` per case, exit codes to codes.json."""
    from ffpdg import cli

    codes = {}
    for case in json.loads((out / "cases.json").read_text(encoding="utf-8")):
        stem = out / case["name"]
        argv = ["generate", "--schema", case["schema"], "--input", case["input"],
                "--output", f"{stem}.csv", "--audit", f"{stem}.audit",
                "--seed", str(case["seed"]), "--bins", str(case["bins"])]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[case["name"]] = cli.main(argv)
    (out / "codes.json").write_text(json.dumps(codes), encoding="utf-8")


def _stable_audit(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith(VOLATILE_AUDIT_PREFIX)]


def difference(name: str, old: Path, new: Path, old_code: int, new_code: int) -> str | None:
    """Why case `name` differs between the two output directories, or None."""
    if old_code != new_code:
        return f"exit code {old_code} != {new_code}"
    for suffix in (".csv", ".audit"):
        a, b = old / f"{name}{suffix}", new / f"{name}{suffix}"
        if a.exists() != b.exists():
            return f"{suffix} written by one tree only"
    csv_a, csv_b = old / f"{name}.csv", new / f"{name}.csv"
    if csv_a.exists() and not filecmp.cmp(csv_a, csv_b, shallow=False):
        return "CSV bytes differ"
    audit_a, audit_b = old / f"{name}.audit", new / f"{name}.audit"
    if audit_a.exists() and _stable_audit(audit_a) != _stable_audit(audit_b):
        return "audit differs"
    return None


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
        cases = bundled_cases() + simulated_cases(work)
        results = compare(args.old_src, args.new_src, cases, work)
    for name, why in results.items():
        if why is not None:
            print(f"DIFFERS {name}: {why}")
    same = sum(why is None for why in results.values())
    print(f"{same} of {len(results)} identical")
    return 0 if same == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
