"""Repository benchmark: drive the ffpdg CLI on generated inputs, check every output.

Run from the repository root:

    python3 perfbench/run.py --workload adult-300k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Every workload is a closed loop: one operation at a time, from one
process, with at most one CLI child alive. BLAS and FFPDG_THREADS are
pinned to one thread. `--seed` makes the inputs (and is passed to the
CLI as `--seed`), so the same seed gives the same inputs and outputs.
BENCHMARK.json records why each workload exists.

Set-up writes the inputs SETUP_REPEATS times (median taken), imports
`ffpdg.cli` and runs one warm-up operation. The warm-up's outputs become
the run's reference; every operation is checked against it (checks.py).

`--trace 0` times operations for `--seconds` and prints the end-to-end
metrics. `--trace 1` alternates untraced and traced operations for
`--seconds` and prints the per-layer metrics from the traced ones
(spans.py), with the tracing overhead as traced minus untraced median.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Run details (provenance and, for
traced runs, every span) go to .perfbench_out/.
"""

import os

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "FFPDG_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads its BLAS

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import simulate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120


class Op:
    """One operation: wall time, problems found, captured stdout and, if traced, its spans.

    `stdout` is a string, or a dict by command for an operation made of
    several CLI children.
    """

    def __init__(self, seconds: float, problems: list[str], stdout, root=None, values=None):
        self.seconds = seconds
        self.problems = problems
        self.stdout = stdout
        self.root = root          # id of the span around the whole operation
        self.values = values or {}
        self.summary = None       # per-layer figures, filled in for traced operations


def call_main(argv, tracer=None) -> Op:
    """Run `cli.main(argv)` in-process, traced when a tracer is given."""
    from ffpdg import cli

    buf = io.StringIO()
    problems = []
    root = None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                root = stack.enter_context(tracer.span("op")).id
                stack.enter_context(tracer.span("cli.main"))
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        if rc != 0:
            problems.append(f"cli.main returned {rc}")
    except Exception:  # counted as a failed operation; the run goes on
        problems.append("cli.main raised: " + traceback.format_exc(limit=3))
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    values = tracer.run_probes() if tracer is not None else None
    return Op(seconds, problems, buf.getvalue(), root, values)


def import_program() -> float:
    start = time.perf_counter()
    import ffpdg.cli  # noqa: F401
    return time.perf_counter() - start


class GenerateWorkload:
    """`generate --audit` in-process on simulated rows."""

    in_process = True

    def __init__(self, name, simulator, schema, rows):
        self.name = name
        self.simulator = simulator
        self.schema = schema
        self.rows = rows

    def write_inputs(self, work: Path, seed: int) -> dict:
        schema_path, csv_path = simulate.write_inputs(
            work, "input", self.schema, self.simulator(self.rows, seed))
        return {"schema": schema_path, "input": csv_path,
                "output": work / "output.csv", "audit": work / "output.audit"}

    def run(self, paths, seed, tracer=None) -> Op:
        return call_main(["generate", "--schema", str(paths["schema"]),
                          "--input", str(paths["input"]), "--output", str(paths["output"]),
                          "--audit", str(paths["audit"]), "--seed", str(seed), "--bins", "1"],
                         tracer)

    def reference(self, paths, warm: Op):
        if warm.problems:
            return None
        return checks.GenerateReference(paths["output"], paths["audit"], paths["schema"], self.rows)

    def check(self, reference, paths, op: Op) -> list[str]:
        if op.problems or reference is None:
            return op.problems or ["the warm-up operation failed"]
        return checks.check_generate(reference, paths["output"], paths["audit"])

    def parity_gap(self, reference) -> float:
        return reference.gap_after()


class EvaluateWorkload:
    """`evaluate` in-process on three independent Adult draws (train, holdout, synthetic)."""

    in_process = True
    name = "evaluate-10k"
    rows = 10_000

    def write_inputs(self, work: Path, seed: int) -> dict:
        paths = {}
        for k, role in enumerate(("train", "holdout", "synthetic")):
            paths["schema"], paths[role] = simulate.write_inputs(
                work, role, simulate.ADULT_SCHEMA, simulate.make_adult(self.rows, 3 * seed + k))
        return paths

    def run(self, paths, seed, tracer=None) -> Op:
        return call_main(["evaluate", "--schema", str(paths["schema"]),
                          "--input", str(paths["train"]), "--test", str(paths["holdout"]),
                          "--synthetic", str(paths["synthetic"]), "--seed", str(seed)],
                         tracer)

    def reference(self, paths, warm: Op):
        return None if warm.problems else warm.stdout

    def check(self, reference, paths, op: Op) -> list[str]:
        if op.problems or reference is None:
            return op.problems or ["the warm-up operation failed"]
        return checks.check_evaluate(op.stdout, reference)

    def parity_gap(self, reference) -> float:
        # the models' mean prediction parity gap (DSP) on the real holdout
        return float(checks.eval_lines(reference)["dsp"])


class SessionWorkload:
    """generate --audit, evaluate, inspect: one CLI child each, on the bundled extract."""

    in_process = False
    name = "cli-session"
    rows = 1000

    def write_inputs(self, work: Path, seed: int) -> dict:
        paths = {}
        for key, name in (("schema", "adult.schema"), ("input", "adult_sample.csv"),
                          ("holdout", "adult_holdout.csv")):
            paths[key] = work / name
            shutil.copyfile(ROOT / "data" / name, paths[key])
        paths["output"] = work / "output.csv"
        paths["audit"] = work / "output.audit"
        paths["spans"] = work / "child-spans.json"
        return paths

    def commands(self, paths, seed):
        schema, seed = str(paths["schema"]), str(seed)
        return (
            ("generate", ["generate", "--schema", schema, "--input", str(paths["input"]),
                          "--output", str(paths["output"]), "--audit", str(paths["audit"]),
                          "--seed", seed]),
            ("evaluate", ["evaluate", "--schema", schema, "--input", str(paths["input"]),
                          "--test", str(paths["holdout"]), "--synthetic", str(paths["output"]),
                          "--seed", seed]),
            ("inspect", ["inspect", "--audit", str(paths["audit"])]),
        )

    def run(self, paths, seed, tracer=None) -> Op:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        problems, stdouts, values = [], {}, {}
        root = None
        start = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                root = stack.enter_context(tracer.span("op")).id
            for command, argv in self.commands(paths, seed):
                if tracer is None:
                    cmd = [sys.executable, "-m", "ffpdg.cli", *argv]
                else:
                    cmd = [sys.executable, str(HERE / "child.py"), str(paths["spans"]), *argv]
                try:
                    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                          timeout=CHILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    problems.append(f"{command} timed out")
                    break
                stdouts[command] = proc.stdout
                if tracer is not None and paths["spans"].exists():
                    child = json.loads(paths["spans"].read_text(encoding="utf-8"))
                    paths["spans"].unlink()
                    spans.merge(tracer.spans, child["spans"], root)
                    spans.merge_values(values, child["values"])
                    tracer.missing.extend(m for m in child["missing"] if m not in tracer.missing)
                if proc.returncode != 0:
                    problems.append(f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                    break
        return Op(time.perf_counter() - start, problems, stdouts, root, values)

    def reference(self, paths, warm: Op):
        if warm.problems:
            return None
        return (checks.GenerateReference(paths["output"], paths["audit"], paths["schema"], self.rows),
                warm.stdout["evaluate"])

    def check(self, reference, paths, op: Op) -> list[str]:
        if op.problems or reference is None:
            return op.problems or ["the warm-up operation failed"]
        generated, evaluated = reference
        return (checks.check_generate(generated, paths["output"], paths["audit"])
                + checks.check_evaluate(op.stdout["evaluate"], evaluated)
                + checks.check_inspect(op.stdout["inspect"]))

    def parity_gap(self, reference) -> float:
        return reference[0].gap_after()


WORKLOADS = {w.name: w for w in (
    GenerateWorkload("adult-300k", simulate.make_adult, simulate.ADULT_SCHEMA, 300_000),
    GenerateWorkload("wide-codes", simulate.make_wide, simulate.WIDE_SCHEMA, 20_000),
    EvaluateWorkload(),
    SessionWorkload(),
)}


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def provenance(args) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "threads": THREAD_ENV, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def measure(workload, seed: int, seconds: float, traced: bool):
    """Set up, then run operations for `seconds`; returns (metrics, tally, details)."""
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        input_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            paths = workload.write_inputs(work, seed)
            input_times.append(time.perf_counter() - start)
        import_s = import_program() if workload.in_process else 0.0
        warm = workload.run(paths, seed)
        setup_s = statistics.median(input_times) + import_s + warm.seconds
        if not workload.in_process:
            import_program()  # the checks read outputs with the program's readers
        reference = workload.reference(paths, warm)
        tally = checks.Tally()
        tally.record(workload.check(reference, paths, warm))

        tracer = spans.Tracer() if traced else None
        plain, traced_ops = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or (traced and not traced_ops):
            use_tracer = traced and len(plain) > len(traced_ops)
            first = len(tracer.spans) if traced else 0
            gc.collect()  # the previous operation's garbage is not this one's cost
            op = workload.run(paths, seed, tracer if use_tracer else None)
            if op.root is not None:
                op.summary = spans.op_summary(tracer.spans[first:], op.root, op.values)
            tally.record(workload.check(reference, paths, op))
            (traced_ops if use_tracer else plain).append(op)

        try:
            gap = workload.parity_gap(reference) if reference is not None else 1.0
        except (StopIteration, KeyError, ValueError):
            gap = 1.0  # unreadable: counted as the worst parity
        op_s_p50 = statistics.median(op.seconds for op in plain)
        if not traced:
            metrics = {
                "op_s_p50": op_s_p50,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(workload),
                "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
                "parity_score": 1.0 - gap,
            }
            extra = {"error_rate": tally.failed / tally.attempted, "parity_gap": gap,
                     "op_seconds": [round(op.seconds, 4) for op in plain]}
        else:
            metrics = spans.median_summary([op.summary for op in traced_ops if op.summary])
            metrics["trace.overhead_s"] = statistics.median(op.seconds for op in traced_ops) - op_s_p50
            metrics["trace.missing_spans"] = len(tracer.missing)
            metrics["trace.ops"] = len(traced_ops)
            metrics["parity_gap"] = gap
            extra = {"missing": tracer.missing, "untraced_op_s_p50": op_s_p50,
                     "spans": tracer.spans}
        return metrics, tally, extra
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def declared_units(traced: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if traced else "end_to_end"]}


def print_result(metrics: dict, tally, extra: dict, details: dict) -> None:
    units = declared_units(bool(details["trace"]))
    if set(metrics) != set(units):
        raise SystemExit(f"error: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    metrics = {name: (metrics[name], unit) for name, unit in units.items()}
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    for name in ("error_rate", "parity_gap", "op_seconds", "untraced_op_s_p50", "missing"):
        if name in extra:
            print(f"{name}: {extra[name]}")
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    name = f"{details['workload']}-seed{details['seed']}-trace{details['trace']}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({"provenance": details, "metrics": metrics, "extra": extra,
                   "failures": tally.reasons}, fh)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload untraced then traced, one child run at a time."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print(f"== {name} trace={trace}")
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ffpdg" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'ffpdg'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    details = provenance(args)
    print("provenance: " + json.dumps(details))
    metrics, tally, extra = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                    bool(args.trace))
    print_result(metrics, tally, extra, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
