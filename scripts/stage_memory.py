"""Print the memory of each generate stage of one run: traced and resident.

    python3 scripts/stage_memory.py --schema data/adult.schema \
        --input data/adult_sample.csv [--seed 0]

Runs `load_csv`, `generate_with_artifacts` and `save_csv` (to a temporary
file) twice in one process. The first pass reads the process's resident
high-water mark (`ru_maxrss`) as each stage returns. The second runs
under tracemalloc, which numpy reports its array buffers to, and records
the traced memory live when each stage starts, the highest it reaches
inside and what is live when it returns. Each stage prints these four
figures in MB. The traced figures count live buffers; the high-water
mark counts what the allocator took from the OS, freed or not, so a
change can lower the one and raise the other: read both. The high water
comes from a pass of its own because tracemalloc's records raise it (by
7 to 17 MB on a 300k-row adult input); running first, that pass also
pays numpy's first-call imports, which the traced pass would count.

The stages of generate are measured by a wrapper at the module attribute
the pipeline looks them up through, the way the benchmark's tracer wraps
them; the three top-level calls are measured where the script makes
them. A wrapper holds its stage's arguments until the stage returns, so
`fit`, which frees the table it is handed, is not wrapped: its steps
show directly under `generate_with_artifacts`. As in the CLI, the loaded
table goes into `generate_with_artifacts` with no other reference to it,
so generate can free it. A nested stage (`dp_mean` inside
`center_and_renormalize`) is indented under its caller, and its peak
counts toward its caller's peak.
"""

from __future__ import annotations

import argparse
import importlib
import resource
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) of each stage of generate, in pipeline order
STAGES = (
    ("ffpdg.binarize", "build_codebook"),
    ("ffpdg.maxent", "empirical_prior"),
    ("ffpdg.maxent", "fair_marginals"),
    ("ffpdg.maxent", "solve_maxent"),
    ("ffpdg.maxent", "sample_codes"),
    ("ffpdg.binarize", "decode_codes"),
    ("ffpdg.rongauss", "pre_normalize"),
    ("ffpdg.rongauss", "center_and_renormalize"),
    ("ffpdg.rongauss", "dp_mean"),
    ("ffpdg.rongauss", "make_ron"),
    ("ffpdg.rongauss", "dp_covariance"),
    ("ffpdg.rongauss", "psd_repair"),
    ("ffpdg.rongauss", "sample"),
)

MB = 1024.0 * 1024.0


def high_water() -> int:
    """The process's peak resident set size so far, in bytes (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class StageMemory:
    """Wraps stage functions and records (depth, name, before, peak, after,
    high water) per call.

    tracemalloc keeps one peak, so each stage resets it on entry after
    folding the peak reached so far into its caller's record. On exit the
    stage's peak is the larger of the tracemalloc peak and what it folded
    in, and that peak is folded into its caller's record in turn.
    """

    def __init__(self):
        self.rows = []
        self._open = []  # [row index, peak carried from before the last reset]

    @contextmanager
    def stage(self, name):
        current, peak = tracemalloc.get_traced_memory()
        if self._open:
            self._open[-1][1] = max(self._open[-1][1], peak)
        tracemalloc.reset_peak()
        self.rows.append([len(self._open), name, current, current, current, 0])
        self._open.append([len(self.rows) - 1, 0])
        try:
            yield
        finally:
            index, carried = self._open.pop()
            current, peak = tracemalloc.get_traced_memory()
            self.rows[index][3] = max(carried, peak)
            self.rows[index][4] = current
            self.rows[index][5] = high_water()
            if self._open:
                self._open[-1][1] = max(self._open[-1][1], self.rows[index][3])

    def wrap(self, name, fn):
        """fn, recorded as a stage; the wrapper holds fn's arguments until it returns."""
        def wrapper(*args, **kwargs):
            with self.stage(name):
                return fn(*args, **kwargs)

        return wrapper

    def table(self) -> str:
        lines = [f"{'stage':<34} {'before_mb':>10} {'peak_mb':>10} {'after_mb':>10} {'hwm_mb':>10}"]
        for depth, name, *figures in self.rows:
            lines.append(f"{'  ' * depth + name:<34}" + "".join(f" {f / MB:>10.1f}" for f in figures))
        return "\n".join(lines)


@contextmanager
def wrapped(recorder: StageMemory):
    """Every stage in STAGES recorded by `recorder` while the block runs."""
    originals = []
    try:
        for module_name, attr in STAGES:
            module = importlib.import_module(module_name)
            originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, recorder.wrap(attr, getattr(module, attr)))
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def run(recorder: StageMemory, schema, config, path):
    """Load, generate and save once under `recorder`; returns the GenerationResult."""
    from ffpdg import data, rongauss

    with wrapped(recorder):
        with recorder.stage("load_csv"):
            tables = [data.load_csv(path, schema)]
        with recorder.stage("generate_with_artifacts"):
            # pop hands the table over, as the CLI does
            result = rongauss.generate_with_artifacts(tables.pop(), config)
        with tempfile.TemporaryDirectory(prefix="stage_memory_") as tmp, recorder.stage("save_csv"):
            data.save_csv(result.dataset, Path(tmp) / "synthetic.csv")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schema", required=True, help="schema text file")
    parser.add_argument("--input", required=True, help="training CSV")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    args = parser.parse_args(argv)

    from ffpdg import data, rongauss

    schema = data.load_schema(args.schema)
    config = rongauss.GenerationConfig(seed=args.seed)
    resident = StageMemory()
    run(resident, schema, config, args.input)
    recorder = StageMemory()
    tracemalloc.start()
    try:
        result = run(recorder, schema, config, args.input)
    finally:
        tracemalloc.stop()
    for row, untraced in zip(recorder.rows, resident.rows, strict=True):
        row[5] = untraced[5]
    print(f"rows={len(result.codebook.row_order)} columns={schema.d} seed={args.seed}")
    print(recorder.table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
