"""Print the traced memory of each generate stage of one run.

    python3 scripts/stage_memory.py --schema data/adult.schema \
        --input data/adult_sample.csv [--seed 0]

Runs `load_csv`, `generate_with_artifacts` and `save_csv` (to a temporary
file) once under tracemalloc, which numpy reports its array buffers to.
Every stage is measured by a wrapper at the module attribute the
pipeline looks it up through, the way the benchmark's tracer wraps them,
which records three figures in MB: memory live when the stage starts, the
highest it reaches inside the stage, and what is live when the stage
returns. Nested stages (the steps of `fit`) are indented under their
caller; a nested stage's peak counts toward its caller's peak.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tempfile
import tracemalloc
from pathlib import Path

# (module, attribute) of each stage, in pipeline order
STAGES = (
    ("ffpdg.rongauss", "generate_with_artifacts"),
    ("ffpdg.binarize", "build_codebook"),
    ("ffpdg.maxent", "empirical_prior"),
    ("ffpdg.maxent", "fair_marginals"),
    ("ffpdg.maxent", "solve_maxent"),
    ("ffpdg.maxent", "sample_codes"),
    ("ffpdg.binarize", "decode_codes"),
    ("ffpdg.rongauss", "fit"),
    ("ffpdg.rongauss", "pre_normalize"),
    ("ffpdg.rongauss", "center_and_renormalize"),
    ("ffpdg.rongauss", "dp_mean"),
    ("ffpdg.rongauss", "make_ron"),
    ("ffpdg.rongauss", "dp_covariance"),
    ("ffpdg.rongauss", "psd_repair"),
    ("ffpdg.rongauss", "sample"),
)

MB = 1024.0 * 1024.0


class StageMemory:
    """Wraps stage functions and records (depth, name, before, peak, after) per call.

    tracemalloc keeps one peak, so each stage resets it on entry after
    folding the peak reached so far into its caller's record. On exit the
    stage's peak is the larger of the tracemalloc peak and what it folded
    in, and that peak is folded into its caller's record in turn.
    """

    def __init__(self):
        self.rows = []
        self._open = []  # [row index, peak carried from before the last reset]

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._open[-1][1] = max(self._open[-1][1], peak)
            tracemalloc.reset_peak()
            self.rows.append([len(self._open), name, current, current, current])
            self._open.append([len(self.rows) - 1, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                index, carried = self._open.pop()
                current, peak = tracemalloc.get_traced_memory()
                self.rows[index][3] = max(carried, peak)
                self.rows[index][4] = current
                if self._open:
                    self._open[-1][1] = max(self._open[-1][1], self.rows[index][3])

        return wrapper

    def run(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def table(self) -> str:
        lines = [f"{'stage':<34} {'before_mb':>10} {'peak_mb':>10} {'after_mb':>10}"]
        for depth, name, before, peak, after in self.rows:
            label = "  " * depth + name
            lines.append(f"{label:<34} {before / MB:>10.1f} {peak / MB:>10.1f} {after / MB:>10.1f}")
        return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schema", required=True, help="schema text file")
    parser.add_argument("--input", required=True, help="training CSV")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    args = parser.parse_args(argv)

    from ffpdg import data, rongauss

    recorder = StageMemory()
    originals = []
    for module_name, attr in STAGES:
        module = importlib.import_module(module_name)
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, recorder.wrap(attr, getattr(module, attr)))
    tracemalloc.start()
    try:
        schema = data.load_schema(args.schema)
        dataset = recorder.run("load_csv", data.load_csv, args.input, schema)
        config = rongauss.GenerationConfig(seed=args.seed)
        result = rongauss.generate_with_artifacts(dataset, config)
        with tempfile.TemporaryDirectory(prefix="stage_memory_") as tmp:
            recorder.run("save_csv", data.save_csv, result.dataset, Path(tmp) / "synthetic.csv")
    finally:
        tracemalloc.stop()
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    print(f"rows={dataset.n} columns={dataset.d} seed={args.seed}")
    print(recorder.table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
