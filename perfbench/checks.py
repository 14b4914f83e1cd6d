"""Per-operation output checks. Any problem marks the operation failed.

Repeated operations of one run share their inputs and seed, so each must
reproduce the first operation's bytes exactly. The first operation is
also checked on its own: its CSV must reload under the schema with the
expected row count and its audit must rebuild a model.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

EVAL_KEYS = ("aucroc_best", "deo", "dsp", "di_ratio", "lrd")
# di_ratio is P(y=1|c=0) / P(y=1|c=1) and may exceed 1; the other four
# are rates or AUCs that the report itself bounds to [0, 1].
UNIT_INTERVAL_KEYS = ("aucroc_best", "deo", "dsp", "lrd")
MAX_ORTHONORMALITY_DEFECT = 1e-10
_VOLATILE_AUDIT_PREFIX = "generate_seconds="


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def stable_audit(text: str) -> str:
    """Audit text without its wall-clock line."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith(_VOLATILE_AUDIT_PREFIX))


def model_arrays(obj) -> list[np.ndarray]:
    """Every number inside a rebuilt model, walking its dataclass fields in order.

    Walking the fields rather than naming them keeps the check working
    when the model's layout changes; strings and None carry no numbers.
    """
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (int, float)):
        return [np.asarray([obj])]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in model_arrays(item)]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in model_arrays(getattr(obj, f.name))]
    return []


def _read_model(audit_path):
    from ffpdg.audit import read_audit

    model = read_audit(audit_path)["model"]
    if model is None:
        raise ValueError("audit has no [model] section")
    return model


class GenerateReference:
    """The first generate operation's outputs, checked once in full."""

    def __init__(self, output, audit, schema, rows: int):
        from ffpdg.data import load_csv, load_schema

        self.problems: list[str] = []
        self.digest = digest(output)
        self.audit = stable_audit(Path(audit).read_text(encoding="utf-8"))
        self.arrays: list[np.ndarray] = []
        # the checker is a boundary: whatever the program's readers raise
        # on a bad file is recorded as a failed check, not a crash
        try:
            reloaded = load_csv(output, load_schema(schema))
            if reloaded.n != rows:
                self.problems.append(f"output has {reloaded.n} rows, expected {rows}")
        except Exception as exc:
            self.problems.append(f"output does not reload: {exc!r}")
        try:
            self.arrays = model_arrays(_read_model(audit))
        except Exception as exc:
            self.problems.append(f"audit model does not rebuild: {exc!r}")

    def gap_after(self) -> float:
        """|P(y=1|c=0) - P(y=1|c=1)| of the fair sample, as the audit reports it."""
        line = next(line for line in self.audit.splitlines() if line.startswith("gap_after="))
        return float(line.split("=", 1)[1])


def check_generate(reference: GenerateReference, output, audit) -> list[str]:
    """Problems of one generate operation against the run's first one."""
    problems = list(reference.problems)
    if digest(output) != reference.digest:
        problems.append("output CSV differs from the first operation's")
    if stable_audit(Path(audit).read_text(encoding="utf-8")) != reference.audit:
        problems.append("audit differs from the first operation's")
    try:
        arrays = model_arrays(_read_model(audit))
    except Exception as exc:
        problems.append(f"audit model does not rebuild: {exc!r}")
    else:
        if len(arrays) != len(reference.arrays) or not all(
                np.array_equal(a, b, equal_nan=True) for a, b in zip(arrays, reference.arrays)):
            problems.append("rebuilt model differs from the first operation's")
    return problems


def eval_lines(stdout: str) -> dict[str, str]:
    """The evaluate report's key=value lines, by key."""
    found = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and key in EVAL_KEYS:
            found[key] = value
    return found


def check_evaluate(stdout: str, reference: str | None) -> list[str]:
    """Problems of one evaluate report; `reference` is the first report's stdout."""
    found = eval_lines(stdout)
    problems = [f"evaluate output lacks {key}=" for key in EVAL_KEYS if key not in found]
    for key, text in found.items():
        try:
            value = float(text)
        except ValueError:
            problems.append(f"{key}={text!r} is not a number")
            continue
        low, high = (0.0, 1.0) if key in UNIT_INTERVAL_KEYS else (0.0, float("inf"))
        if not low <= value <= high:
            problems.append(f"{key}={value} outside [{low}, {high}]")
    if reference is not None and found != eval_lines(reference):
        problems.append("evaluate output differs from the first operation's")
    return problems


def check_inspect(stdout: str) -> list[str]:
    for line in stdout.splitlines():
        if line.startswith("projection_orthonormality_defect="):
            defect = float(line.split("=", 1)[1])
            if defect <= MAX_ORTHONORMALITY_DEFECT:
                return []
            return [f"projection_orthonormality_defect={defect} above {MAX_ORTHONORMALITY_DEFECT}"]
    return ["inspect output lacks projection_orthonormality_defect="]


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    KEEP = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < self.KEEP:
                self.reasons.append("; ".join(problems))
