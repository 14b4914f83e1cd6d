"""Spans around the calls into each layer of the program, recorded from outside.

`Tracer.install()` replaces module attributes the pipeline looks up at
call time (for example `ffpdg.binarize.decode_codes`, which
`rongauss.generate_with_artifacts` calls through the module) with timing
wrappers, and `uninstall()` puts the originals back. A target that no
longer exists is reported in `missing` instead of failing the run.

Spans live in memory as dicts with id, name, start, end, parent and the
process CPU time at both ends; `write` dumps them as JSON at the end.
Nothing is imported from the program or from numpy at module load, so
the traced child runner can time the program's own import.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

# (module, attribute, span name). A span name is "<layer>.<call>"; the
# layer is the program module the time is charged to.
TARGETS = (
    ("ffpdg.cli", "load_csv", "data.load_csv"),
    ("ffpdg.cli", "save_csv", "data.save_csv"),
    ("ffpdg.binarize", "build_codebook", "binarize.build_codebook"),
    ("ffpdg.binarize", "decode_codes", "binarize.decode_codes"),
    ("ffpdg.maxent", "empirical_prior", "maxent.empirical_prior"),
    ("ffpdg.maxent", "fair_marginals", "maxent.fair_marginals"),
    ("ffpdg.maxent", "solve_maxent", "maxent.solve_maxent"),
    ("ffpdg.maxent", "sample_codes", "maxent.sample_codes"),
    ("ffpdg.rongauss", "fit", "rongauss.fit"),
    ("ffpdg.rongauss", "sample", "rongauss.sample"),
    ("ffpdg.rongauss", "pre_normalize", "rongauss.pre_normalize"),
    ("ffpdg.rongauss", "center_and_renormalize", "rongauss.center_and_renormalize"),
    ("ffpdg.rongauss", "make_ron", "rongauss.make_ron"),
    ("ffpdg.rongauss", "dp_mean", "dp.dp_mean"),
    ("ffpdg.rongauss", "dp_covariance", "dp.dp_covariance"),
    ("ffpdg.rongauss", "psd_repair", "dp.psd_repair"),
    ("ffpdg.audit", "write_audit", "audit.write_audit"),
    ("ffpdg.audit", "read_audit", "audit.read_audit"),
    ("ffpdg.models", "fit", "models.fit"),
    ("ffpdg.models", "predict_proba", "models.predict_proba"),
    ("ffpdg.metrics", "lrd", "metrics.lrd"),
    ("ffpdg.metrics", "auc_roc", "metrics.auc_roc"),
    ("ffpdg.metrics", "evaluate", "metrics.evaluate"),
)

ZOO = ("logistic_regression", "gaussian_nb", "bernoulli_nb", "decision_tree")

LAYERS = ("data", "binarize", "maxent", "rongauss", "dp", "models", "metrics", "audit", "cli")

# Per-layer metrics: the span whose summed self time per operation each
# `_s` metric reports, then the counts and values the probes record.
SELF_TIME_METRICS = (
    ("data.load_csv_s", "data.load_csv"),
    ("data.save_csv_s", "data.save_csv"),
    ("binarize.build_codebook_s", "binarize.build_codebook"),
    ("binarize.decode_codes_s", "binarize.decode_codes"),
    ("maxent.empirical_prior_s", "maxent.empirical_prior"),
    ("maxent.fair_marginals_s", "maxent.fair_marginals"),
    ("maxent.solve_maxent_s", "maxent.solve_maxent"),
    ("maxent.sample_codes_s", "maxent.sample_codes"),
    ("rongauss.fit_s", "rongauss.fit"),
    ("rongauss.sample_s", "rongauss.sample"),
    ("rongauss.pre_normalize_s", "rongauss.pre_normalize"),
    ("rongauss.center_and_renormalize_s", "rongauss.center_and_renormalize"),
    ("rongauss.make_ron_s", "rongauss.make_ron"),
    ("dp.dp_mean_s", "dp.dp_mean"),
    ("dp.dp_covariance_s", "dp.dp_covariance"),
    ("dp.psd_repair_s", "dp.psd_repair"),
    *((f"models.fit.{kind}_s", f"models.fit.{kind}") for kind in ZOO),
    ("models.predict_proba_s", "models.predict_proba"),
    ("metrics.evaluate_s", "metrics.evaluate"),
    ("metrics.lrd_s", "metrics.lrd"),
    ("metrics.auc_roc_s", "metrics.auc_roc"),
    ("audit.write_audit_s", "audit.write_audit"),
    ("audit.read_audit_s", "audit.read_audit"),
    ("cli.import_s", "cli.import"),
    ("cli.main_s", "cli.main"),
)

COUNT_METRICS = (
    "binarize.entries", "binarize.bits", "binarize.distinct_queries",
    "maxent.iterations", "maxent.support", "maxent.solution_gap",
    "rongauss.d_eff", "rongauss.p",
    "dp.calls", "models.fit.calls", "models.predict_proba.calls",
    "metrics.auc_roc.calls", "metrics.aucroc_best", "metrics.lrd",
)


def _span_name(name, args, kwargs):
    if name == "models.fit":
        kind = args[0] if args else kwargs.get("kind")
        return f"models.fit.{kind}"
    return name


def _distinct_rows(codes) -> int:
    import numpy as np

    packed = np.packbits(np.ascontiguousarray(codes, dtype=np.uint8), axis=1)
    return len(np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel()))


def _solution_gap(solution, constraints) -> float:
    support = solution.distribution.support
    probs = solution.distribution.probs
    c = support[:, constraints.protected_bit] == 1
    y = support[:, constraints.label_bit] == 1
    rate0 = probs[~c & y].sum() / probs[~c].sum()
    rate1 = probs[c & y].sum() / probs[c].sum()
    return float(abs(rate0 - rate1))


def _probe(name, args, kwargs, result, values):
    """Counts and values read from a call's arguments and result."""
    if name == "binarize.build_codebook":
        values["binarize.entries"] = int(result[1].entry_count())
        values["binarize.bits"] = int(result[1].m)
    elif name == "binarize.decode_codes":
        values["binarize.distinct_queries"] = _distinct_rows(args[0])
    elif name == "maxent.solve_maxent":
        values["maxent.iterations"] = int(result.iterations)
        values["maxent.support"] = len(result.distribution.support)
        values["maxent.solution_gap"] = _solution_gap(result, args[1])
    elif name == "rongauss.fit":
        values["rongauss.d_eff"] = int(result.d_eff)
        values["rongauss.p"] = int(result.projection.p)
    elif name.startswith("dp."):
        values["dp.calls"] = values.get("dp.calls", 0) + 1
    elif name.startswith("models.fit."):
        values["models.fit.calls"] = values.get("models.fit.calls", 0) + 1
    elif name == "models.predict_proba":
        values["models.predict_proba.calls"] = values.get("models.predict_proba.calls", 0) + 1
    elif name == "metrics.auc_roc":
        values["metrics.auc_roc.calls"] = values.get("metrics.auc_roc.calls", 0) + 1
    elif name == "metrics.evaluate":
        values["metrics.aucroc_best"] = float(result.aucroc_best)
        values["metrics.lrd"] = float(result.lrd)


class Tracer:
    """Records nested spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._pending: list[tuple] = []

    def span(self, name: str) -> "_Span":
        """Context manager recording one span, nested under the open one."""
        return _Span(self, name)

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, func, name):
        tracer = self

        def traced(*args, **kwargs):
            span_name = _span_name(name, args, kwargs)
            with tracer.span(span_name):
                result = func(*args, **kwargs)
            tracer._pending.append((span_name, args, kwargs, result))
            return result

        traced.__wrapped__ = func
        return traced

    def run_probes(self) -> dict:
        """Counts and values of the calls since the last probe pass.

        Call it after the traced operation, so probe work is charged to
        no span and not to the operation's wall time.
        """
        values: dict = {}
        for span_name, args, kwargs, result in self._pending:
            _probe(span_name, args, kwargs, result, values)
        self._pending.clear()
        return values

    def write(self, path, values: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing, "values": values}, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.id = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else None
        self.record = {"id": self.id, "name": self.name, "parent": parent,
                       "start": time.monotonic(), "cpu_start": time.process_time()}
        tracer.spans.append(self.record)
        tracer._stack.append(self.id)
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.monotonic()
        self.record["cpu_end"] = time.process_time()
        self.tracer._stack.pop()
        return False


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def self_waits(spans: list[dict]) -> dict[int, float]:
    """Span id -> self time spent off CPU (self wall minus self CPU time).

    Only spans whose children ran in the same process are meaningful:
    CPU time of a child process is not visible to its parent.
    """
    walls = self_times(spans)
    child_cpu: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_cpu[s["parent"]] = child_cpu.get(s["parent"], 0.0) + s["cpu_end"] - s["cpu_start"]
    return {s["id"]: walls[s["id"]] - ((s["cpu_end"] - s["cpu_start"]) - child_cpu.get(s["id"], 0.0))
            for s in spans}


def merge_values(into: dict, values: dict) -> None:
    """Add call counts; other values keep the latest reading."""
    for key, value in values.items():
        into[key] = into.get(key, 0) + value if key.endswith(".calls") else value


def merge(spans: list[dict], child_spans: list[dict], parent: int) -> None:
    """Append a child process's spans, renumbered, its roots under `parent`."""
    offset = len(spans)
    for s in child_spans:
        s = dict(s, id=s["id"] + offset)
        s["parent"] = parent if s["parent"] is None else s["parent"] + offset
        spans.append(s)


def op_summary(spans: list[dict], root: int, values: dict) -> dict:
    """Per-layer self time, wait, counts and coverage of one traced operation.

    `spans` holds the operation's spans, `root` is the id of the span
    around the whole operation and `values` its probe readings.
    """
    selfs = self_times(spans)
    waits = self_waits(spans)
    by_name: dict[str, float] = {}
    wait_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s["id"] == root:
            continue
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + selfs[s["id"]]
        layer = s["name"].split(".", 1)[0]
        if layer in wait_by_layer:
            wait_by_layer[layer] += waits[s["id"]]
    record = next(s for s in spans if s["id"] == root)
    wall = record["end"] - record["start"]
    out = {metric: by_name.get(span, 0.0) for metric, span in SELF_TIME_METRICS}
    out.update({f"{layer}.wait_s": wait for layer, wait in wait_by_layer.items()})
    out.update({name: values.get(name, 0) for name in COUNT_METRICS})
    # `cli.main` wraps the layers it calls, so its self time is the part of
    # the operation that no listed layer accounts for.
    uncovered = selfs[root] + by_name.get("cli.main", 0.0)
    out["trace.wall_s"] = wall
    out["trace.coverage"] = 1.0 - uncovered / wall
    return out


def median_summary(summaries: list[dict]) -> dict:
    """Median of each per-operation value across traced operations."""
    keys = summaries[0].keys()
    return {k: statistics.median(s[k] for s in summaries) for k in keys}
