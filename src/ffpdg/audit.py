"""Audit file: a text record that makes a generation run inspectable.

One generate run produces one audit file holding the run configuration,
the codebook layout, the max-entropy solve diagnostics, the group
positive rates before and after the fair stage, the privacy-budget
accounting line, and the fitted generative model itself. The model
section round-trips exactly (floats printed with %.17g), so sampling
from a parsed audit reproduces sampling from the in-memory model.
"""

from __future__ import annotations

import numpy as np

from .data import Schema, schema_from_text, schema_to_text
from .errors import DataError
from .rongauss import (
    FAIR_PRIOR_SMOOTH,
    ColumnCoding,
    ColumnPost,
    GenerationConfig,
    GenerationResult,
    RonGaussModel,
    RonProjection,
)

FORMAT_LINE = "ffpdg audit 1"

BUDGET_CAVEAT = (
    "the reported epsilon covers the noised mean and covariance releases; "
    "the fair re-weighting stage adds no noise of its own, and its end-to-end "
    "guarantee depends on the Lipschitz sensitivity of the max-entropy map "
    "to single-record changes"
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _vec(values) -> str:
    return " ".join(_fmt(v) for v in np.asarray(values, dtype=np.float64).ravel())


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split()], dtype=np.float64)


def model_section(model: RonGaussModel) -> list[str]:
    lines = ["[model]"]
    lines.append(f"mode={model.mode}")
    lines.append(f"d_eff={model.d_eff}")
    lines.append(f"p={model.projection.p}")
    lines.append(f"label={model.label_name if model.label_name is not None else '-'}")
    lines.append("[model.schema]")
    lines.extend(schema_to_text(model.schema).splitlines())
    lines.append("[model.encoding]")
    for c in model.encoding:
        coords = ",".join(str(i) for i in c.coords)
        suffix = f" levels:{'|'.join(c.levels)}" if c.levels else ""
        if c.kind == "continuous":
            suffix = f" range:{_fmt(c.lo)},{_fmt(c.hi)}"
        lines.append(f"column={c.name} {c.kind} {coords}{suffix}")
    lines.append("[model.mu]")
    lines.append(_vec(model.mu_dp))
    lines.append("[model.W]")
    for row in model.projection.W:
        lines.append(_vec(row))
    if model.mode == "classification":
        lines.append("[model.classes]")
        lines.append("values=" + " ".join(_fmt(v) for v in model.class_values))
        lines.append("weights=" + _vec(model.class_weights_dp))
        for i, m in enumerate(model.class_means_dp):
            lines.append(f"mean{i}=" + _vec(m))
    for i, sigma in enumerate(model.sigma_dp):
        lines.append(f"[model.sigma {i} {sigma.shape[0]}]")
        for row in sigma:
            lines.append(_vec(row))
    lines.append("[model.post]")
    for post in model.postprocess:
        if post.kind == "binary":
            lines.append(f"post={post.name} binary rate:{_fmt(post.rate)}")
        elif post.kind == "continuous":
            lines.append(f"post={post.name} continuous grid:{_vec(post.quantile_grid)}")
        else:
            lines.append(f"post={post.name} categorical -")
    return lines


def _section_map(lines: list[str]) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in lines:
        if line.startswith("["):
            current = line.strip("[]")
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return sections


def parse_model_section(lines: list[str]) -> RonGaussModel:
    sections = _section_map(lines)
    for needed in ("model", "model.schema", "model.encoding", "model.mu", "model.W", "model.post"):
        if needed not in sections:
            raise DataError(f"audit model section missing [{needed}]")
    head = dict(line.split("=", 1) for line in sections["model"] if "=" in line)
    mode = head["mode"]
    d_eff = int(head["d_eff"])
    p = int(head["p"])
    label = None if head["label"] == "-" else head["label"]
    schema = schema_from_text("\n".join(sections["model.schema"]))

    encoding = []
    for line in sections["model.encoding"]:
        body = line.split("=", 1)[1]
        levels = ()
        lo = hi = 0.0
        if " levels:" in body:
            body, levels_text = body.split(" levels:", 1)
            levels = tuple(levels_text.split("|"))
        elif " range:" in body:
            body, range_text = body.split(" range:", 1)
            lo, hi = (float(t) for t in range_text.split(","))
        name, kind, coords = body.rsplit(" ", 2)
        encoding.append(ColumnCoding(name, kind, tuple(int(i) for i in coords.split(",")),
                                     levels, lo=lo, hi=hi))

    mu = _parse_vec(sections["model.mu"][0])
    W = np.vstack([_parse_vec(l) for l in sections["model.W"]])
    projection = RonProjection(W=W, d=d_eff, p=p)

    class_values: tuple[float, ...] = ()
    weights = None
    class_means: tuple[np.ndarray, ...] = ()
    if "model.classes" in sections:
        kv = dict(line.split("=", 1) for line in sections["model.classes"])
        class_values = tuple(float(v) for v in kv["values"].split())
        weights = _parse_vec(kv["weights"])
        class_means = tuple(_parse_vec(kv[f"mean{i}"]) for i in range(len(class_values)))

    sigma_keys = sorted((k for k in sections if k.startswith("model.sigma")),
                        key=lambda k: int(k.split()[1]))
    sigmas = tuple(np.vstack([_parse_vec(l) for l in sections[k]]) for k in sigma_keys)
    if not sigmas:
        raise DataError("audit model section has no covariance blocks")

    posts = []
    for line in sections["model.post"]:
        body = line.split("=", 1)[1]
        name, kind, payload = body.split(" ", 2)
        if kind == "binary":
            posts.append(ColumnPost(name, kind, rate=float(payload.split(":", 1)[1])))
        elif kind == "continuous":
            posts.append(ColumnPost(name, kind,
                                    quantile_grid=tuple(_parse_vec(payload.split(":", 1)[1]))))
        else:
            posts.append(ColumnPost(name, kind))

    return RonGaussModel(
        mode=mode, schema=schema, encoding=tuple(encoding), d_eff=d_eff,
        projection=projection, mu_dp=mu, sigma_dp=sigmas,
        postprocess=tuple(posts), label_name=label,
        class_values=class_values, class_weights_dp=weights,
        class_means_dp=class_means,
    )


def render_audit(result: GenerationResult, config: GenerationConfig, seconds: float) -> str:
    sol = result.solution
    gap_before = abs(result.rates_before[0] - result.rates_before[1])
    gap_after = abs(result.rates_after[0] - result.rates_after[1])
    lines = [FORMAT_LINE, ""]
    lines += [
        "[config]",
        f"epsilon={_fmt(config.budget.epsilon_total)}",
        f"eps_mu={_fmt(config.budget.epsilon_mu)}",
        f"eps_sigma={_fmt(config.budget.epsilon_sigma)}",
        f"p={result.model.projection.p}",
        f"n_out={result.dataset.n}",
        f"bins={config.bins}",
        f"mode={result.model.mode}",
        f"seed={config.seed}",
        f"rate={_fmt(config.rate)}",
        f"smooth={_fmt(FAIR_PRIOR_SMOOTH)}",
        f"categorical_noise_sigma={_fmt(config.categorical_noise_sigma)}",
        f"generate_seconds={seconds:.3f}",
        "",
        "[codebook]",
    ]
    lines += result.codebook.summary().splitlines()
    lines += [
        f"entries={result.codebook.entry_count()}",
        "",
        "[maxent]",
        f"bits={result.binary.shape[1]}",
        f"residual={_fmt(sol.residual)}",
        f"iterations={sol.iterations}",
        f"converged={int(sol.converged)}",
        "lambda=" + _vec(sol.lam),
        "",
        "[rates]",
        f"before_c0={_fmt(result.rates_before[0])}",
        f"before_c1={_fmt(result.rates_before[1])}",
        f"after_c0={_fmt(result.rates_after[0])}",
        f"after_c1={_fmt(result.rates_after[1])}",
        f"gap_before={_fmt(gap_before)}",
        f"gap_after={_fmt(gap_after)}",
        "",
        "[privacy]",
        f"dp_reported=eps_mu+eps_sigma={_fmt(config.budget.epsilon_total)}",
        f"caveat={BUDGET_CAVEAT}",
        "",
    ]
    lines += model_section(result.model)
    return "\n".join(lines) + "\n"


def write_audit(path, result: GenerationResult, config: GenerationConfig, seconds: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_audit(result, config, seconds))


def read_audit(path) -> dict:
    """Parse an audit file into {sections, model}."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_LINE:
        raise DataError(f"{path}: not an audit file (missing format line)")
    sections = _section_map(lines)
    for needed in ("config", "codebook", "maxent", "rates", "privacy"):
        if needed not in sections:
            raise DataError(f"{path}: audit file missing [{needed}] section")
    model_lines = lines[lines.index("[model]"):] if "[model]" in lines else []
    model = parse_model_section(model_lines) if model_lines else None
    return {"sections": sections, "model": model, "text": text}
