"""Audit file: a text record that makes a generation run inspectable.

One generate run produces one audit file holding the run configuration,
the codebook layout, the max-entropy solve diagnostics, the group
positive rates before and after the fair stage, the privacy-budget
accounting line, and the fitted generative model itself. The model is
the release, so its `[model]` section is one JSON record of it: the
mode, the public schema (as `schema_to_text`), the projection W, the
noised mean, the Gaussian cells (weights, means, covariances) with each
cell's class value in classification, and one post-processing entry
(rate and quantile grid) per schema column. Nothing that follows from the schema and W is
stored: the column layout, d_eff, p and the label are derived on
reading. json writes each float as its repr, the shortest text that
reads back to the same float64, so sampling from a parsed audit
reproduces sampling from the in-memory model. The parsed model passes
the same checks as a fitted one (`RonGaussModel.__post_init__`).
"""

from __future__ import annotations

import json

import numpy as np

from .data import Schema, schema_from_text, schema_to_text
from .errors import DataError, FfpdgError
from .maxent import FAIR_PRIOR_SMOOTH
from .rongauss import (
    CATEGORICAL_NOISE_SIGMA,
    ColumnPost,
    GenerationConfig,
    GenerationResult,
    RonGaussModel,
    RonProjection,
)

FORMAT_LINE = "ffpdg audit 4"

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


def model_section(model: RonGaussModel) -> list[str]:
    """`[model]` and one JSON record of the model's fields."""
    record = {
        "mode": model.mode,
        "schema": schema_to_text(model.schema),
        "mu": model.mu_dp.tolist(),
        "W": model.projection.W.tolist(),
        "weights": model.weights_dp.tolist(),
        "means": [mean.tolist() for mean in model.means_dp],
        "sigma": [sigma.tolist() for sigma in model.sigma_dp],
        "class_values": list(model.class_values),
        "post": [vars(post) for post in model.postprocess],
    }
    return ["[model]", json.dumps(record)]


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _schema(text) -> Schema:
    if not isinstance(text, str):
        raise TypeError(f"expected schema text, got {type(text).__name__}")
    return schema_from_text(text)


# how each field of the model record is read back
_RECORD_FIELDS = {
    "mode": lambda mode: mode,
    "schema": _schema,
    "mu": _floats,
    "W": RonProjection,
    "weights": _floats,
    "means": lambda means: tuple(_floats(mean) for mean in means),
    "sigma": lambda blocks: tuple(_floats(sigma) for sigma in blocks),
    "class_values": lambda values: tuple(float(v) for v in values),
    "post": lambda posts: tuple(
        ColumnPost(rate=float(q["rate"]), quantile_grid=tuple(_floats(q["quantile_grid"]))) for q in posts),
}


def parse_model_section(lines: list[str]) -> RonGaussModel:
    """The model `model_section` rendered. A record that is not JSON, a
    missing field or one of the wrong type raises a DataError naming the
    field; fields that do not fit together fail `RonGaussModel`'s checks."""
    name = None
    try:
        record = json.loads("\n".join(lines[1:]))
        fields = {}
        for name, read in _RECORD_FIELDS.items():
            fields[name] = read(record[name])
    except (KeyError, TypeError, ValueError) as exc:
        where = "audit model record" + (f" field {name!r}" if name else "")
        raise DataError(f"{where}: {f'missing {exc}' if isinstance(exc, KeyError) else exc}") from None
    return RonGaussModel(
        mode=fields["mode"], schema=fields["schema"], projection=fields["W"], mu_dp=fields["mu"],
        weights_dp=fields["weights"], means_dp=fields["means"], sigma_dp=fields["sigma"],
        postprocess=fields["post"], class_values=fields["class_values"],
    )


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
        f"categorical_noise_sigma={_fmt(CATEGORICAL_NOISE_SIGMA)}",
        f"generate_seconds={seconds:.3f}",
        "",
        "[codebook]",
    ]
    lines += result.codebook.summary().splitlines()
    lines += [
        f"entries={result.codebook.entry_count()}",
        "",
        "[maxent]",
        f"bits={result.codebook.m}",
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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not lines or lines[0] != FORMAT_LINE:
        raise DataError(f"{path}: not an audit file (missing format line)")
    sections = _section_map(lines)
    for needed in ("config", "codebook", "maxent", "rates", "privacy", "model"):
        if needed not in sections:
            raise DataError(f"{path}: audit file missing [{needed}] section")
    try:
        model = parse_model_section(["[model]", *sections["model"]])
    except FfpdgError as exc:
        raise DataError(f"{path}: {exc}") from None
    return {"sections": sections, "model": model}
