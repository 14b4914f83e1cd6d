"""Command-line surface: generate, evaluate, bench, inspect.

Each command reads the parsed argparse namespace and imports only what it
runs; `generate` and `bench` share the flags that build a GenerationConfig.
Exit codes: 0 success, 1 runtime or domain error, 2 usage error.
Every command is deterministic given --seed.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .data import Dataset, load_csv, load_schema, save_csv
from .errors import FfpdgError


def _generation_config(args, **more):
    """The budget and GenerationConfig named by the shared generation flags."""
    from . import dp, rongauss

    try:
        mu_part, sigma_part = (float(t) for t in args.epsilon_split.split(":"))
    except ValueError:
        raise FfpdgError(f"bad --epsilon-split {args.epsilon_split!r}, expected MU:SIGMA") from None
    if not (0 < mu_part < np.inf and 0 < sigma_part < np.inf):
        raise FfpdgError("--epsilon-split parts must be positive and finite")
    # mu_part + sigma_part can overflow; the ratio overflows only to a share of 0
    mu_fraction = 1.0 / (1.0 + sigma_part / mu_part)
    if not 0.0 < mu_fraction < 1.0:
        raise FfpdgError(f"--epsilon-split {args.epsilon_split!r} gives the mean a share of "
                         f"{mu_fraction:g}, which must be strictly between 0 and 1")
    budget = dp.PrivacyBudget.from_total(args.epsilon, mu_fraction=mu_fraction)
    return rongauss.GenerationConfig(budget=budget, p=args.p, bins=args.bins, mode=args.mode,
                                     seed=args.seed, **more)


def _load(args, path: str) -> Dataset:
    return load_csv(path, load_schema(args.schema))


def cmd_generate(args) -> int:
    from . import audit as audit_mod
    from . import rongauss

    config = _generation_config(args, n_out=args.n_out, rate=args.rate)
    # pop hands the table over: generate_with_artifacts holds the only
    # reference and frees the table once the fair codes are decoded
    tables = [_load(args, args.input)]
    start = time.perf_counter()
    result = rongauss.generate_with_artifacts(tables.pop(), config=config)
    seconds = time.perf_counter() - start
    save_csv(result.dataset, args.output)
    if args.audit:
        audit_mod.write_audit(args.audit, result, config, seconds)
    print(f"generate_seconds={seconds:.3f}")
    print(f"rows={result.dataset.n} output={args.output}")
    return 0


def cmd_evaluate(args) -> int:
    from . import metrics

    real_train = _load(args, args.input)
    real_test = _load(args, args.test)
    synthetic = _load(args, args.synthetic)
    report = metrics.evaluate(real_train, real_test, synthetic, seed=args.seed, folds=args.folds)
    text = report.to_text() + "\n\n" + report.to_kv() + "\n"
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def bench_sizes(n: int, max_n: int | None = None) -> list[int]:
    """Subsample ladder 1000, 2000, 4000, ... capped at the data size."""
    top = min(n, max_n) if max_n is not None else n
    if top < 1000:
        return [top]
    sizes = []
    k = 1000
    while k <= top:
        sizes.append(k)
        k *= 2
    return sizes


def fit_growth_exponent(sizes, seconds) -> float:
    """Slope of log time against log size."""
    logs = np.log(np.asarray(sizes, dtype=float))
    logt = np.log(np.maximum(np.asarray(seconds, dtype=float), 1e-6))
    slope, _ = np.polyfit(logs, logt, 1)
    return float(slope)


def cmd_bench(args) -> int:
    from . import rongauss

    if args.max_n is not None and args.max_n < 1:
        raise FfpdgError(f"--max-n must be at least 1, got {args.max_n}")
    dataset = _load(args, args.input)
    config = _generation_config(args)
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(dataset.n)
    sizes = bench_sizes(dataset.n, args.max_n)
    times = []
    for size in sizes:
        subset = dataset.take(order[:size])
        start = time.perf_counter()
        rongauss.generate(subset, config=config)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        print(f"n={size} seconds={elapsed:.3f}")
    if len(sizes) >= 2:
        exponent = fit_growth_exponent(sizes, times)
        print(f"growth_exponent={exponent:.3f}")
        print(f"growth_exponent_ok={int(exponent <= 2.5)}")
    else:
        print("growth_exponent=nan")
        print("growth_exponent_ok=1")
    return 0


def cmd_inspect(args) -> int:
    from . import audit as audit_mod

    parsed = audit_mod.read_audit(args.audit)
    sections = parsed["sections"]
    for name in ("config", "codebook", "maxent", "rates", "privacy"):
        print(f"[{name}]")
        for line in sections[name]:
            if line:
                print(line)
        print()
    model = parsed["model"]
    print("[model]")
    print(f"mode={model.mode} d_eff={model.d_eff} p={model.projection.p} "
          f"classes={len(model.class_values) or '-'}")
    defect = model.projection.orthonormality_defect()
    print(f"projection_orthonormality_defect={defect:.3e}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
    "inspect": cmd_inspect,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffpdg",
        description="Fair differentially private synthetic tabular data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--schema", required=True, help="schema text file")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--input", required=True, help="real training CSV")

    def add_generation(p):
        p.add_argument("--epsilon", type=float, default=1.0, help="privacy budget (default 1)")
        p.add_argument("--epsilon-split", default="0.3:0.7",
                       help="mean:covariance budget split (default 0.3:0.7)")
        p.add_argument("--p", type=int, default=None,
                       help="projected dimension (default min(d_eff-1, 8))")
        p.add_argument("--bins", type=int, default=1, help="bits per continuous column (default 1)")
        p.add_argument("--mode", default="auto",
                       choices=["auto", "unsupervised", "classification", "regression"])

    g = sub.add_parser("generate", help="synthesize a fair private dataset")
    add_common(g)
    add_generation(g)
    g.add_argument("--output", required=True, help="synthetic CSV destination")
    g.add_argument("--audit", help="write the audit file here")
    g.add_argument("--n-out", type=int, default=None, help="synthetic rows (default: input size)")
    g.add_argument("--rate", type=float, default=1.0,
                   help="statistical-rate target, 1 = exact parity (default 1)")

    e = sub.add_parser("evaluate", help="score synthetic against real data")
    add_common(e)
    e.add_argument("--test", required=True, help="real held-out CSV")
    e.add_argument("--synthetic", required=True, help="synthetic CSV")
    e.add_argument("--folds", type=int, default=5, help="discriminator CV folds (default 5)")
    e.add_argument("--report", help="also write the report here")

    b = sub.add_parser("bench", help="time generation over a size ladder")
    add_common(b)
    add_generation(b)
    b.add_argument("--max-n", type=int, default=None, help="cap the ladder at this size")

    i = sub.add_parser("inspect", help="print a generation audit")
    i.add_argument("--audit", required=True, help="audit file from generate")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (FfpdgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
