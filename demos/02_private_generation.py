"""Generate a private synthetic census extract and score it end to end.

Runs the full pipeline at epsilon = 1 on the bundled training extract,
then evaluates the synthetic rows against the held-out extract: utility
(train-on-synthetic-test-on-real AUCROC), fairness of models trained on
the output, and a discriminator check that the rows are not memorized.
An audit file documenting the run lands next to this script.
"""

import time
from pathlib import Path

from ffpdg.audit import write_audit
from ffpdg.data import load_csv, load_schema
from ffpdg.dp import PrivacyBudget
from ffpdg.metrics import evaluate
from ffpdg.rongauss import GenerationConfig, generate_with_artifacts

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "data"


def main():
    schema = load_schema(DATA / "adult.schema")
    train = load_csv(DATA / "adult_sample.csv", schema)
    holdout = load_csv(DATA / "adult_holdout.csv", schema)

    config = GenerationConfig(budget=PrivacyBudget.from_total(1.0), seed=0, bins=1)
    start = time.perf_counter()
    result = generate_with_artifacts(train, config=config)
    seconds = time.perf_counter() - start
    print(f"generated {result.dataset.n} synthetic rows in {seconds:.2f}s "
          f"at epsilon={config.budget.epsilon_total}")

    audit_path = HERE / "02_private_generation.audit"
    write_audit(audit_path, result, config, seconds)
    print(f"audit written to {audit_path.name}; its [model] record alone "
          f"re-samples the release\n")

    report = evaluate(train, holdout, result.dataset, seed=0)
    print(report.to_text())
    print()
    print("for scripts:")
    print(report.to_kv())


if __name__ == "__main__":
    main()
