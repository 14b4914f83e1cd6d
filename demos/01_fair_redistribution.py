"""Walk through the fair re-distribution stage on the bundled census extract.

The generator first discretizes the data, then re-weights the binary codes
so the positive-label rate matches across protected groups, and finally
maps fair codes back to representative rows. This script isolates that
stage: privacy noise is turned way down (epsilon = 1e6) so every change
you see comes from the re-weighting, not from the Laplace mechanism.
"""

from pathlib import Path

import numpy as np

from ffpdg.data import load_csv, load_schema
from ffpdg.dp import PrivacyBudget
from ffpdg.rongauss import GenerationConfig, generate_with_artifacts

DATA = Path(__file__).resolve().parents[1] / "data"

schema = load_schema(DATA / "adult.schema")
train = load_csv(DATA / "adult_sample.csv", schema)
protected = schema.names[schema.protected_index]
label = schema.names[schema.label_index]
print(f"loaded {train.n} rows, protected={protected}, label={label}")

config = GenerationConfig(budget=PrivacyBudget.from_total(1e6), seed=0, bins=1)
result = generate_with_artifacts(train, config=config)

r0, r1 = result.rates_before
f0, f1 = result.rates_after
print(f"\npositive-label rate by group, observed:  "
      f"P(y|c=0)={r0:.3f}  P(y|c=1)={r1:.3f}  gap={abs(r1 - r0):.3f}")
print(f"positive-label rate by group, fair codes: "
      f"P(y|c=0)={f0:.3f}  P(y|c=1)={f1:.3f}  gap={abs(f1 - f0):.3f}")

sol = result.solution
print(f"\ndual solver: {sol.iterations} iterations, residual {sol.residual:.2e}, "
      f"converged={sol.converged}")
trace = sol.objective_trace
print("dual objective head:", np.round(trace[:4], 6))
print("dual objective tail:", np.round(trace[-3:], 6))
assert np.all(np.diff(trace) <= 1e-12), "dual objective must never increase"

print(f"\ncodebook: {result.codebook.entry_count()} distinct codes "
      f"over {result.codebook.m} bits")

# the fair intermediate sample is real rows re-drawn under the fair weights
fair = result.fair_dataset
y, c = fair.column(label), fair.column(protected)
print(f"fair sample check: P(y|c=0)={y[c == 0].mean():.3f} "
      f"P(y|c=1)={y[c == 1].mean():.3f} (n={fair.n})")
