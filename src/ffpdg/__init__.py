"""Fair, differentially private synthetic tabular data.

The pipeline re-distributes binarized records toward statistical parity
with a maximum-entropy reweighting, then fits and samples a noised
Gaussian behind a random orthonormal projection. Metrics cover utility
(train-on-synthetic / test-on-real AUC), group fairness (DEO, DSP,
disparate impact), and a real-vs-synthetic discriminator score.

The package is its modules: import from `ffpdg.data`, `ffpdg.rongauss`,
`ffpdg.metrics` and the rest. `import ffpdg` loads none of them.
"""

__version__ = "0.1.0"
