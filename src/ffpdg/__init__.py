"""Fair, differentially private synthetic tabular data.

The pipeline re-distributes binarized records toward statistical parity
with a maximum-entropy reweighting, then fits and samples a noised
Gaussian behind a random orthonormal projection. Metrics cover utility
(train-on-synthetic / test-on-real AUC), group fairness (DEO, DSP,
disparate impact), and a real-vs-synthetic discriminator score.
"""

from .binarize import CodeBook, build_codebook, decode_codes
from .data import ColumnSpec, Dataset, Schema, load_csv, load_schema, save_csv, save_schema
from .dp import PrivacyBudget, dp_covariance, dp_mean, laplace_sample, psd_repair
from .errors import (
    ConvergenceError,
    DataError,
    FeasibilityError,
    FfpdgError,
    SchemaError,
    StageError,
)
from .maxent import (
    DiscreteDistribution,
    MaxEntSolution,
    ParityConstraints,
    empirical_prior,
    fair_marginals,
    sample_codes,
    solve_maxent,
)
from .metrics import EvalReport, auc_roc, deo, disparate_impact, dsp, evaluate, lrd, tstr
from .models import Classifier, ZOO, fit as fit_classifier, predict_proba
from .rongauss import (
    GenerationConfig,
    GenerationResult,
    RonGaussModel,
    RonProjection,
    center_and_renormalize,
    fit,
    generate,
    generate_with_artifacts,
    make_ron,
    pre_normalize,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "CodeBook", "build_codebook", "decode_codes",
    "ColumnSpec", "Dataset", "Schema",
    "load_csv", "load_schema", "save_csv", "save_schema",
    "PrivacyBudget", "dp_covariance", "dp_mean", "laplace_sample", "psd_repair",
    "ConvergenceError", "DataError", "FeasibilityError", "FfpdgError",
    "SchemaError", "StageError",
    "DiscreteDistribution", "MaxEntSolution", "ParityConstraints",
    "empirical_prior", "fair_marginals", "sample_codes", "solve_maxent",
    "EvalReport", "auc_roc", "deo", "disparate_impact", "dsp", "evaluate",
    "lrd", "tstr",
    "Classifier", "ZOO", "fit_classifier", "predict_proba",
    "GenerationConfig", "GenerationResult", "RonGaussModel", "RonProjection",
    "center_and_renormalize", "fit", "generate", "generate_with_artifacts",
    "make_ron", "pre_normalize", "sample",
    "__version__",
]
