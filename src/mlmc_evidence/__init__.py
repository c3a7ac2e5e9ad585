"""Unbiased multilevel Monte Carlo estimation of the log evidence and its
gradients, with a two-objective training loop for latent-variable models."""

from .errors import (
    ContractViolation,
    DivergenceError,
    ResourceGuardExceeded,
    UnsupportedOperation,
)
from .estimator import (
    EstimatorConfig,
    EvidenceEstimate,
    estimate_log_evidence,
    sample_levels,
)
from .gradients import GradientEstimate, estimate_gradients
from .models import (
    BernoulliGaussianModel,
    Dataset,
    GaussianConjugateModel,
    LatentVariableModel,
    load_dataset,
    save_dataset,
)
from .trainer import RunRecord, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "BernoulliGaussianModel",
    "ContractViolation",
    "Dataset",
    "DivergenceError",
    "EstimatorConfig",
    "EvidenceEstimate",
    "GaussianConjugateModel",
    "GradientEstimate",
    "LatentVariableModel",
    "ResourceGuardExceeded",
    "RunRecord",
    "TrainConfig",
    "UnsupportedOperation",
    "estimate_gradients",
    "estimate_log_evidence",
    "load_dataset",
    "sample_levels",
    "save_dataset",
    "train",
]
