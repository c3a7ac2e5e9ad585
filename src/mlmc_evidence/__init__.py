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
    LevelDistribution,
    LevelEstimate,
    estimate_log_evidence,
    level_estimate,
    sample_levels,
)
from .gradients import GradientEstimate, estimate_gradients
from .logspace import StreamingMoments
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
    "LevelDistribution",
    "LevelEstimate",
    "ResourceGuardExceeded",
    "RunRecord",
    "StreamingMoments",
    "TrainConfig",
    "UnsupportedOperation",
    "estimate_gradients",
    "estimate_log_evidence",
    "level_estimate",
    "load_dataset",
    "sample_levels",
    "save_dataset",
    "train",
]
