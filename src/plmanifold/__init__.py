"""Robust partially linear regression with manifold-valued smoothing covariates.

The model is y = x' beta + g(t) + error where t lives on a circle, sphere,
cylinder or Euclidean space.  Estimation is a three-step procedure: robust
local M-smoothing over the manifold, a weighted regression M-step on the
smoothed residuals, and assembly of the nonparametric component.  Classical
(least-squares) counterparts, robust cross-validation bandwidth selection,
sandwich-covariance inference and a Monte Carlo harness are included.
"""

from .bandwidth import (
    GridPointDiagnostic,
    default_grid,
    rcv_score,
    select_bandwidth,
)
from .inference import (
    AsymptoticCovariance,
    confidence_interval,
    estimate_covariance,
    wald_test,
)
from .manifold import (
    Manifold,
    circle_coords,
    cylinder_coords,
    injectivity_radius,
    pairwise_distances,
)
from .plm import PLMDataset, PLMFit, fit, predict_g
from .robust_linear import (
    GMConfig,
    RegressionResult,
    WeightFunction,
    gm_estimate,
    ols_estimate,
    residual_scale,
)
from .simulation import (
    GeneratedSample,
    SimulationConfig,
    SimulationReport,
    boxplot_csv,
    generate_sample,
    replication_rng,
    run_campaign,
    sample_to_csv,
)
from .smoother import (
    ScoreFunction,
    local_m_estimate,
    local_mad,
    weighted_median,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "GridPointDiagnostic",
    "default_grid",
    "rcv_score",
    "select_bandwidth",
    "AsymptoticCovariance",
    "confidence_interval",
    "estimate_covariance",
    "wald_test",
    "Manifold",
    "circle_coords",
    "cylinder_coords",
    "injectivity_radius",
    "pairwise_distances",
    "PLMDataset",
    "PLMFit",
    "fit",
    "predict_g",
    "GMConfig",
    "RegressionResult",
    "WeightFunction",
    "gm_estimate",
    "ols_estimate",
    "residual_scale",
    "GeneratedSample",
    "SimulationConfig",
    "SimulationReport",
    "boxplot_csv",
    "generate_sample",
    "replication_rng",
    "run_campaign",
    "sample_to_csv",
    "ScoreFunction",
    "local_m_estimate",
    "local_mad",
    "weighted_median",
    "errors",
    "__version__",
]
