"""Robust partially linear regression with manifold-valued smoothing covariates.

The model is y = x' beta + g(t) + error where t lives on a circle, sphere,
cylinder or Euclidean space.  Estimation is a three-step procedure: robust
local M-smoothing over the manifold, a weighted regression M-step on the
smoothed residuals, and assembly of the nonparametric component.  Classical
(least-squares) counterparts, robust cross-validation bandwidth selection,
sandwich-covariance inference and a Monte Carlo harness are included.
"""

from .bandwidth import (
    BandwidthGrid,
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
    ManifoldPoint,
    circle_coords,
    cylinder_coords,
    geodesic_distance,
    injectivity_radius,
    pairwise_distances,
    volume_density,
)
from .plm import PLMDataset, PLMFit, fit, predict_g, predict_y
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
    export_boxplot_data,
    generate_sample,
    replication_rng,
    run_campaign,
    sample_to_csv,
)
from .smoother import (
    LocalFitConfig,
    ScoreFunction,
    conditional_ecdf,
    fit_smoother,
    local_m_estimate,
    local_mad,
    pelletier_weights,
    weighted_median,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BandwidthGrid",
    "GridPointDiagnostic",
    "default_grid",
    "rcv_score",
    "select_bandwidth",
    "AsymptoticCovariance",
    "confidence_interval",
    "estimate_covariance",
    "wald_test",
    "Manifold",
    "ManifoldPoint",
    "circle_coords",
    "cylinder_coords",
    "geodesic_distance",
    "injectivity_radius",
    "pairwise_distances",
    "volume_density",
    "PLMDataset",
    "PLMFit",
    "fit",
    "predict_g",
    "predict_y",
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
    "export_boxplot_data",
    "generate_sample",
    "replication_rng",
    "run_campaign",
    "sample_to_csv",
    "LocalFitConfig",
    "ScoreFunction",
    "conditional_ecdf",
    "fit_smoother",
    "local_m_estimate",
    "local_mad",
    "pelletier_weights",
    "weighted_median",
    "errors",
    "__version__",
]
