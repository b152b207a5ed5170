"""Dyadic-grid sampling of (fractional) Brownian sheets, multidimensional
Haar/Faber-Schauder coefficient tables, and numerical chargeability
diagnostics."""

__version__ = "0.3.0"

from .dyadic import DyadicCube, Figure, Rectangle, figure_perimeter
from .haar import haar_matrix
from .increments import CoefficientTable, GridSample, coefficient_table, cube_increments
from .sampler import (
    HurstVector,
    SamplerError,
    fbm_kernel,
    sample_sheet,
    sample_standard_sheet,
    sheet_covariance,
)
from .criteria import CriterionReport, moment_scaling_fit
from .experiment import ExperimentConfig, counterexample_figure, run

__all__ = [
    "DyadicCube",
    "Figure",
    "Rectangle",
    "figure_perimeter",
    "haar_matrix",
    "CoefficientTable",
    "GridSample",
    "coefficient_table",
    "cube_increments",
    "HurstVector",
    "SamplerError",
    "fbm_kernel",
    "sample_sheet",
    "sample_standard_sheet",
    "sheet_covariance",
    "CriterionReport",
    "moment_scaling_fit",
    "ExperimentConfig",
    "counterexample_figure",
    "run",
]
