"""Dyadic-grid sampling of (fractional) Brownian sheets, multidimensional
Haar/Faber-Schauder coefficient tables, and numerical chargeability
diagnostics."""

__version__ = "0.2.0"

from .dyadic import (
    DyadicCube,
    Figure,
    Rectangle,
    children,
    cube_box,
    figure_perimeter,
    figure_volume,
)
from .exact import Rad2, pow2_half
from .haar import (
    HaarIndex,
    StepFunction,
    haar_child_values,
    haar_matrix,
    haar_matrix_entry,
    indicator_expansion,
    integrate_haar_step,
)
from .increments import (
    CoefficientTable,
    GridSample,
    coefficient_table,
    cube_increments,
    figure_increment,
    rectangle_increment,
)
from .sampler import (
    HurstVector,
    SamplerError,
    fbm_kernel,
    increment_covariance,
    sample_sheet,
    sample_standard_sheet,
    sheet_covariance,
)
from .criteria import CriterionReport, moment_scaling_fit
from .charge import (
    GridField,
    PolynomialField,
    field_from_json,
    flux,
    linear_field,
    schauder_partial_apply,
    step_inner_product,
)
from .experiment import ExperimentConfig, counterexample_figure, run

__all__ = [
    "DyadicCube",
    "Figure",
    "Rectangle",
    "children",
    "cube_box",
    "figure_perimeter",
    "figure_volume",
    "Rad2",
    "pow2_half",
    "HaarIndex",
    "StepFunction",
    "haar_child_values",
    "haar_matrix",
    "haar_matrix_entry",
    "indicator_expansion",
    "integrate_haar_step",
    "CoefficientTable",
    "GridSample",
    "coefficient_table",
    "cube_increments",
    "figure_increment",
    "rectangle_increment",
    "HurstVector",
    "SamplerError",
    "fbm_kernel",
    "increment_covariance",
    "sample_sheet",
    "sample_standard_sheet",
    "sheet_covariance",
    "CriterionReport",
    "moment_scaling_fit",
    "GridField",
    "PolynomialField",
    "field_from_json",
    "flux",
    "linear_field",
    "schauder_partial_apply",
    "step_inner_product",
    "ExperimentConfig",
    "counterexample_figure",
    "run",
]
