"""Numerical laboratory for nonlinear potential theory on grids."""

__version__ = "0.1.0"

from .grid import (Field, Grid, Mask, Params, annulus_mask, ball_mask, cube_mask,
                   integrate, lp_norm)
from .kernels import bessel_kernel_table, riesz_gamma, riesz_kernel_table
from .maximal import a1_constant, maximal_function
from .potentials import Measure, potential, wolff_at_points, wolff_potential
from .solver import ProgramResult
from .capacity import capacity, choquet_integral, lq_cap_norm
from .spaces import (NormEstimate, WeightWitness, beta_functional, f_norm, kv_norm,
                     lambda_functional, m_norm, n_norm, otilde_norm)
from .families import DEFAULT_FAMILY_SEED
from .verify import ConstantReport, refinement_study, run_check

__all__ = [
    "Field", "Grid", "Mask", "Params", "annulus_mask", "ball_mask", "cube_mask",
    "integrate", "lp_norm",
    "bessel_kernel_table", "riesz_gamma", "riesz_kernel_table",
    "a1_constant", "maximal_function",
    "Measure", "potential", "wolff_at_points", "wolff_potential",
    "NormEstimate", "ProgramResult", "capacity", "choquet_integral", "f_norm",
    "lq_cap_norm",
    "WeightWitness", "beta_functional", "kv_norm", "lambda_functional", "m_norm",
    "n_norm", "otilde_norm",
    "DEFAULT_FAMILY_SEED",
    "ConstantReport", "refinement_study", "run_check",
]
