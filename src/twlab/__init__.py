"""Tracy-Widom beta=6 toolkit.

Computes the beta=6 soft-edge distribution from the Hastings-McLeod
Painleve II solution and its auxiliary gauge trajectory, verifies every
algebraic identity and the governing linear PDE numerically, and checks
the whole pipeline against two independent oracles (an integral-operator
determinant at beta=2 and tridiagonal-ensemble Monte Carlo at any beta).
"""

__version__ = "0.1.0"

from . import asymptotics, auxsys, distribution, laxframe, oracles, painleve2, specfun
from .asymptotics import TailModel, eval_c0, eval_tail_logF, extract_constant
from .auxsys import (
    AuxSolution,
    LaxParams,
    eval_r_and_integrals,
    integrate_linear,
    integrate_nonlinear,
    reconstruct_params,
)
from .distribution import DistTable, eval_F2, eval_F6, quantile, tabulate
from .laxframe import PsiField, edge_pde_residual, psi11_field
from .oracles import EdgeSampleSet, airy_kernel_fredholm, ks_distance, sample_edge
from .painleve2 import Painleve2Solution, eval_series, solve_hastings_mcleod
from .specfun import AiryValue, QuadratureRule, airy, gauss_legendre

__all__ = [
    "__version__",
    "AiryValue",
    "AuxSolution",
    "DistTable",
    "EdgeSampleSet",
    "LaxParams",
    "Painleve2Solution",
    "PsiField",
    "QuadratureRule",
    "TailModel",
    "airy",
    "airy_kernel_fredholm",
    "edge_pde_residual",
    "eval_F2",
    "eval_F6",
    "eval_c0",
    "eval_r_and_integrals",
    "eval_series",
    "eval_tail_logF",
    "extract_constant",
    "gauss_legendre",
    "integrate_linear",
    "integrate_nonlinear",
    "ks_distance",
    "psi11_field",
    "quantile",
    "reconstruct_params",
    "sample_edge",
    "solve_hastings_mcleod",
    "tabulate",
]
