"""Spectral toolkit for Baouendi-Grushin operators on the infinite cylinder
and the flat torus, built on separation of variables into the fibered 1D
operators -u'' + k^2 V(x) u."""

__version__ = "0.1.0"

from .core import (
    ExactScalar,
    Perturbation,
    Potential,
    Tolerances,
    eval_potential,
    parse_potential,
)
from .schrod1d import EigenPair, Grid, solve_eigen
from .exact_family import (
    SpectrumLine,
    counting_function,
    multiplicity_enumeration,
    multiplicity_factorization,
    weyl_residual,
)
from .assembler import AssembledSpectrum, assemble, check_property_p
from .concentration import Strip, concentration_certificate, min_ratio
from .perturb import (
    Branch,
    check_continuity_bound,
    check_gap_avoidance,
    hellmann_feynman,
    splitting_experiment,
    track_branches,
)

__all__ = [
    "__version__",
    "ExactScalar",
    "Perturbation",
    "Potential",
    "Tolerances",
    "eval_potential",
    "parse_potential",
    "EigenPair",
    "Grid",
    "solve_eigen",
    "SpectrumLine",
    "counting_function",
    "multiplicity_enumeration",
    "multiplicity_factorization",
    "weyl_residual",
    "AssembledSpectrum",
    "assemble",
    "check_property_p",
    "Strip",
    "concentration_certificate",
    "min_ratio",
    "Branch",
    "check_continuity_bound",
    "check_gap_avoidance",
    "hellmann_feynman",
    "splitting_experiment",
    "track_branches",
]
