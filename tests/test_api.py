"""The public surface: what ``__all__`` exports resolves, and the names that
moved to the test oracles or were deleted stay out of the package."""

import dataclasses
import importlib

import pytest

from grushin.assembler import assemble
from grushin.core import Perturbation, parse_potential
from grushin.perturb import track_branches

MODULES = ["core", "schrod1d", "exact_family", "assembler", "concentration", "perturb", "cli"]

# module -> names that left it (the oracles now live in tests/helpers.py)
GONE_FROM_MODULES = {
    "grushin": ["ModeCoefficients", "kappa_coefficients", "ratio_closed_form",
                "hermite_eigenfunction", "render_potential", "ExactEigenvalue",
                "exact_eigenvalue", "k_cutoff", "mollified_indicator"],
    "grushin.exact_family": ["ExactEigenvalue", "exact_eigenvalue", "level_key", "_key",
                             "_sorted_contributors"],
    "grushin.assembler": ["ExactEigenvalue", "exact_eigenvalue", "_exact_level", "k_cutoff",
                          "_ground_constant", "_sorted_contributors", "_quotients"],
    "grushin.cli": ["_line_row", "_line_json"],
    "grushin.concentration": ["ModeCoefficients", "kappa_coefficients",
                              "ratio_closed_form", "min_ratio_witness", "cmath"],
    "grushin.schrod1d": ["hermite_eigenfunction", "_offdiag", "_initial_line_grid",
                         "_solve_even_circle", "_tridiagonals"],
    "grushin.core": ["render_potential", "validate_potential", "SUP_SAMPLES",
                     "mollified_indicator", "_bump_mass", "_bump", "_GL_NODES"],
    "grushin.perturb": ["_match", "ConvergenceError", "_weighted_density", "_node_terms",
                        "_wrap_angle"],
}

# (module, class) -> attributes and fields that were deleted
GONE_FROM_CLASSES = {
    ("core", "ExactScalar"): ["from_fraction"],
    ("core", "StructuredProfile"): ["w_tilde"],
    ("concentration", "Certificate"): ["witness_value"],
    ("assembler", "AssembledSpectrum"): ["tolerances", "total_count"],
    ("perturb", "Branch"): ["potential", "perturbation"],
    ("core", "Perturbation"): ["w", "sup_plain"],
    ("core", "Tolerances"): ["cluster_abs"],
}


@pytest.mark.parametrize("module", ["grushin"] + [f"grushin.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ names missing {name!r}"


def test_moved_and_deleted_names_are_gone():
    for module, names in GONE_FROM_MODULES.items():
        mod = importlib.import_module(module)
        for name in names:
            assert not hasattr(mod, name), f"{module}.{name} still exists"
    for (module, cls_name), names in GONE_FROM_CLASSES.items():
        cls = getattr(importlib.import_module(f"grushin.{module}"), cls_name)
        members = set(dir(cls)) | {f.name for f in dataclasses.fields(cls)}
        for name in names:
            assert name not in members, f"{cls_name}.{name} still exists"


def test_branch_is_frozen():
    (branch,) = track_branches(parse_potential("power:gamma=1"),
                               Perturbation(-1.0, 1.0, 0.2), 1, [0], 0.01, steps=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        branch.t_grid = branch.t_grid[:1]
    assert isinstance(branch.vectors, tuple)
    for array in (branch.t_grid, branch.lambdas, branch.err_ests, *branch.vectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 99.0


@pytest.mark.parametrize("potential, mode", [("shifted:s2=1", "exact"),
                                             ("shifted:s2=irr:sqrt2", "exact"),
                                             ("power:gamma=1", "numeric")])
def test_spectrum_is_frozen(potential, mode):
    spectrum = assemble(parse_potential(potential), 8.0, mode=mode)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spectrum.values = spectrum.values[:1]
    columns = [spectrum.values, spectrum.starts, spectrum.contributors]
    if mode == "exact":
        columns.append(spectrum.keys)
    for column in columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 99
