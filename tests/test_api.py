"""The public surface: what ``__all__`` exports resolves, the names that
moved to the test oracles or were deleted stay out of the package, and the
library's own refusals name their cause."""

import dataclasses
import importlib

import pytest

from grushin.assembler import AssembledSpectrum, assemble
from grushin.concentration import Strip, min_ratio
from grushin.core import (
    ExactFamilyProfile,
    IntegerOverflowError,
    InvariantViolation,
    Perturbation,
    Potential,
    PotentialSyntaxError,
    PreconditionError,
    StructuredProfile,
    parse_exact_scalar,
    parse_potential,
    sup_on_interval,
)
from grushin.exact_family import factorize, multiplicity_factorization
from grushin.perturb import perturbed_potential, track_branches
from grushin.schrod1d import Grid, solve_on_grid

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


def _table(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    return f"table:{path},ext=1"


_PAIR = [[1, 0], [-1, 0]]


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: Grid("hex", 16), InvariantViolation, "unknown grid kind 'hex'"),
    (lambda tmp: Grid("line", 16, 0.0), InvariantViolation, "line grid needs L > 0"),
    (lambda tmp: solve_on_grid(parse_potential("power:gamma=1"), 1, 9, Grid("line", 16, 1.0)),
     PreconditionError, "grid with 16 nodes cannot resolve 9 levels"),
    (lambda tmp: solve_on_grid(perturbed_potential(parse_potential("torus:gamma=1"),
                                                   Perturbation(0.5, 1.5, 0.2), 0.1),
                               1, 1, Grid("circle", 4100)),
     PreconditionError, "circle grids are capped at 4096 nodes"),
    (lambda tmp: Potential("sphere", 1.0, StructuredProfile()), InvariantViolation,
     "unknown geometry 'sphere'"),
    (lambda tmp: Potential("cylinder", 0.0, StructuredProfile()), InvariantViolation,
     "gamma must be positive"),
    (lambda tmp: Potential("torus", 1.0, ExactFamilyProfile(s2=parse_exact_scalar("1"))),
     InvariantViolation, "exact family is the cylinder with gamma=1"),
    (lambda tmp: sup_on_interval(abs, 1.0, 1.0), PreconditionError, "empty interval"),
    (lambda tmp: min_ratio(0, Strip(0.0, 1.0)), InvariantViolation, "k must be nonzero"),
    (lambda tmp: factorize(0), PreconditionError, "factorization needs a positive integer"),
    (lambda tmp: factorize(10**12 + 1), IntegerOverflowError,
     "1000000000001 exceeds the trial-division limit 1000000000000"),
    (lambda tmp: multiplicity_factorization(-3), PreconditionError, "eigenvalues are positive"),
    (lambda tmp: AssembledSpectrum(1.0, [1.0], [0, 4], _PAIR, 1, "exact"), InvariantViolation,
     "starts must run from 0 to the contributor count, one per line"),
    (lambda tmp: AssembledSpectrum(1.0, [1.0], [0, 2], _PAIR, 1, "exact", keys=[1, 2]),
     InvariantViolation, "keys must give one key per line"),
    # what solve1d parses a table: potential with
    (lambda tmp: parse_potential(_table(tmp, "x,v\n-1,1\n1,nan\n")), PotentialSyntaxError,
     "sampled potential nodes must be finite (at position 6)"),
], ids=["grid-kind", "grid-length", "grid-levels", "dense-cap", "geometry", "gamma",
        "exact-torus", "empty-interval", "mode-zero", "factorize-zero", "factorize-limit",
        "negative-value", "starts", "keys", "table-nan"])
def test_library_refusals_name_their_cause(tmp_path, call, error, message):
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert str(exc.value) == message
