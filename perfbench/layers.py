"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps the public functions of each grushin module under
the names the calling modules look them up by (modules import by name, so
``grushin.perturb.solve_eigen`` and ``grushin.schrod1d.solve_eigen`` are
wrapped separately), plus the LAPACK entry points as ``schrod1d`` reaches
them. Targets a later version of the program no longer has are skipped and
their metrics read 0. ``restore`` puts every original back.

Each call becomes a span: name, start and end (wall seconds), parent span,
operation id and a small info dict of counts taken at the boundary. Spans stay in memory until
the run ends; ``layer_metrics`` derives per-pass calls, inclusive and self
seconds, counts and yields from them.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> every (grushin module, attribute) it is looked up by
_TARGETS = {
    "schrod1d.solve_on_grid": [("schrod1d", "solve_on_grid"), ("perturb", "solve_on_grid")],
    "schrod1d.solve_eigen": [("schrod1d", "solve_eigen"), ("perturb", "solve_eigen"),
                             ("assembler", "solve_eigen"), ("cli", "solve_eigen")],
    "schrod1d.solve_levels_below": [("schrod1d", "solve_levels_below"),
                                    ("assembler", "solve_levels_below")],
    "schrod1d.truncation_length": [("schrod1d", "truncation_length")],
    "core.eval_potential": [("core", "eval_potential"), ("schrod1d", "eval_potential"),
                            ("perturb", "eval_potential")],
    "core.sup_on_interval": [("core", "sup_on_interval")],
    "assembler.k_cutoff": [("assembler", "k_cutoff")],
    "assembler.assemble": [("assembler", "assemble"), ("cli", "assemble")],
    "assembler.check_property_p": [("assembler", "check_property_p"),
                                   ("cli", "check_property_p")],
    "exact_family.enumerate_exact_pairs": [("exact_family", "enumerate_exact_pairs"),
                                           ("assembler", "enumerate_exact_pairs")],
    "exact_family.multiplicity_enumeration": [("exact_family", "multiplicity_enumeration"),
                                              ("cli", "multiplicity_enumeration"),
                                              ("perturb", "multiplicity_enumeration")],
    "exact_family.counting_function": [("exact_family", "counting_function")],
    "concentration.concentration_certificate": [("concentration", "concentration_certificate"),
                                                ("cli", "concentration_certificate")],
    "perturb.track_branches": [("perturb", "track_branches"), ("cli", "track_branches")],
    "perturb.assignment": [("perturb", "linear_sum_assignment")],
    "perturb.hellmann_feynman": [("perturb", "hellmann_feynman"), ("cli", "hellmann_feynman")],
    "perturb.check_gap_avoidance": [("perturb", "check_gap_avoidance"),
                                    ("cli", "check_gap_avoidance")],
    "perturb.check_continuity_bound": [("perturb", "check_continuity_bound"),
                                       ("cli", "check_continuity_bound")],
    "perturb.splitting_experiment": [("perturb", "splitting_experiment"),
                                     ("cli", "splitting_experiment")],
}

_LAPACK = {"eigh_tridiagonal": "schrod1d.lapack_tridiag", "eigh": "schrod1d.lapack_dense"}

# span names whose results leave the schrod1d layer when called from outside it
_SCHROD_PUBLIC = ("schrod1d.solve_on_grid", "schrod1d.solve_eigen", "schrod1d.solve_levels_below")


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _vectors(result) -> int:
    """Eigenvector count in a (values, vectors) pair or a list of EigenPairs."""
    if isinstance(result, tuple) and len(result) == 2 and np.ndim(result[1]) == 2:
        return int(np.shape(result[1])[1])
    if isinstance(result, list):
        return sum(1 for p in result if np.size(getattr(p, "u", ())) > 0)
    return 0


def _info(name, args, kwargs, result, reference):
    """Counts taken at the span boundary, or None."""
    if name in ("schrod1d.lapack_tridiag", "schrod1d.lapack_dense"):
        return {"nodes": int(np.shape(args[0])[0]), "vectors": _vectors(result)}
    if name == "schrod1d.solve_on_grid":
        grid = _arg(args, kwargs, 3, "grid")
        return {"nodes": int(getattr(grid, "npoints", 0)), "out": _vectors(result)}
    if name == "schrod1d.solve_eigen":
        info = {"levels": len(result), "out": _vectors(result)}
        effect = reference(_arg(args, kwargs, 0, "potential"), result)
        if effect is not None:
            info["effectivity"] = effect
        return info
    if name == "schrod1d.solve_levels_below":
        return {"levels": len(result), "out": _vectors(result)}
    if name in ("core.eval_potential", "core.perturbation_eval"):
        return {"points": int(np.size(args[1]))}
    if name == "assembler.assemble":
        return {"entries": sum(ln.multiplicity for ln in result.lines),
                "lines": len(result.lines), "ambiguous": len(result.warnings)}
    if name == "assembler.check_property_p":
        return {"records": len(result.collisions)}
    if name == "exact_family.enumerate_exact_pairs":
        return {"pairs": len(result)}
    if name == "concentration.concentration_certificate":
        return {"lines_checked": int(result.lines_checked)}
    if name == "perturb.track_branches":
        return {"steps_accepted": len(result[0].t_grid) - 1 if result else 0}
    return None


class _Proxy:
    """A module stand-in that serves some attributes from ``overrides``."""

    def __init__(self, real, overrides):
        self._real = real
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._real, name)


class Tracer:
    def __init__(self, reference):
        """``reference(potential, eigenpairs)`` returns the largest true error
        over estimated error for pairs with a known exact value, or None."""
        self.reference = reference
        self.spans: list[list] = []  # [name, start, end, parent, op_id, info]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.op_id = None

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            spans[idx][5] = _info(name, args, kwargs, result, self.reference)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import scipy
        import scipy.linalg

        pkg = {name: sys.modules.get(f"grushin.{name}") for name in
               ("core", "schrod1d", "assembler", "exact_family", "concentration", "perturb", "cli")}
        for span, places in _TARGETS.items():
            for mod_name, attr in places:
                mod = pkg[mod_name]
                if mod is not None and callable(mod.__dict__.get(attr)):
                    self._set(mod, attr, self.wrap(span, mod.__dict__[attr]))
        perturbation = getattr(pkg["core"], "Perturbation", None)
        if perturbation is not None and "__call__" in perturbation.__dict__:
            self._set(perturbation, "__call__",
                      self.wrap("core.perturbation_eval", perturbation.__dict__["__call__"]))

        # LAPACK as schrod1d looks it up: a name imported from scipy.linalg,
        # or an attribute path through the scipy or scipy.linalg module
        schrod = pkg["schrod1d"]
        if schrod is None:
            return
        linalg = {attr: self.wrap(span, getattr(scipy.linalg, attr))
                  for attr, span in _LAPACK.items()}
        for key, value in list(schrod.__dict__.items()):
            for attr in _LAPACK:
                if value is getattr(scipy.linalg, attr):
                    self._set(schrod, key, linalg[attr])
            if value is scipy.linalg:
                self._set(schrod, key, _Proxy(scipy.linalg, linalg))
            elif value is scipy:
                self._set(schrod, key, _Proxy(scipy, {"linalg": _Proxy(scipy.linalg, linalg)}))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, op_id, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "info": info}) + "\n")


# (layer, fields): calls, inclusive seconds "s", self seconds "self_s", and
# counts taken at the layer boundary
_LAYER_FIELDS = (
    ("schrod1d.lapack_tridiag", ("calls", "s", "nodes")),
    ("schrod1d.lapack_dense", ("calls", "s", "nodes")),
    ("schrod1d.solve_on_grid", ("calls", "nodes_max", "self_s")),
    ("schrod1d.solve_eigen", ("calls", "self_s")),
    ("schrod1d.truncation_length", ("calls", "s")),
    ("schrod1d.solve_levels_below", ("levels_solved", "levels_kept", "level_yield")),
    ("core.eval_potential", ("calls", "points", "self_s")),
    ("core.perturbation_eval", ("calls", "points", "self_s")),
    ("core.sup_on_interval", ("calls", "s")),
    ("assembler.k_cutoff", ("calls", "s")),
    ("assembler.assemble", ("calls", "self_s", "entries", "lines", "ambiguous")),
    ("assembler.check_property_p", ("calls", "self_s", "records")),
    ("exact_family.enumerate_exact_pairs", ("calls", "s", "pairs")),
    ("exact_family.multiplicity_enumeration", ("calls", "s")),
    ("exact_family.counting_function", ("calls", "s")),
    ("concentration.concentration_certificate", ("calls", "s", "lines_checked")),
    ("perturb.track_branches", ("calls", "self_s", "steps_accepted", "solves", "step_yield")),
    ("perturb.assignment", ("calls", "s")),
    ("perturb.hellmann_feynman", ("calls", "self_s")),
    ("perturb.check_gap_avoidance", ("calls", "self_s")),
    ("perturb.check_continuity_bound", ("calls", "self_s")),
    ("perturb.splitting_experiment", ("calls", "self_s")),
    ("cli.run", ("calls", "self_s")),
)

# Every per-layer metric, with its unit; counts and seconds are per traced pass.
LAYER_METRICS = {
    f"{layer}.{field}": ("s" if field in ("s", "self_s")
                         else "1" if field.endswith("yield") else "count")
    for layer, fields in _LAYER_FIELDS for field in fields
}
LAYER_METRICS.update({
    "schrod1d.vectors_computed": "count",
    "schrod1d.vectors_returned": "count",
    "schrod1d.vector_yield": "1",
    "schrod1d.grids_per_solve": "1",
    "schrod1d.effectivity_max": "1",
    "cli.output_bytes": "B",
    "ops.fail_ratio": "1",
    "probe.failed": "count",
    "probe.s": "s",
    "oracle.max_err_ratio": "1",
    "trace.overhead_ratio": "1",
})


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the recorded spans (ratios are not per pass)."""
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    sums = defaultdict(float)
    nodes_max = 0
    names = [s[0] for s in spans]

    def ancestors(idx):
        parent = spans[idx][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    for idx, (name, start, end, parent, _op, info) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_time[name] += dur
        if parent >= 0:
            self_time[names[parent]] -= dur
        if all(names[a] != name for a in ancestors(idx)):
            inclusive[name] += dur
        info = info or {}
        for key in ("nodes", "points", "entries", "lines", "ambiguous", "records", "pairs",
                    "lines_checked", "steps_accepted"):
            if key in info:
                sums[f"{name}.{key}"] += info[key]
        if name.startswith("schrod1d.lapack"):
            sums["vectors_computed"] += info.get("vectors", 0)
        if name == "schrod1d.solve_on_grid":
            nodes_max = max(nodes_max, info.get("nodes", 0))
        outer = names[parent] if parent >= 0 else ""
        if name in _SCHROD_PUBLIC and not outer.startswith("schrod1d."):
            sums["vectors_returned"] += info.get("out", 0)
        if name == "schrod1d.solve_eigen":
            if outer == "schrod1d.solve_levels_below":
                sums["levels_solved"] += info.get("levels", 0)
            if "effectivity" in info:
                sums["effectivity_max"] = max(sums["effectivity_max"], info["effectivity"])
        if name == "schrod1d.solve_levels_below":
            sums["levels_kept"] += info.get("levels", 0)
        if name == "schrod1d.solve_on_grid":
            if any(names[a] == "schrod1d.solve_eigen" for a in ancestors(idx)):
                sums["grids_in_solves"] += 1
            if outer == "perturb.track_branches":
                sums["branch_solves"] += 1
        if name == "perturb.assignment" and any(
                names[a] == "perturb.track_branches" for a in ancestors(idx)):
            sums["branch_attempts"] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    per = 1.0 / max(passes, 1)
    out = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[layer] * per
        elif field == "s":
            out[metric] = inclusive[layer] * per
        elif field == "self_s":
            out[metric] = self_time[layer] * per
        elif metric in sums:
            out[metric] = sums[metric] * per
    out.update({
        "schrod1d.solve_on_grid.nodes_max": float(nodes_max),
        "schrod1d.vectors_computed": sums["vectors_computed"] * per,
        "schrod1d.vectors_returned": sums["vectors_returned"] * per,
        "schrod1d.vector_yield": ratio(sums["vectors_returned"], sums["vectors_computed"]),
        "schrod1d.solve_levels_below.levels_solved": sums["levels_solved"] * per,
        "schrod1d.solve_levels_below.levels_kept": sums["levels_kept"] * per,
        "schrod1d.solve_levels_below.level_yield": ratio(sums["levels_kept"],
                                                         sums["levels_solved"]),
        "schrod1d.grids_per_solve": ratio(sums["grids_in_solves"], calls["schrod1d.solve_eigen"]),
        "schrod1d.effectivity_max": sums["effectivity_max"],
        "perturb.track_branches.solves": sums["branch_solves"] * per,
        "perturb.track_branches.step_yield": ratio(sums["perturb.track_branches.steps_accepted"],
                                                   sums["branch_attempts"]),
    })
    for metric in LAYER_METRICS:
        out.setdefault(metric, 0.0)  # a layer this version of the program lacks
    return out
