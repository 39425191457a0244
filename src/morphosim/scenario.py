"""Scenario configuration: INI-style files with analytic-expression
boundary data, model registries, and sampled validation of all model
assumptions.

A scenario bundles everything one coupled run needs: the mesh (generated
or loaded), the energy/growth/nutrient models with their parameters, the
boundary data f, g, f_n, g_n as expressions of (t, x, y) (g and g_n may
also use the outward normal nx, ny), the initial growth field, the time
grid, guards, solver options, and output settings.
"""

import configparser
import inspect
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import expressions as ex
from .elasticity import METHODS, SolverOptions
from .errors import ParseError, ValidationError
from .growth import GuardConfig, TimeGrid
from .materials import (CheckReport, ConstantNutrientModel,
                        DetRatioNutrientModel, PolarWellEnergy,
                        ProductGrowthLaw, StressModulatedGrowthLaw,
                        ZeroGrowthLaw, _spatial_matrix, check_coercivity,
                        check_frame_indifference,
                        check_nutrient_assumptions,
                        check_nutrient_frame_indifference)
from .mesh import read_mesh, rectangle_mesh
from . import tensor


@dataclass
class OutputConfig:
    directory: str = "out"
    write_fields: bool = True
    every: int = 1

    def __post_init__(self):
        if self.every < 1:
            raise ValueError("output every must be >= 1")


@dataclass
class Scenario:
    """Validated, executable description of one coupled simulation: the
    boundary data `f`, `g`, `f_n`, `g_n` are evaluators of ``(t, points)``
    (`g` and `g_n` also of the normals) or None, and `g0` samples the
    initial growth tensor at stacked points."""

    name: str
    mesh: object
    energy: object
    growth_law: object
    nutrient_model: object
    f: object                          # prescribed boundary position
    g: object = None                   # boundary traction
    f_n: object = None                 # nutrient Dirichlet datum
    g_n: object = None                 # nutrient flux datum
    g0: object = partial(_spatial_matrix, np.eye(2))
    time: TimeGrid = None
    guards: GuardConfig = field(default_factory=GuardConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    substeps: bool = False

    output: OutputConfig = field(default_factory=OutputConfig)

    # -- data bound at a fixed time ----------------------------------------

    def dirichlet_at(self, t):
        return partial(self.f, t)

    def traction_at(self, t):
        return None if self.g is None else partial(self.g, t)

    def nutrient_dirichlet_at(self, t):
        return None if self.f_n is None else partial(self.f_n, t)

    def nutrient_flux_at(self, t):
        return None if self.g_n is None else partial(self.g_n, t)

    def initial_growth_nodal(self):
        return self.g0(self.mesh.vertices)


# ---------------------------------------------------------------------------
# file loading


_ENERGIES = {"polar_well": PolarWellEnergy}
_LAWS = {"none": ZeroGrowthLaw, "product": ProductGrowthLaw,
         "stress_modulated": StressModulatedGrowthLaw}
_NUTRIENTS = {"det_ratio": DetRatioNutrientModel,
              "constant": ConstantNutrientModel}
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


def _parse_bool(text):
    if text.lower() not in _BOOLEANS:
        raise ValueError("expected a boolean, got %r" % text)
    return _BOOLEANS[text.lower()]


def _one_of(names):
    def read(text):
        if text not in names:
            raise ValueError("expected one of %s, got %r"
                             % (", ".join(names), text))
        return text
    return read


def _parse_matrix(text):
    rows = [r.strip() for r in text.split(";") if r.strip()]
    M = np.array([[float(v) for v in row.split()] for row in rows])
    if M.shape == (1, 1):
        return float(M[0, 0])
    if M.shape != (2, 2):
        raise ParseError("expected a scalar or a 2x2 matrix, got %r" % text)
    return M


def _initial_growth(text):
    """The sampler of points that an initial-growth text describes."""
    kind, _, body = text.partition(":")
    if text == "identity":
        return partial(_spatial_matrix, np.eye(2))
    if kind == "constant":  # a 2x2 matrix, or s meaning s I
        return partial(_spatial_matrix, _parse_matrix(body))
    if kind == "gradient":
        grad = ex.gradient_evaluator(ex.parse_vector(body, 2, ex.POINT))
        return lambda pts: grad(0.0, pts)
    raise ParseError("initial growth must be 'identity', 'constant: ...' or "
                     "'gradient: ...', got %r" % text)


# the schema of scenario files: section -> key -> reader of its text; any
# other key or section is a ParseError
_KEYS = {
    "mesh": {"source": lambda s: _one_of(("rectangle", "file"))(s.lower()),
             "path": str, "nx": int, "ny": int,
             "x0": float, "y0": float, "x1": float, "y1": float,
             "mode": str, "elastic_dirichlet": str,
             "nutrient_dirichlet": str},
    "energy": {"model": _one_of(_ENERGIES), "p": float,
               "admissible_radius": float},
    "growth": {"law": _one_of(_LAWS), "gamma": float, "eta": str,
               "mu": str, "mu_coeff": float},
    "nutrient": {"model": _one_of(_NUTRIENTS), "d0": _parse_matrix,
                 "beta0": float, "nu": float},
    "boundary": {
        "f": lambda s: ex.vector_evaluator(ex.parse_vector(s, 2, ex.POINT)),
        "g": lambda s: ex.vector_evaluator(ex.parse_vector(s, 2)),
        "f_n": lambda s: ex.scalar_evaluator(ex.parse(s, ex.POINT)),
        "g_n": lambda s: ex.scalar_evaluator(ex.parse(s))},
    "initial": {"g0": _initial_growth},
    "time": {"t_end": float, "dt": float, "t0": float,
             "substeps": _parse_bool},
    "guards": {"det_min": float,
               "norm_max": lambda s: None if s == "auto" else float(s)},
    "solver": {"method": _one_of(METHODS), "max_iterations": int,
               "warm_start": _parse_bool},
    "output": {"directory": str, "write_fields": _parse_bool, "every": int},
}
# the keys of [mesh] that a rectangle reads; source = file reads `path`
_RECTANGLE_KEYS = set(_KEYS["mesh"]) - {"source", "path"}
_CORNERS = ("x0", "y0", "x1", "y1")


def _section(cp, name, path, required=True):
    """The keys the file sets in section `name`, each read by its reader."""
    if not cp.has_section(name):
        if required:
            raise ParseError("%s: missing [%s] section" % (path, name))
        return {}
    params = {}
    for key, text in cp.items(name):
        if key not in _KEYS[name]:
            raise ParseError("%s: unknown key %r in [%s]" % (path, key, name))
        try:
            params[key] = _KEYS[name][key](text)
        except (ValueError, ParseError) as exc:
            raise ParseError("%s: invalid value for %r in [%s] (%s)"
                             % (path, key, name, exc))
    return params


def _unread(path, section, keys, choice):
    """Reject `keys`, which the chosen law or mesh source never reads."""
    if keys:
        raise ParseError("%s: key %r in [%s] is not read with %s"
                         % (path, sorted(keys)[0], section, choice))


def _build(path, section, make, *args, **params):
    """``make(*args, **params)``, a value it rejects named by section."""
    try:
        return make(*args, **params)
    except ValueError as exc:
        raise ParseError("%s: invalid value in [%s] (%s)"
                         % (path, section, exc))


def _build_mesh(params, path):
    source = params.pop("source", "rectangle")
    reads = {"path"} if source == "file" else _RECTANGLE_KEYS
    _unread(path, "mesh", set(params) - reads, "source = " + source)
    if source == "file":
        if "path" not in params:
            raise ParseError("%s: [mesh] source=file needs a 'path'" % path)
        return read_mesh(os.path.join(os.path.dirname(os.path.abspath(path)),
                                      params["path"]))
    if set(params) & set(_CORNERS):
        # a corner the file leaves out keeps its place in the default extent
        extent = inspect.signature(rectangle_mesh).parameters["extent"]
        corners = [params.pop(key, default) for key, default
                   in zip(_CORNERS, sum(extent.default, ()))]
        params["extent"] = (tuple(corners[:2]), tuple(corners[2:]))
    return rectangle_mesh(params.pop("nx", 16), params.pop("ny", 16),
                          **params)


def load_scenario(path):
    """Parse and assemble a scenario file.

    Raises ParseError for unreadable or malformed input, including a value
    that a model, the mesh generator or a config rejects (named by file
    and section) and a key that the chosen growth law or mesh source never
    reads; a key the file leaves out takes the default of the constructor
    it sets.
    Model-assumption checks live in `validate_scenario`.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ParseError("cannot read scenario %s: %s" % (path, exc))
    except configparser.Error as exc:
        raise ParseError("malformed scenario %s: %s" % (path, exc))
    for name in cp.sections():
        if name not in _KEYS:
            raise ParseError("%s: unknown section [%s]" % (path, name))
    return _build_scenario(cp, path)


def _build_scenario(cp, path):
    mesh = _build(path, "mesh", _build_mesh, _section(cp, "mesh", path), path)

    epar = _section(cp, "energy", path, required=False)
    energy = _build(path, "energy", _ENERGIES[epar.pop("model", "polar_well")],
                    **epar)

    gpar = _section(cp, "growth", path, required=False)
    law = gpar.pop("law", "none")
    if law == "stress_modulated":
        growth_law = _build(path, "growth", StressModulatedGrowthLaw,
                            energy, **gpar)
    else:
        _unread(path, "growth", set(gpar), "law = %s" % law)
        growth_law = _LAWS[law]()

    npar = _section(cp, "nutrient", path, required=False)
    if "nu" in npar:
        npar["ellipticity_nu"] = npar.pop("nu")
    nutrient_model = _build(path, "nutrient",
                            _NUTRIENTS[npar.pop("model", "det_ratio")], **npar)

    data = _section(cp, "boundary", path)
    if "f" not in data:
        raise ParseError("%s: [boundary] needs the Dirichlet position 'f'"
                         % path)
    data.update(_section(cp, "initial", path, required=False))

    tpar = _section(cp, "time", path)
    for key in ("t_end", "dt"):
        if key not in tpar:
            raise ParseError("%s: [time] needs %r" % (path, key))
    if "substeps" in tpar:
        data["substeps"] = tpar.pop("substeps")
    time_grid = _build(path, "time", TimeGrid, **tpar)

    guards, solver, output = (
        _build(path, name, make, **_section(cp, name, path, required=False))
        for name, make in (("guards", GuardConfig), ("solver", SolverOptions),
                           ("output", OutputConfig)))

    name = os.path.splitext(os.path.basename(path))[0]
    return Scenario(name=name, mesh=mesh, energy=energy,
                    growth_law=growth_law, nutrient_model=nutrient_model,
                    time=time_grid, guards=guards, solver=solver,
                    output=output, **data)


# ---------------------------------------------------------------------------
# validation


def validate_scenario(scenario, samples=500, seed=0):
    """Sampled validation of every model assumption the scenario relies on.

    Returns one CheckReport per assumption; use `require_valid` to turn
    failures into a ValidationError.
    """
    reports = [
        check_frame_indifference(scenario.energy, samples=samples, seed=seed),
        check_coercivity(scenario.energy, samples=samples, seed=seed + 1),
        check_nutrient_assumptions(scenario.nutrient_model, samples=samples,
                                   seed=seed + 2),
        check_nutrient_frame_indifference(scenario.nutrient_model,
                                          samples=samples, seed=seed + 3),
    ]
    mesh = scenario.mesh

    # boundary structure
    has_elastic_d = bool(np.any(mesh.facet_elastic_dirichlet))
    reports.append(CheckReport("elastic_dirichlet_nonempty", has_elastic_d,
                               {"facets": int(np.sum(mesh.facet_elastic_dirichlet))}))

    has_nutrient_d = bool(np.any(mesh.facet_nutrient_dirichlet))
    qpts = mesh.quad_points()
    eyes = np.broadcast_to(np.eye(2), qpts.shape[:-1] + (2, 2))
    beta_ref = np.asarray(
        scenario.nutrient_model.coefficients(eyes, eyes, qpts)[1])
    absorbing = bool(np.any(beta_ref > 0.0))
    reports.append(CheckReport(
        "nutrient_uniqueness", has_nutrient_d or absorbing,
        {"dirichlet_facets": int(np.sum(mesh.facet_nutrient_dirichlet)),
         "max_absorption": float(np.max(beta_ref))}))

    if has_nutrient_d and scenario.f_n is None:
        reports.append(CheckReport("nutrient_dirichlet_data", False,
                                   {"reason": "facets tagged but f_n missing"}))

    # boundary data where the solves read them, over a few times: finite,
    # and the nutrient data non-negative
    times = [scenario.time.t0,
             0.5 * (scenario.time.t0 + scenario.time.t_end),
             scenario.time.t_end] if scenario.time else [0.0]
    data = {"f": (scenario.dirichlet_at,
                  (mesh.vertices[mesh.elastic_dirichlet_nodes()],)),
            "g": (scenario.traction_at,
                  _facet_midpoints(mesh, ~mesh.facet_elastic_dirichlet)),
            "f_n": (scenario.nutrient_dirichlet_at,
                    (mesh.vertices[mesh.nutrient_dirichlet_nodes()],)),
            "g_n": (scenario.nutrient_flux_at,
                    _facet_midpoints(mesh, ~mesh.facet_nutrient_dirichlet))}
    sampled = {name: [at(t)(*points) for t in times]
               for name, (at, points) in data.items()
               if at(times[0]) is not None}
    non_finite = [name for name, values in sampled.items()
                  if not all(np.all(np.isfinite(v)) for v in values)]
    reports.append(CheckReport("boundary_data_finite", not non_finite, {
        "checked": " ".join(sampled),
        "non_finite": " ".join(non_finite) or "none"}))
    for name, check in (("f_n", "nutrient_dirichlet_sign"),
                        ("g_n", "nutrient_flux_sign")):
        if name in sampled and sampled[name][0].size:
            worst = min(float(np.min(v)) for v in sampled[name])
            reports.append(CheckReport(check, worst >= 0.0,
                                       {"min_value": worst}))

    # initial growth admissibility
    G0 = scenario.initial_growth_nodal()
    min_det = float(np.min(tensor.det(G0)))
    dev = float(np.max(tensor.max_abs(G0, 1.0)))
    radius = scenario.energy.admissible_radius
    reports.append(CheckReport(
        "initial_growth", min_det > 0.0 and dev <= 0.5 * radius + 1e-12,
        {"min_det": min_det, "max_dev": dev, "half_radius": 0.5 * radius}))
    return reports


def _facet_midpoints(mesh, mask):
    """Midpoints and outward normals of the boundary facets in `mask`."""
    facets = mesh.facets[mask]
    return (0.5 * (mesh.vertices[facets[:, 0]] + mesh.vertices[facets[:, 1]]),
            mesh.facet_normals()[mask])


def require_valid(reports):
    failed = [r for r in reports if not r.passed]
    if failed:
        raise ValidationError(
            "scenario violates assumptions: "
            + "; ".join(str(r) for r in failed), reports=reports)
    return reports
