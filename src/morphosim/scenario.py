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
import os
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .elasticity import METHODS, SolverOptions
from .errors import ParseError, ValidationError
from .growth import GuardConfig, TimeGrid
from .materials import (CheckReport, ConstantNutrientModel,
                        DetRatioNutrientModel, PolarWellEnergy,
                        ProductGrowthLaw, StressModulatedGrowthLaw,
                        ZeroGrowthLaw, check_coercivity,
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
    """Validated, executable description of one coupled simulation."""

    name: str
    mesh: object
    energy: object
    growth_law: object
    nutrient_model: object
    f_nodes: list                      # 2 ASTs, prescribed boundary position
    g_nodes: list = None               # 2 ASTs or None, boundary traction
    fn_node: object = None             # AST or None, nutrient Dirichlet datum
    gn_node: object = None             # AST or None, nutrient flux datum
    g0_kind: str = "identity"          # identity | constant | gradient
    g0_value: object = None            # matrix or list of 2 ASTs
    time: TimeGrid = None
    guards: GuardConfig = field(default_factory=GuardConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    substeps: bool = False

    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        self._f_eval = ex.vector_evaluator(self.f_nodes)
        self._g_eval = ex.vector_evaluator(self.g_nodes) if self.g_nodes else None
        self._fn_eval = ex.scalar_evaluator(self.fn_node) if self.fn_node else None
        self._gn_eval = ex.scalar_evaluator(self.gn_node) if self.gn_node else None
        if self.g0_kind == "gradient":
            self._g0_grad = ex.gradient_evaluator(self.g0_value)
        else:
            self._g0_grad = None

    # -- data bound at a fixed time ----------------------------------------

    def dirichlet_at(self, t):
        return lambda pts: self._f_eval(t, pts)

    def traction_at(self, t):
        if self._g_eval is None:
            return None
        return lambda pts, normals: self._g_eval(t, pts, normals)

    def nutrient_dirichlet_at(self, t):
        if self._fn_eval is None:
            return None
        return lambda pts: self._fn_eval(t, pts)

    def nutrient_flux_at(self, t):
        if self._gn_eval is None:
            return None
        return lambda pts, normals: self._gn_eval(t, pts, normals)

    # -- initial growth ------------------------------------------------------

    def growth_sampler(self):
        """Analytic sampler for the initial growth field, or None when the
        field is given nodally (constant matrices count as analytic)."""
        if self.g0_kind == "identity":
            return lambda pts: np.broadcast_to(
                np.eye(2), np.asarray(pts).shape[:-1] + (2, 2)).copy()
        if self.g0_kind == "constant":
            M = np.asarray(self.g0_value, dtype=float)
            return lambda pts: np.broadcast_to(
                M, np.asarray(pts).shape[:-1] + (2, 2)).copy()
        if self.g0_kind == "gradient":
            return lambda pts: self._g0_grad(0.0, pts)
        raise ValueError("unknown growth specification %r" % (self.g0_kind,))

    def initial_growth_nodal(self):
        return self.growth_sampler()(self.mesh.vertices)


# ---------------------------------------------------------------------------
# model registries


def build_energy(model_id, params):
    if model_id == "polar_well":
        return PolarWellEnergy(
            p=float(params.get("p", 2.0)),
            admissible_radius=float(params.get("admissible_radius", 0.5)))
    raise ParseError("unknown energy model %r" % (model_id,))


def build_growth_law(law_id, params, energy):
    if law_id == "none":
        return ZeroGrowthLaw()
    if law_id == "product":
        return ProductGrowthLaw()
    if law_id == "stress_modulated":
        return StressModulatedGrowthLaw(
            energy,
            gamma=float(params.get("gamma", 1.0)),
            eta=params.get("eta", "linear"),
            mu=params.get("mu", "identity"),
            mu_coeff=float(params.get("mu_coeff", 0.0)))
    raise ParseError("unknown growth law %r" % (law_id,))


def _parse_matrix(text):
    rows = [r.strip() for r in text.split(";") if r.strip()]
    M = np.array([[float(v) for v in row.split()] for row in rows])
    if M.shape == (1, 1):
        return float(M[0, 0])
    if M.shape != (2, 2):
        raise ParseError("expected a scalar or a 2x2 matrix, got %r" % text)
    return M


def build_nutrient_model(model_id, params):
    d0 = _parse_matrix(str(params.get("d0", "1.0")))
    beta0 = float(params.get("beta0", 0.0))
    nu = params.get("nu")
    nu = float(nu) if nu is not None else None
    models = {"det_ratio": DetRatioNutrientModel,
              "constant": ConstantNutrientModel}
    if model_id not in models:
        raise ParseError("unknown nutrient model %r" % (model_id,))
    return models[model_id](d0=d0, beta0=beta0, ellipticity_nu=nu)


# ---------------------------------------------------------------------------
# file loading


# every key a section may hold; any other key or section is a ParseError
_KEYS = {
    "mesh": {"source", "path", "nx", "ny", "x0", "y0", "x1", "y1", "mode",
             "elastic_dirichlet", "nutrient_dirichlet"},
    "energy": {"model", "p", "admissible_radius"},
    "growth": {"law", "gamma", "eta", "mu", "mu_coeff"},
    "nutrient": {"model", "d0", "beta0", "nu"},
    "boundary": {"f", "g", "f_n", "g_n"},
    "initial": {"g0"},
    "time": {"t_end", "dt", "t0", "substeps"},
    "guards": {"det_min", "norm_max"},
    "solver": {"method", "max_iterations", "warm_start"},
    "output": {"directory", "write_fields", "every"},
}


def _section(cp, name, path, required=True):
    if not cp.has_section(name):
        if required:
            raise ParseError("%s: missing [%s] section" % (path, name))
        return {}
    params = dict(cp.items(name))
    unknown = sorted(set(params) - _KEYS[name])
    if unknown:
        raise ParseError("%s: unknown key %r in [%s]"
                         % (path, unknown[0], name))
    return params


def _get_bool(params, key, default):
    value = params.get(key)
    if value is None:
        return default
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ParseError("boolean field %r has value %r" % (key, value))


def _build_mesh(params, base_dir, path):
    source = params.get("source", "rectangle").strip().lower()
    if source == "file":
        if "path" not in params:
            raise ParseError("%s: [mesh] source=file needs a 'path'" % path)
        return read_mesh(os.path.join(base_dir, params["path"]))
    if source != "rectangle":
        raise ParseError("%s: unknown mesh source %r" % (path, source))
    x0 = float(params.get("x0", 0.0))
    y0 = float(params.get("y0", 0.0))
    x1 = float(params.get("x1", 1.0))
    y1 = float(params.get("y1", 1.0))
    return rectangle_mesh(
        int(params.get("nx", 16)), int(params.get("ny", 16)),
        extent=((x0, y0), (x1, y1)),
        mode=params.get("mode", "crossed"),
        elastic_dirichlet=params.get("elastic_dirichlet", "all"),
        nutrient_dirichlet=params.get("nutrient_dirichlet", "all"))


def _parse_g0(text):
    text = text.strip()
    if text == "identity":
        return "identity", None
    if text.startswith("constant:"):
        return "constant", _parse_matrix(text[len("constant:"):])
    if text.startswith("gradient:"):
        body = text[len("gradient:"):]
        return "gradient", ex.parse_vector(body, 2, ex.POINT)
    raise ParseError("initial growth must be 'identity', 'constant: ...' or "
                     "'gradient: ...', got %r" % text)


def load_scenario(path):
    """Parse and assemble a scenario file.

    Raises ParseError for unreadable or malformed input, including a value
    that a model, the mesh generator or a config rejects (ValueError);
    model-assumption checks live in `validate_scenario`.
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
    try:
        return _build_scenario(cp, path)
    except ValueError as exc:
        raise ParseError("%s: invalid value (%s)" % (path, exc))


def _build_scenario(cp, path):
    base_dir = os.path.dirname(os.path.abspath(path))

    mesh = _build_mesh(_section(cp, "mesh", path), base_dir, path)

    epar = _section(cp, "energy", path, required=False)
    energy = build_energy(epar.get("model", "polar_well"), epar)

    gpar = _section(cp, "growth", path, required=False)
    growth_law = build_growth_law(gpar.get("law", "none"), gpar, energy)

    npar = _section(cp, "nutrient", path, required=False)
    nutrient_model = build_nutrient_model(npar.get("model", "det_ratio"), npar)

    bpar = _section(cp, "boundary", path)
    if "f" not in bpar:
        raise ParseError("%s: [boundary] needs the Dirichlet position 'f'"
                         % path)
    f_nodes = ex.parse_vector(bpar["f"], 2, ex.POINT)
    g_nodes = ex.parse_vector(bpar["g"], 2) if "g" in bpar else None
    fn_node = ex.parse(bpar["f_n"], ex.POINT) if "f_n" in bpar else None
    gn_node = ex.parse(bpar["g_n"]) if "g_n" in bpar else None

    ipar = _section(cp, "initial", path, required=False)
    g0_kind, g0_value = _parse_g0(ipar.get("g0", "identity"))

    tpar = _section(cp, "time", path)
    for key in ("t_end", "dt"):
        if key not in tpar:
            raise ParseError("%s: [time] needs %r" % (path, key))
    time_grid = TimeGrid(
        t_end=float(tpar["t_end"]),
        dt=float(tpar["dt"]),
        t0=float(tpar.get("t0", 0.0)))
    substeps = _get_bool(tpar, "substeps", False)

    gdpar = _section(cp, "guards", path, required=False)
    norm_max = gdpar.get("norm_max", "auto")
    guards = GuardConfig(
        det_min=float(gdpar.get("det_min", 0.1)),
        norm_max=None if str(norm_max).strip() == "auto" else float(norm_max))

    spar = _section(cp, "solver", path, required=False)
    solver = SolverOptions(
        method=spar.get("method", "fixed_point"),
        max_iterations=int(spar.get("max_iterations", 50)),
        warm_start=_get_bool(spar, "warm_start", True))
    if solver.method not in METHODS:
        raise ParseError("%s: unknown solver method %r" % (path, solver.method))

    opar = _section(cp, "output", path, required=False)
    output = OutputConfig(
        directory=opar.get("directory", "out"),
        write_fields=_get_bool(opar, "write_fields", True),
        every=int(opar.get("every", 1)))

    name = os.path.splitext(os.path.basename(path))[0]
    return Scenario(name=name, mesh=mesh, energy=energy,
                    growth_law=growth_law, nutrient_model=nutrient_model,
                    f_nodes=f_nodes, g_nodes=g_nodes, fn_node=fn_node,
                    gn_node=gn_node, g0_kind=g0_kind, g0_value=g0_value,
                    time=time_grid, guards=guards, solver=solver,
                    substeps=substeps, output=output)


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

    if has_nutrient_d and scenario.fn_node is None:
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
    min_det = float(np.min(np.linalg.det(G0)))
    dev = float(np.max(tensor.max_abs(G0 - np.eye(2))))
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
