"""Built-in benchmark scenarios with analytically forced targets.

Every benchmark returns a BenchResult with one row per checked quantity;
`morphosim bench <name>` prints the table and maps the verdict (and any
guard/solver failure) to its exit code.
"""

import functools
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from . import growth as growth_mod, tensor
from .coupled import run_coupled
from .elasticity import (EquilibriumProblem, SolverOptions, solve_fixed_point,
                         solve_newton)
from .growth import GuardConfig, TimeGrid
from .materials import (DetRatioNutrientModel, PolarWellEnergy,
                        ProductGrowthLaw, ZeroGrowthLaw)
from .mesh import rectangle_mesh
from .nutrient import NutrientProblem, solve_nutrient
from .scenario import Scenario


@dataclass
class Metric:
    label: str
    value: float
    requirement: str
    ok: bool


@dataclass
class BenchResult:
    name: str
    passed: bool
    metrics: list = field(default_factory=list)
    trajectory: object = None
    runtime: float = 0.0

    def table(self):
        rows = ["%-4s %-38s %16s   %s" % ("ok" if m.ok else "FAIL", m.label,
                                          "%.6g" % m.value, m.requirement)
                for m in self.metrics]
        rows.append("%s %s (%.2f s)" % ("PASS" if self.passed else "FAIL",
                                        self.name, self.runtime))
        return "\n".join(rows)


def _metric(metrics, label, value, requirement, ok):
    metrics.append(Metric(label, float(value), requirement, bool(ok)))
    return ok


def _finish(name, metrics, t0, trajectory=None):
    passed = all(m.ok for m in metrics)
    return BenchResult(name, passed, metrics, trajectory,
                       time.perf_counter() - t0)


# ---------------------------------------------------------------------------


def identity_scenario(name, nx=16, dt=0.05, t_end=0.25):
    """Unstressed reference configuration: identity data, no growth."""
    mesh = rectangle_mesh(nx, nx)
    return Scenario(
        name=name, mesh=mesh, energy=PolarWellEnergy(),
        growth_law=ZeroGrowthLaw(),
        nutrient_model=DetRatioNutrientModel(d0=1.0, beta0=0.0),
        f=ex.vector_evaluator(ex.parse_vector("x, y", 2)),
        f_n=ex.scalar_evaluator(ex.parse("1")),
        time=TimeGrid(t_end=t_end, dt=dt))


def bench_stress_free_reference(scenario=None):
    """Identity boundary data and unit growth must stay exactly at rest."""
    t0 = time.perf_counter()
    scenario = scenario or SCENARIOS["stress_free_reference"]()
    traj = run_coupled(scenario)
    metrics = []
    if traj.failed:
        _metric(metrics, "completed", 0.0, "trajectory completes", False)
        return _finish("stress_free_reference", metrics, t0, traj)
    max_u = max(float(np.max(np.abs(s.displacement))) for s in traj.states)
    max_p = max(d.max_stress for d in traj.diagnostics)
    _metric(metrics, "max nodal |u|", max_u, "<= 1e-10", max_u <= 1e-10)
    _metric(metrics, "max cell |P|_F", max_p, "<= 1e-10", max_p <= 1e-10)
    runtime = time.perf_counter() - t0
    _metric(metrics, "runtime [s]", runtime, "< 5", runtime < 5.0)
    return _finish("stress_free_reference", metrics, t0, traj)


def analytic_growth_scenario(nx=16, dt=1e-3, t_end=0.5):
    """Uniform inflation at rate (1-t)^-1: growth rate G Y, Dirichlet data
    pulling the whole boundary along, stress free for all times."""
    mesh = rectangle_mesh(nx, nx)
    return Scenario(
        name="analytic_growth", mesh=mesh, energy=PolarWellEnergy(),
        growth_law=ProductGrowthLaw(),
        nutrient_model=DetRatioNutrientModel(d0=1.0, beta0=0.0),
        f=ex.vector_evaluator(ex.parse_vector("x/(1 - t), y/(1 - t)", 2)),
        f_n=ex.scalar_evaluator(ex.parse("1")),
        time=TimeGrid(t_end=t_end, dt=dt),
        guards=GuardConfig(),
        substeps=True)


def bench_analytic_growth(scenario=None):
    """Closed-form inflation trajectory: G, y, and the stress are known."""
    t0 = time.perf_counter()
    scenario = scenario or SCENARIOS["analytic_growth"]()
    traj = run_coupled(scenario)
    metrics = []
    if traj.failed:
        last_t = traj.states[-1].t if traj.states else float("nan")
        _metric(metrics, "halted at t", last_t, "guard fired before blow-up",
                False)
        return _finish("analytic_growth", metrics, t0, traj)
    mesh = scenario.mesh
    err_G = err_y = 0.0
    for state in traj.states:
        ref = 1.0 / (1.0 - state.t)
        err_G = max(err_G, float(np.max(np.abs(
            state.growth - ref * np.eye(2)))))
        err_y = max(err_y, float(np.max(np.abs(
            state.deformation - ref * mesh.vertices))))
    max_p = max(d.max_stress for d in traj.diagnostics)
    _metric(metrics, "max |G - (1-t)^-1 I|", err_G, "<= 1e-6", err_G <= 1e-6)
    _metric(metrics, "max |y - (1-t)^-1 x|", err_y, "<= 1e-8", err_y <= 1e-8)
    _metric(metrics, "max cell |P|_F", max_p, "<= 1e-8", max_p <= 1e-8)
    runtime = time.perf_counter() - t0
    _metric(metrics, "runtime [s]", runtime, "< 120", runtime < 120.0)
    return _finish("analytic_growth", metrics, t0, traj)


def compatible_growth_problem(n, amplitude=0.05, method="newton"):
    """Static compatible growth from an analytic deformation map: the
    growth tensor is its exact gradient sampled at quadrature points."""
    mesh = rectangle_mesh(n, n)
    g0 = ex.parse_vector(
        "x + %.17g * sin(pi*x) * sin(pi*y), y + %.17g * sin(pi*x) * sin(pi*y)"
        % (amplitude, amplitude), 2)
    grad = ex.gradient_evaluator(g0)
    boundary = ex.vector_evaluator(g0)
    problem = EquilibriumProblem(
        mesh, PolarWellEnergy(),
        growth=lambda pts: grad(0.0, pts),
        dirichlet_data=lambda pts: boundary(0.0, pts),
        options=SolverOptions(method=method))
    return problem


def bench_compatible_growth(sizes=(8, 16, 32), amplitude=0.05,
                            method="newton"):
    """Discrete energy of the compatible state decays at second order."""
    t0 = time.perf_counter()
    from .elasticity import elastic_energy, solve_equilibrium
    energies = []
    for n in sizes:
        problem = compatible_growth_problem(n, amplitude, method=method)
        sol = solve_equilibrium(problem)
        energies.append(elastic_energy(problem, sol.displacement))
    metrics = []
    for n, e in zip(sizes, energies):
        _metric(metrics, "energy on %dx%d" % (n, n), e, ">= 0", e >= 0.0)
    for k in range(len(sizes) - 1):
        ratio = energies[k] / energies[k + 1]
        _metric(metrics, "decay %d -> %d" % (sizes[k], sizes[k + 1]), ratio,
                "in [3.5, 4.5]", 3.5 <= ratio <= 4.5)
    return _finish("compatible_growth", metrics, t0)


# the live contraction meshes by size; a mesh goes once no problem holds it
_CONTRACTION_MESHES = weakref.WeakValueDictionary()


def _contraction_mesh(nx):
    """The nx-by-nx contraction mesh, shared by every live problem of that
    size, so that its cached Dirichlet systems, lift factor and geometry
    are built once."""
    mesh = _CONTRACTION_MESHES.get(nx)
    if mesh is None:
        mesh = rectangle_mesh(nx, nx, elastic_dirichlet="left")
        _CONTRACTION_MESHES[nx] = mesh
    return mesh


def contraction_problem(nx=16, traction=0.01, method="fixed_point"):
    """Small normal traction on the Neumann part, unit growth.  Problems of
    one size share one mesh."""
    return EquilibriumProblem(
        _contraction_mesh(nx), PolarWellEnergy(),
        growth=lambda pts: np.broadcast_to(
            np.eye(2), np.asarray(pts).shape[:-1] + (2, 2)).copy(),
        dirichlet_data=lambda pts: np.asarray(pts, dtype=float),
        neumann_traction=lambda pts, normals: traction * np.asarray(normals),
        options=SolverOptions(method=method))


def bench_contraction(nx=16, traction=0.01):
    """The frozen-linearization iteration contracts and agrees with Newton."""
    t0 = time.perf_counter()
    chord = contraction_problem(nx, traction)
    newton = contraction_problem(nx, traction, method="newton")
    fp = solve_fixed_point(chord)
    increments = fp.increment_history
    ratios = [increments[k + 1] / increments[k]
              for k in range(len(increments) - 1) if increments[k] > 1e-300]
    worst = max(ratios) if ratios else 0.0
    nw = solve_newton(newton)
    diff = float(np.max(np.abs(fp.displacement - nw.displacement)))
    metrics = []
    _metric(metrics, "iterations (frozen map)", fp.iterations, "converged",
            True)
    _metric(metrics, "max increment ratio", worst, "< 1", worst < 1.0)
    _metric(metrics, "|u_fixed - u_newton| max", diff, "<= 1e-10",
            diff <= 1e-10)
    return _finish("contraction", metrics, t0)


def nutrient_problem(n, dirichlet, beta0=1.0, d0=1.0):
    """Reaction-diffusion solve on identity growth and deformation (the
    det-ratio coefficients then reduce to the reference fields)."""
    mesh = rectangle_mesh(n, n)
    eye = np.broadcast_to(np.eye(2), (mesh.num_vertices, 2, 2)).copy()
    return NutrientProblem(
        mesh, DetRatioNutrientModel(d0=d0, beta0=beta0), eye,
        mesh.vertices.copy(), dirichlet_data=dirichlet)


def bench_nutrient_manufactured(sizes=(8, 16, 32)):
    """Constant solutions are exact; cosh(x) solves the beta = 1 equation
    identically, so the nodal error decays at second order."""
    t0 = time.perf_counter()
    metrics = []

    sol = solve_nutrient(nutrient_problem(8, lambda pts: np.ones(len(pts)),
                                          beta0=0.0))
    err_const = float(np.max(np.abs(sol.concentration - 1.0)))
    _metric(metrics, "constant solution error", err_const, "<= 1e-12",
            err_const <= 1e-12)

    errors = []
    worst_min = 0.0
    for n in sizes:
        prob = nutrient_problem(n, lambda pts: np.cosh(pts[:, 0]), beta0=1.0)
        sol = solve_nutrient(prob)
        exact = np.cosh(prob.mesh.vertices[:, 0])
        errors.append(float(np.max(np.abs(sol.concentration - exact))))
        worst_min = min(worst_min, sol.min_value)
    for k in range(len(sizes) - 1):
        order = float(np.log2(errors[k] / errors[k + 1]))
        _metric(metrics, "order %d -> %d" % (sizes[k], sizes[k + 1]), order,
                "2 +- 0.3", 1.7 <= order <= 2.3)
    _metric(metrics, "min nutrient value", worst_min, ">= -1e-10",
            worst_min >= -1e-10)
    return _finish("nutrient_manufactured", metrics, t0)


def bench_ode_order():
    """Integrator order on the exponential and volume conservation for a
    trace-free multiplicative law."""
    t0 = time.perf_counter()
    metrics = []

    def rhs_exp(ts, G):
        return G

    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        G = np.eye(2)[None]
        steps = int(round(1.0 / dt))
        t = 0.0
        for _ in range(steps):
            G, _ = growth_mod.rk4_step(G, rhs_exp, t, dt)
            t += dt
        errors.append(abs(G[0, 0, 0] - np.e))
    for k in range(len(errors) - 1):
        ratio = errors[k] / errors[k + 1]
        _metric(metrics, "error ratio dt %g -> %g" % ((1e-2, 5e-3)[k],
                                                      (5e-3, 2.5e-3)[k]),
                ratio, "in [12, 20]", 12.0 <= ratio <= 20.0)

    H = np.array([[0.7, 0.3], [0.4, -0.7]])  # trace free

    def rhs_jacobi(ts, G):
        return G @ H

    G = np.eye(2)[None]
    dt = 1e-3
    t = 0.0
    for _ in range(1000):
        G, _ = growth_mod.rk4_step(G, rhs_jacobi, t, dt)
        t += dt
    drift = abs(float(tensor.det(G[0])) - 1.0)
    _metric(metrics, "det drift per unit time", drift, "<= 1e-10",
            drift <= 1e-10)
    return _finish("ode_order", metrics, t0)


# the benchmarks that run a coupled scenario, each with a builder of the
# scenario it runs; the command line applies the run options to it
SCENARIOS = {
    "stress_free_reference": functools.partial(identity_scenario,
                                               "stress_free_reference"),
    "analytic_growth": analytic_growth_scenario,
}

BENCHMARKS = {
    "stress_free_reference": bench_stress_free_reference,
    "analytic_growth": bench_analytic_growth,
    "compatible_growth": bench_compatible_growth,
    "contraction": bench_contraction,
    "nutrient_manufactured": bench_nutrient_manufactured,
    "ode_order": bench_ode_order,
}
