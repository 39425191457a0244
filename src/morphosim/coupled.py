"""Coupled quasi-static time loop and file output.

Each step solves equilibrium and nutrient transport for the current
growth field, records a snapshot, and advances the growth tensor by one
guarded Runge-Kutta step.  Two coupling modes exist:

* staggered (default): the deformation gradient and nutrient field seen
  by the growth law are frozen at their start-of-step values;
* substeps: every Runge-Kutta stage re-solves equilibrium (and, when the
  law consumes it, the nutrient equation) at the stage time and stage
  growth field.  This evaluates the exact coupled rate and restores the
  integrator's full order; the analytic benchmark relies on it.

Either way the first stage is the rate at the step start, which the
snapshot solve has already produced, so it is handed to the integrator
rather than evaluated (and, with substeps, solved for) a second time.

The loop is sequential and deterministic; repeated runs of the same
scenario produce byte-identical diagnostics.
"""

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, growth as growth_mod, tensor
# stress_field is not called here (solutions carry their stress), but
# bench/tracing.py wraps coupled.stress_field, so the name stays importable
from .elasticity import EquilibriumProblem, solve_equilibrium, stress_field
from .errors import GuardViolation, IoError, MorphosimError
from .materials import CheckReport, ZeroGrowthLaw
from .nutrient import NutrientProblem, solve_nutrient


@dataclass
class SystemState:
    """One snapshot of the solution triple plus derived fields."""

    t: float
    growth: np.ndarray          # (n, 2, 2) nodal growth tensor
    displacement: np.ndarray    # (n, 2), zero on the elastic Dirichlet part
    lifted: np.ndarray          # (n, 2) lifted Dirichlet data
    nutrient: np.ndarray        # (n,)
    stress_nodes: np.ndarray    # (n,) Frobenius norm of the Piola stress

    @property
    def deformation(self):
        return self.displacement + self.lifted


@dataclass
class StepDiagnostics:
    t: float
    min_det_growth: float
    max_stress: float
    nutrient_min: float
    equilibrium_iterations: int
    rho_hat: float
    equilibrium_residual: float


@dataclass
class Trajectory:
    states: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    status: str = "completed"   # completed | guard_violation | solver_failure
    error: object = None

    @property
    def failed(self):
        return self.status != "completed"

    def halt(self, status, error):
        """Record the halting cause and return the trajectory."""
        self.status = status
        self.error = error
        return self


def _resolve_guards(scenario, G0):
    guards = scenario.guards
    if guards.norm_max is None:
        base = float(np.max(np.abs(G0)))
        guards = replace(guards, norm_max=10.0 * max(base, 1e-12))
    return guards


class _CoupledDriver:
    def __init__(self, scenario):
        self.scenario = scenario
        self.mesh = scenario.mesh
        self.law = scenario.growth_law
        self.warm_u = None
        self.static_sampler = None
        if isinstance(self.law, ZeroGrowthLaw):
            # static growth: keep the analytic description for sharp sampling
            self.static_sampler = scenario.g0

    def solve_state(self, t, G, with_nutrient=True):
        """Solves at t for G, or for the static law's analytic growth."""
        sc = self.scenario
        growth = self.static_sampler if self.static_sampler is not None else G
        problem = EquilibriumProblem(
            self.mesh, sc.energy, growth,
            sc.dirichlet_at(t), sc.traction_at(t), options=sc.solver)
        initial = self.warm_u if sc.solver.warm_start else None
        sol = solve_equilibrium(problem, initial=initial)
        self.warm_u = sol.displacement
        nut = None
        if with_nutrient:
            # the growth tier: G as the workspace sampled and checked it
            ws = problem.workspace
            nut = solve_nutrient(NutrientProblem(
                self.mesh, sc.nutrient_model, ws.Gq, sol.deformation,
                sc.nutrient_dirichlet_at(t), sc.nutrient_flux_at(t),
                growth_det=ws.detGq))
        return problem, sol, nut

    def law_inputs(self, sol, nut):
        Y = None
        if self.law.needs_deformation:
            # a solved nutrient carries the gradient of this state's y
            grad = (nut.deformation_gradient if nut is not None else
                    fem.interpolate_gradient(self.mesh, sol.deformation))
            Y = fem.nodal_from_cells(self.mesh, grad)
        N = nut.concentration if nut is not None \
            else np.zeros(self.mesh.num_vertices)
        return Y, N

    def rate(self, G, sol, nut):
        """The law's inputs at a solved state and the growth rate there:
        ``(Y, N, dG/dt)``."""
        Y, N = self.law_inputs(sol, nut)
        return Y, N, self.law.evaluate(G, Y, N, self.mesh.vertices)

    def make_rhs(self, Y_frozen, N_frozen):
        sc = self.scenario
        law = self.law
        x = self.mesh.vertices
        needs_solve = law.needs_deformation or law.needs_nutrient
        if not sc.substeps or not needs_solve:
            def rhs(ts, Gf):
                return law.evaluate(Gf, Y_frozen, N_frozen, x)
            return rhs

        def rhs(ts, Gf):
            _, sol, nut = self.solve_state(ts, Gf,
                                           with_nutrient=law.needs_nutrient)
            return self.rate(Gf, sol, nut)[2]
        return rhs


def run_coupled(scenario):
    """Run the coupled loop of a validated scenario.

    Returns a Trajectory whose `status` records the halting cause
    (completion, guard violation, or a solver failure); the offending
    exception is kept on `error`.  Snapshots are recorded at every
    accepted time including t0 and, on success, t_end.
    """
    driver = _CoupledDriver(scenario)
    mesh = scenario.mesh
    G = scenario.initial_growth_nodal()
    guards = _resolve_guards(scenario, G)
    grid = scenario.time
    traj = Trajectory()
    t = grid.t0
    # the guard report of G: checked here once, then handed on by each step
    report = growth_mod.det_guard(G, guards)

    while True:
        try:
            _, sol, nut = driver.solve_state(t, G)
        except MorphosimError as exc:
            return traj.halt("solver_failure", exc)
        pnorm = tensor.frobenius_norm(sol.stress)
        state = SystemState(
            t=t, growth=G.copy(), displacement=sol.displacement,
            lifted=sol.lifted_data, nutrient=nut.concentration,
            stress_nodes=fem.nodal_from_cells(mesh, np.mean(pnorm, axis=1)))
        traj.states.append(state)
        traj.diagnostics.append(StepDiagnostics(
            t=t,
            min_det_growth=report.min_det,
            max_stress=float(np.max(pnorm)),
            nutrient_min=nut.min_value,
            equilibrium_iterations=sol.iterations,
            rho_hat=sol.rho_hat,
            equilibrium_residual=sol.residual_norm))

        remaining = grid.t_end - t
        if remaining <= 1e-12 * max(1.0, abs(grid.t_end)):
            return traj

        dt_k = min(grid.dt, remaining)
        try:
            Y_frozen, N_frozen, rate_now = driver.rate(G, sol, nut)
            G, report = growth_mod.rk4_step(
                G, driver.make_rhs(Y_frozen, N_frozen), t, dt_k,
                guards=guards, k1=rate_now, start_report=report)
        except GuardViolation as exc:
            return traj.halt("guard_violation", exc)
        except MorphosimError as exc:
            return traj.halt("solver_failure", exc)
        t = grid.t_end if dt_k >= remaining - 1e-15 else t + dt_k


def check_first_step(scenario):
    """Solve the state at t0 and evaluate the growth rate there through the
    driver code `run_coupled`'s first step runs.  Returns a CheckReport
    named ``first_step`` that fails with the error's text when either
    raises."""
    driver = _CoupledDriver(scenario)
    G = scenario.initial_growth_nodal()
    t0 = scenario.time.t0
    try:
        _, sol, nut = driver.solve_state(t0, G)
        driver.rate(G, sol, nut)
    except MorphosimError as exc:
        return CheckReport("first_step", False, {
            "t": t0, "error": "%s: %s" % (type(exc).__name__, exc)})
    return CheckReport("first_step", True, {
        "t": t0, "equilibrium_iters": sol.iterations,
        "nutrient_min": nut.min_value})


# ---------------------------------------------------------------------------
# output files


CSV_HEADER = "t,min_det_G,max_stress,nutrient_min,equilibrium_iters,rho_hat"


def trajectory_csv(trajectory):
    """Run-level diagnostics as CSV text (deterministic formatting)."""
    lines = [CSV_HEADER]
    for d in trajectory.diagnostics:
        lines.append("%.17g,%.17g,%.17g,%.17g,%d,%.17g" % (
            d.t, d.min_det_growth, d.max_stress, d.nutrient_min,
            d.equilibrium_iterations, d.rho_hat))
    return "\n".join(lines) + "\n"


def _rows(template, values):
    """`template` filled once per row of the array `values`, by a single
    `%` over the repeated template."""
    return (template * len(values)) % tuple(np.ravel(values).tolist())


def _vtk_text(mesh, state):
    """Legacy VTK text of one snapshot.  The POINTS, CELLS and CELL_TYPES
    sections depend only on the mesh, which keeps them."""
    mesh_block = mesh.cached("vtk_mesh_block", lambda: (
        "POINTS %d double\n" % mesh.num_vertices
        + _rows("%.17g %.17g 0\n", mesh.vertices)
        + "CELLS %d %d\n" % (mesh.num_cells, 4 * mesh.num_cells)
        + _rows("3 %d %d %d\n", mesh.cells)
        + "CELL_TYPES %d\n" % mesh.num_cells + "5\n" * mesh.num_cells))
    text = ["# vtk DataFile Version 3.0\n"
            "morphosim fields at t=%.17g\n" % state.t,
            "ASCII\nDATASET UNSTRUCTURED_GRID\n", mesh_block,
            "POINT_DATA %d\nVECTORS displacement double\n" % mesh.num_vertices,
            _rows("%.17g %.17g 0\n", state.displacement)]
    for name, values in (("nutrient", state.nutrient),
                         ("growth_det", tensor.det(state.growth)),
                         ("stress_frobenius", state.stress_nodes)):
        text += ["SCALARS %s double 1\nLOOKUP_TABLE default\n" % name,
                 _rows("%.17g\n", values)]
    return "".join(text)


def write_outputs(trajectory, mesh, config):
    """Write the run CSV, per-snapshot field files, and (on failure) a
    diagnostic snapshot of the final state, as the `OutputConfig` `config`
    says.  Returns the list of paths."""
    paths = []
    try:
        os.makedirs(config.directory, exist_ok=True)
        csv_path = os.path.join(config.directory, "run.csv")
        with open(csv_path, "w") as fh:
            fh.write(trajectory_csv(trajectory))
        paths.append(csv_path)
        if config.write_fields and trajectory.states:
            last = len(trajectory.states) - 1
            for k, state in enumerate(trajectory.states):
                if k % config.every and k != last:
                    continue
                path = os.path.join(config.directory, "fields_%06d.vtk" % k)
                with open(path, "w") as fh:
                    fh.write(_vtk_text(mesh, state))
                paths.append(path)
        if trajectory.failed:
            halted = "halted after %d snapshots" % len(trajectory.states)
            if trajectory.states:
                final = trajectory.states[-1]
                halted += " at t=%.17g" % final.t
                snap = os.path.join(config.directory, "failure_snapshot.vtk")
                with open(snap, "w") as fh:
                    fh.write(_vtk_text(mesh, final))
                paths.append(snap)
            note = os.path.join(config.directory, "failure.txt")
            with open(note, "w") as fh:
                fh.write("status: %s\n%s\ncause: %s\n"
                         % (trajectory.status, halted, trajectory.error))
            paths.append(note)
    except OSError as exc:
        raise IoError("cannot write outputs: %s" % exc)
    return paths
