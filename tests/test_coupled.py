import os
import sys

import numpy as np
import pytest

from morphosim import coupled, fem, growth
from morphosim.benchmarks import analytic_growth_scenario, identity_scenario
from morphosim.coupled import run_coupled, trajectory_csv, write_outputs
from morphosim.growth import GuardConfig, TimeGrid, rk4_step
from morphosim.elasticity import EquilibriumProblem, residual
from morphosim.nutrient import NutrientProblem, nutrient_coefficient_fields
from morphosim.scenario import OutputConfig, load_scenario


class TestTrivialScenario:
    def test_rest_state_at_every_step(self):
        traj = run_coupled(identity_scenario("trivial", nx=8))
        assert traj.status == "completed"
        assert len(traj.states) == 6  # t = 0.0, 0.05, ..., 0.25
        for state in traj.states:
            assert np.max(np.abs(state.displacement)) == 0.0
            assert np.max(np.abs(state.growth - np.eye(2))) == 0.0
            assert np.max(np.abs(state.nutrient - 1.0)) <= 1e-12
        assert all(d.max_stress <= 1e-12 for d in traj.diagnostics)

    def test_snapshot_times_strictly_increase(self):
        traj = run_coupled(identity_scenario("trivial", nx=4))
        times = traj.times
        assert np.all(np.diff(times) > 0.0)
        assert times[0] == 0.0
        assert abs(times[-1] - 0.25) <= 1e-12


class TestZeroNutrientDecoupling:
    def test_growth_frozen_when_nutrient_vanishes(self, scenario_dir):
        # linear response eta(N) = N and zero boundary nutrient: the unique
        # nutrient solution is 0, so the growth law switches off
        sc = load_scenario(scenario_dir / "zero_nutrient.cfg")
        traj = run_coupled(sc)
        assert traj.status == "completed"
        for state in traj.states:
            assert np.max(np.abs(state.nutrient)) <= 1e-12
            assert np.max(np.abs(state.growth - np.eye(2))) <= 1e-13


class TestStressModulatedScenario:
    def test_clamped_growth_builds_stress(self, scenario_dir):
        sc = load_scenario(scenario_dir / "stress_modulated.cfg")
        traj = run_coupled(sc)
        assert traj.status == "completed"
        dets = [d.min_det_growth for d in traj.diagnostics]
        stresses = [d.max_stress for d in traj.diagnostics]
        assert dets[-1] > dets[0]  # tissue grew
        assert stresses[-1] > 1e-3  # clamped boundary resists the growth
        assert all(d.nutrient_min >= -1e-10 for d in traj.diagnostics)


class TestSelfCertification:
    def test_snapshots_reproduce_their_residuals(self):
        sc = analytic_growth_scenario(nx=8, dt=5e-3, t_end=0.05)
        traj = run_coupled(sc)
        assert traj.status == "completed"
        for state, diag in zip(traj.states, traj.diagnostics):
            problem = EquilibriumProblem(
                sc.mesh, sc.energy, state.growth,
                sc.dirichlet_at(state.t), None, options=sc.solver)
            _, norm = residual(problem, state.displacement)
            assert norm <= max(2.0 * diag.equilibrium_residual, 1e-10)

            nut = NutrientProblem(sc.mesh, sc.nutrient_model, state.growth,
                                  state.deformation,
                                  sc.nutrient_dirichlet_at(state.t),
                                  sc.nutrient_flux_at(state.t))
            D, beta = nutrient_coefficient_fields(nut)
            K, rhs = fem.assemble_scalar_operator(sc.mesh, D, reaction=beta)
            _, Kf, free = fem.eliminate(K, sc.mesh.nutrient_dirichlet_nodes())
            assert np.linalg.norm(Kf @ state.nutrient - rhs[free]) <= 1e-10

    def test_quasi_static_consistency_under_dt_halving(self):
        # the equilibrium residual per snapshot is dt-independent, and the
        # deformation at a common time agrees through G
        runs = {}
        for dt in (2e-2, 1e-2):
            sc = analytic_growth_scenario(nx=8, dt=dt, t_end=0.1)
            runs[dt] = run_coupled(sc)
        for traj in runs.values():
            assert all(d.equilibrium_residual <= 1e-10
                       for d in traj.diagnostics)
        coarse = runs[2e-2].states[-1]
        fine = runs[1e-2].states[-1]
        assert abs(coarse.t - fine.t) <= 1e-12
        assert np.max(np.abs(coarse.deformation - fine.deformation)) <= 1e-9


class TestGuardHalt:
    def test_analytic_run_halts_before_blowup(self):
        sc = analytic_growth_scenario(nx=4, dt=5e-3, t_end=0.99)
        traj = run_coupled(sc)
        assert traj.status == "guard_violation"
        assert traj.failed
        assert traj.states[-1].t < 1.0
        # norm guard is 10 * max|G0| = 10, reached just before t = 0.9
        assert traj.states[-1].t <= 0.9 + 1e-9
        assert traj.error is not None

    def test_failure_outputs_written(self, tmp_path):
        sc = analytic_growth_scenario(nx=4, dt=5e-3, t_end=0.99)
        traj = run_coupled(sc)
        paths = write_outputs(traj, sc.mesh,
                              OutputConfig(directory=str(tmp_path / "out")))
        names = {p.split("/")[-1] for p in paths}
        assert "run.csv" in names
        assert "failure_snapshot.vtk" in names
        assert "failure.txt" in names


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        a = run_coupled(identity_scenario("trivial", nx=8))
        b = run_coupled(identity_scenario("trivial", nx=8))
        assert trajectory_csv(a) == trajectory_csv(b)

    def test_analytic_runs_byte_identical(self):
        a = run_coupled(analytic_growth_scenario(nx=8, dt=5e-3, t_end=0.05))
        b = run_coupled(analytic_growth_scenario(nx=8, dt=5e-3, t_end=0.05))
        assert trajectory_csv(a) == trajectory_csv(b)


class TestOutputs:
    def test_csv_row_count_and_header(self, tmp_path):
        traj = run_coupled(identity_scenario("trivial", nx=4))
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == ("t,min_det_G,max_stress,nutrient_min,"
                            "equilibrium_iters,rho_hat")
        assert len(lines) == 1 + len(traj.states)

    def test_vtk_fields(self, tmp_path):
        sc = analytic_growth_scenario(nx=4, dt=1e-2, t_end=0.5)
        traj = run_coupled(sc)
        outdir = tmp_path / "fields"
        paths = write_outputs(traj, sc.mesh,
                              OutputConfig(directory=str(outdir)))
        vtks = sorted(p for p in paths if p.endswith(".vtk"))
        assert len(vtks) == len(traj.states)
        last = open(vtks[-1]).read()
        assert "VECTORS displacement double" in last
        assert "SCALARS nutrient double 1" in last
        assert "SCALARS growth_det double 1" in last
        assert "SCALARS stress_frobenius double 1" in last
        # growth determinant at t = 0.5 is (1 - 0.5)^-2 = 4 at every node
        kdet = last.index("SCALARS growth_det")
        block = last[kdet:].split("\n")[2:2 + sc.mesh.num_vertices]
        values = np.array([float(v) for v in block])
        assert np.max(np.abs(values - 4.0)) <= 1e-6

    def test_every_option_thins_snapshots(self, tmp_path):
        sc = identity_scenario("trivial", nx=4)
        sc.output.every = 2
        sc.output.directory = str(tmp_path / "thin")
        traj = run_coupled(sc)
        paths = write_outputs(traj, sc.mesh, sc.output)
        vtks = [p for p in paths if p.endswith(".vtk")]
        # snapshots 0, 2, 4 plus the forced final one
        assert len(vtks) == 4


def substeps_reference(sc):
    """Coupled loop that re-solves every Runge-Kutta stage, the first one
    included; returns (t, G, u) per snapshot."""
    driver = coupled._CoupledDriver(sc)
    G = sc.initial_growth_nodal()
    grid = sc.time
    t = grid.t0
    states = []
    while True:
        _, sol, _ = driver.solve_state(t, G)
        states.append((t, G, sol.displacement))
        remaining = grid.t_end - t
        if remaining <= 1e-12 * max(1.0, abs(grid.t_end)):
            return states
        dt = min(grid.dt, remaining)
        G, _ = rk4_step(G, driver.make_rhs(t, None, None), t, dt)
        t = grid.t_end if dt >= remaining - 1e-15 else t + dt


class TestFirstStageReuse:
    def test_substeps_solve_count_and_values(self, monkeypatch):
        reference = substeps_reference(
            analytic_growth_scenario(nx=4, dt=1e-2, t_end=0.05))
        calls = []
        solve = coupled.solve_equilibrium

        def counting(problem, initial=None):
            calls.append(problem)
            return solve(problem, initial=initial)
        monkeypatch.setattr(coupled, "solve_equilibrium", counting)
        traj = run_coupled(analytic_growth_scenario(nx=4, dt=1e-2,
                                                    t_end=0.05))
        steps = len(traj.states) - 1
        assert steps == 5
        # the snapshot solve doubles as stage 1: one solve at t0, then
        # three stage solves and one snapshot solve per step
        assert len(calls) == 1 + 4 * steps
        assert len(reference) == len(traj.states)
        for (t, G, u), state in zip(reference, traj.states):
            assert t == state.t
            assert np.array_equal(G, state.growth)
            assert np.array_equal(u, state.displacement)

    def test_staggered_run_evaluates_law_once_per_step(self, scenario_dir,
                                                       monkeypatch):
        sc = load_scenario(scenario_dir / "stress_modulated.cfg")
        sc.time.t_end = 0.05
        calls = []
        evaluate = sc.growth_law.evaluate

        def counting(*args):
            calls.append(1)
            return evaluate(*args)
        monkeypatch.setattr(sc.growth_law, "evaluate", counting)
        traj = run_coupled(sc)
        assert traj.status == "completed"
        steps = len(traj.states) - 1
        assert len(calls) == 4 * steps


class TestDeformationOnlyWhenRead:
    """Nodal Y is built only for a law that reads it."""

    def _record(self, sc, monkeypatch):
        counts = {"nodal_from_cells": 0, "interpolate_gradient": 0}
        for name in counts:
            def counting(*args, _call=getattr(fem, name), _name=name):
                counts[_name] += 1
                return _call(*args)
            monkeypatch.setattr(fem, name, counting)
        seen = []
        evaluate = sc.growth_law.evaluate

        def recording(G, Y, N, x):
            seen.append(Y)
            return evaluate(G, Y, N, x)
        monkeypatch.setattr(sc.growth_law, "evaluate", recording)
        traj = run_coupled(sc)
        assert traj.status == "completed"
        return traj, counts, seen

    def test_stress_blind_law_gets_no_y(self, scenario_dir, monkeypatch):
        sc = load_scenario(scenario_dir / "stress_modulated.cfg")
        assert not sc.growth_law.needs_deformation  # mu = identity
        traj, counts, seen = self._record(sc, monkeypatch)
        assert len(traj.states) == 51
        # one nodal stress per snapshot and no nodal Y; a nodal Y per step
        # made these 101 and 353.  The data f = (x, y) do not change, so
        # only the first of the 51 lifts takes a gradient (303 when every
        # lift was recomputed)
        assert counts == {"nodal_from_cells": 51,
                          "interpolate_gradient": 253}
        assert seen and all(Y is None for Y in seen)

    def test_stress_reading_law_gets_nodal_y(self, scenario_dir,
                                             monkeypatch):
        sc = load_scenario(scenario_dir / "stress_modulated.cfg")
        sc.growth_law.mu_name = "linear_stress"
        sc.time.t_end = 0.02
        traj, counts, seen = self._record(sc, monkeypatch)
        steps = len(traj.states) - 1
        assert counts["nodal_from_cells"] == len(traj.states) + steps
        assert len(seen) == 4 * steps  # the rate and three RK4 stages
        assert all(Y.shape == (sc.mesh.num_vertices, 2, 2) for Y in seen)


def law_inputs_anew(self, sol, nut):
    """The growth law's inputs with the gradient of y taken anew at every
    call."""
    Y = None
    if self.law.needs_deformation:
        Y = fem.nodal_from_cells(self.mesh, fem.interpolate_gradient(
            self.mesh, sol.deformation))
    N = nut.concentration if nut is not None \
        else np.zeros(self.mesh.num_vertices)
    return Y, N


class TestDeformationGradientShared:
    """The cell gradient of a solved state's y is taken once: the nutrient
    solution carries the one its coefficients read to the growth law."""

    def test_one_gradient_per_solved_state(self, scenario_dir, monkeypatch):
        def run():
            sc = load_scenario(scenario_dir / "analytic_growth.cfg")
            sc.time.t_end = 0.005
            return run_coupled(sc)
        with monkeypatch.context() as patched:
            patched.setattr(coupled._CoupledDriver, "law_inputs",
                            law_inputs_anew)
            anew = run()
        interpolate = fem.interpolate_gradient
        callers = []

        def recording(mesh, values):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return interpolate(mesh, values)
        monkeypatch.setattr(fem, "interpolate_gradient", recording)
        traj = run()
        steps = len(traj.states) - 1
        assert traj.status == "completed" and steps == 5
        # y's gradient: the nutrient solve's at every snapshot, the
        # coupled loop's at RK4 stages 2 to 4 (the product law reads no
        # nutrient, so the stage solves skip it); a second one at every
        # stepping snapshot made this 1 + 5 * steps
        on_y = [c for c in callers
                if c in ("morphosim.nutrient", "morphosim.coupled")]
        assert on_y.count("morphosim.nutrient") == len(traj.states)
        assert len(on_y) == len(traj.states) + 3 * steps
        assert trajectory_csv(traj) == trajectory_csv(anew)
        assert len(traj.states) == len(anew.states)
        for state, ref in zip(traj.states, anew.states):
            assert state.growth.tobytes() == ref.growth.tobytes()


class TestMethodAgreement:
    """Chord and Newton solve every shipped scenario to the same states."""

    @pytest.mark.parametrize("demo", sorted(
        name for name in os.listdir(os.path.join(
            os.path.dirname(__file__), "..", "demos", "scenarios"))
        if name.endswith(".cfg")))
    def test_chord_and_newton_agree(self, scenario_dir, demo):
        runs = []
        for method in ("fixed_point", "newton"):
            sc = load_scenario(scenario_dir / demo)
            sc.solver.method = method
            if demo == "analytic_growth.cfg":
                sc.time.t_end = 0.05
            runs.append(run_coupled(sc))
        chord, newton = runs
        assert chord.status == newton.status == "completed"
        assert len(chord.states) == len(newton.states) > 1
        for a, b in zip(chord.states, newton.states):
            assert a.t == b.t
            assert np.max(np.abs(a.displacement - b.displacement)) <= 1e-10
            assert np.max(np.abs(a.growth - b.growth)) <= 1e-10


class TestGrowthTierShared:
    """The nutrient solve reads the equilibrium workspace's sampled G and
    its checked det G instead of sampling again."""

    def test_growth_is_sampled_once_per_state(self, scenario_dir,
                                              monkeypatch):
        sc = load_scenario(scenario_dir / "stress_modulated.cfg")
        sc.time.t_end = 0.02
        sample = fem.growth_at_quadrature
        calls = []

        def recording(mesh, growth):
            Gq = sample(mesh, growth)
            calls.append(Gq is growth)
            return Gq
        monkeypatch.setattr(fem, "growth_at_quadrature", recording)
        nutrient_growth = []
        solve = coupled.solve_nutrient

        def solving(problem):
            nutrient_growth.append((problem.growth, problem.growth_det))
            return solve(problem)
        monkeypatch.setattr(coupled, "solve_nutrient", solving)
        traj = run_coupled(sc)
        assert traj.status == "completed" and len(traj.states) == 3
        # one sampling per equilibrium solve; the nutrient solves hand
        # the sampled array through
        assert calls == [False, True] * 3
        for Gq, detG in nutrient_growth:
            assert Gq.shape == (sc.mesh.num_cells, 3, 2, 2)
            assert detG.tobytes() == np.linalg.det(Gq).tobytes()


class TestGuardReportShared:
    """Each nodal growth state is guard-checked once: the snapshot reads
    the report of the step-end check, and the next step's start check
    reads the snapshot's."""

    def test_one_check_per_state(self, scenario_dir, monkeypatch):
        sc = load_scenario(scenario_dir / "analytic_growth.cfg")
        sc.time.t_end = 0.005
        guard = growth.det_guard
        checked = []

        def recording(G, config):
            checked.append(np.array(G))
            return guard(G, config)
        monkeypatch.setattr(growth, "det_guard", recording)
        traj = run_coupled(sc)
        steps = len(traj.states) - 1
        assert traj.status == "completed" and steps == 5
        # G0, then stages 2 to 4 and the step end of every step
        assert len(checked) == 1 + 4 * steps
        assert len({G.tobytes() for G in checked}) == len(checked)
        for state, diag in zip(traj.states, traj.diagnostics):
            assert diag.min_det_growth == float(
                np.min(np.linalg.det(state.growth)))

    def test_violated_start_halts_at_step_start(self):
        sc = analytic_growth_scenario(nx=4, dt=5e-3, t_end=0.05)
        sc.guards = GuardConfig(det_min=2.0)
        traj = run_coupled(sc)
        assert traj.status == "guard_violation" and len(traj.states) == 1
        assert str(traj.error) == ("growth determinant 1.0 below guard 2.0 "
                                   "at step start (t = 0)")
        assert traj.error.report.min_det == traj.diagnostics[0].min_det_growth


class TestTimeOrder:
    """The coupled loop's order in time on `stress_modulated.cfg` (Newton,
    growth rate 4 so that the time error dominates), observed from
    differences of the final growth field at dt = T/4, T/8, T/16.
    Staggered freezes Y and N over a step and is first order; substeps
    re-solves at every stage and keeps RK4's fourth order."""

    @pytest.mark.parametrize("substeps, low, high",
                             [(False, 0.8, 1.4), (True, 3.5, 4.5)])
    def test_observed_order(self, scenario_dir, substeps, low, high):
        t_end = 0.3
        finals = []
        for steps in (4, 8, 16):
            sc = load_scenario(scenario_dir / "stress_modulated.cfg")
            sc.growth_law.gamma = 4.0
            sc.time = TimeGrid(t_end=t_end, dt=t_end / steps)
            sc.substeps = substeps
            traj = run_coupled(sc)
            assert traj.status == "completed"
            assert traj.states[-1].t == t_end
            finals.append(traj.states[-1].growth)
        coarse = np.max(np.abs(finals[0] - finals[1]))
        fine = np.max(np.abs(finals[1] - finals[2]))
        assert low <= np.log2(coarse / fine) <= high


def vtk_text_reference(mesh, state):
    """Snapshot text formatted in one pass, mesh included (reference)."""
    lines = [
        "# vtk DataFile Version 3.0",
        "morphosim fields at t=%.17g" % state.t,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        "POINTS %d double" % mesh.num_vertices,
    ]
    for v in mesh.vertices:
        lines.append("%.17g %.17g 0" % (v[0], v[1]))
    lines.append("CELLS %d %d" % (mesh.num_cells, 4 * mesh.num_cells))
    for c in mesh.cells:
        lines.append("3 %d %d %d" % (c[0], c[1], c[2]))
    lines.append("CELL_TYPES %d" % mesh.num_cells)
    lines.extend(["5"] * mesh.num_cells)
    lines.append("POINT_DATA %d" % mesh.num_vertices)
    lines.append("VECTORS displacement double")
    for u in state.displacement:
        lines.append("%.17g %.17g 0" % (u[0], u[1]))
    for name, values in (("nutrient", state.nutrient),
                         ("growth_det", np.linalg.det(state.growth)),
                         ("stress_frobenius", state.stress_nodes)):
        lines.append("SCALARS %s double 1" % name)
        lines.append("LOOKUP_TABLE default")
        for value in values:
            lines.append("%.17g" % value)
    return "\n".join(lines) + "\n"


class TestVtkMeshBlockReuse:
    def test_files_match_single_pass_formatting(self, scenario_dir,
                                                tmp_path):
        sc = load_scenario(scenario_dir / "stress_modulated.cfg")
        sc.time.t_end = 0.03
        traj = run_coupled(sc)
        paths = write_outputs(traj, sc.mesh,
                              OutputConfig(directory=str(tmp_path / "ok")))
        vtks = sorted(p for p in paths if p.endswith(".vtk"))
        assert len(vtks) == len(traj.states)
        for path, state in zip(vtks, traj.states):
            with open(path) as fh:
                assert fh.read() == vtk_text_reference(sc.mesh, state)

    def test_failure_snapshot_matches(self, tmp_path):
        sc = analytic_growth_scenario(nx=4, dt=5e-2, t_end=0.99)
        sc.output.write_fields = False
        traj = run_coupled(sc)
        assert traj.failed
        sc.output.directory = str(tmp_path / "fail")
        paths = write_outputs(traj, sc.mesh, sc.output)
        snap = [p for p in paths if p.endswith("failure_snapshot.vtk")]
        with open(snap[0]) as fh:
            assert fh.read() == vtk_text_reference(sc.mesh,
                                                   traj.states[-1])
