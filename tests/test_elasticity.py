import dataclasses
import gc
import io
import types
import weakref

import numpy as np
import pytest

from morphosim import benchmarks, elasticity, expressions as ex, fem, tensor
from morphosim.coupled import run_coupled
from morphosim.elasticity import (EquilibriumProblem, SolverOptions,
                                  assemble_linearized_at_zero, elastic_energy,
                                  lift_dirichlet, residual, solve_equilibrium,
                                  solve_fixed_point, solve_newton,
                                  stress_field)
from morphosim.errors import (ContractionLost, LiftDegenerate, NoConvergence,
                              OutsideAdmissibleBall, SingularMatrix,
                              ValidationError)
from morphosim.growth import TimeGrid
from morphosim.materials import PolarWellEnergy
from morphosim.mesh import Mesh, rectangle_mesh
from morphosim.scenario import load_scenario


def identity_growth(pts):
    return np.broadcast_to(np.eye(2),
                           np.asarray(pts).shape[:-1] + (2, 2)).copy()


def identity_map(pts):
    return np.asarray(pts, dtype=float)


def make_problem(mesh, growth=identity_growth, dirichlet=identity_map,
                 traction=None, **opts):
    return EquilibriumProblem(mesh, PolarWellEnergy(), growth, dirichlet,
                              traction, options=SolverOptions(**opts))


def sine_map_nodes(amplitude=0.05):
    body = ("x + %.17g*sin(pi*x)*sin(pi*y), y + %.17g*sin(pi*x)*sin(pi*y)"
            % (amplitude, amplitude))
    nodes = ex.parse_vector(body, 2)
    return (ex.vector_evaluator(nodes), ex.gradient_evaluator(nodes))


class TestLift:
    def test_identity_data(self):
        mesh = rectangle_mesh(4, 4)
        ft, _ = lift_dirichlet(mesh, identity_map)
        assert np.array_equal(ft, mesh.vertices)

    def test_constant_shift_partial_boundary(self):
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        c = np.array([0.2, -0.1])
        ft, _ = lift_dirichlet(mesh, lambda pts: pts + c)
        assert np.max(np.abs(ft - (mesh.vertices + c))) <= 1e-12

    def test_uniform_inflation_is_reproduced(self):
        # f = (1 - t)^-1 id at t = 1/4 extends to (4/3) id exactly
        mesh = rectangle_mesh(6, 6)
        ft, _ = lift_dirichlet(mesh, lambda pts: pts / 0.75)
        assert np.max(np.abs(ft - mesh.vertices / 0.75)) <= 1e-12

    def test_degenerate_lift(self):
        mesh = rectangle_mesh(4, 4)

        def folding(pts):
            out = np.array(pts, dtype=float, copy=True)
            out[:, 0] = -out[:, 0]  # reflection folds the domain
            return out

        with pytest.raises(LiftDegenerate):
            lift_dirichlet(mesh, folding)


def _sine_data(amplitude):
    fmap, _ = sine_map_nodes(amplitude)
    return lambda pts: fmap(0.0, pts)


class _CountingFactor:
    """Stands in for the lift factor and counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.calls = 0

    def solve(self, rhs):
        self.calls += 1
        return self.lu.solve(rhs)


def count_lift_solves(mesh):
    """Wrap the mesh's lift factor; the returned counter's `calls` is twice
    the number of harmonic extensions (one solve per component)."""
    system = fem.dirichlet_system(mesh, 1, mesh.elastic_dirichlet_nodes())
    lu, Kfc = elasticity._lift_factor(mesh, system)
    counter = _CountingFactor(lu)
    mesh._cache["lift_factor"] = (counter, Kfc)
    return counter


class TestLastLift:
    """The mesh tier keeps the last lift, keyed on the evaluated boundary
    positions compared exactly."""

    def test_memoized_lift_equals_fresh(self):
        mesh = rectangle_mesh(6, 6, elastic_dirichlet="left")
        first, second = _sine_data(0.05), _sine_data(0.03)
        lifts = [lift_dirichlet(mesh, data)
                 for data in (first, first, second, first, first)]
        assert lifts[1][0] is lifts[0][0] and lifts[4][0] is lifts[3][0]
        for data, (ft, jac) in zip((first, first, second, first, first),
                                   lifts):
            fresh = rectangle_mesh(6, 6, elastic_dirichlet="left")
            ft_ref, jac_ref = lift_dirichlet(fresh, data)
            assert ft.tobytes() == ft_ref.tobytes()
            assert jac.tobytes() == jac_ref.tobytes()

    def test_lift_is_read_only(self):
        mesh = rectangle_mesh(4, 4)
        for _ in range(2):
            ft, jac = lift_dirichlet(mesh, _sine_data(0.05))
            assert not ft.flags.writeable and not jac.flags.writeable
            with pytest.raises(ValueError):
                ft[0, 0] = 1.0

    def test_key_is_a_copy_of_the_data(self):
        # data that later change the array they handed back do not change
        # the key
        mesh = rectangle_mesh(4, 4)
        held = []

        def data(pts):
            held.append(np.array(pts, dtype=float))
            return held[-1]
        lift_dirichlet(mesh, data)
        held[-1] *= 1.1
        scaled, _ = lift_dirichlet(mesh, lambda pts: 1.1 * pts)
        fresh, _ = lift_dirichlet(rectangle_mesh(4, 4), lambda pts: 1.1 * pts)
        assert scaled.tobytes() == fresh.tobytes()

    def test_folding_lift_raises_on_every_call(self):
        mesh = rectangle_mesh(4, 4)
        kept, _ = lift_dirichlet(mesh, identity_map)
        counter = count_lift_solves(mesh)

        def folding(pts):
            out = np.array(pts, dtype=float, copy=True)
            out[:, 0] = -out[:, 0]
            return out
        for calls in (2, 4, 6):
            with pytest.raises(LiftDegenerate):
                lift_dirichlet(mesh, folding)
            assert counter.calls == calls
        assert lift_dirichlet(mesh, identity_map)[0] is kept

    @pytest.mark.parametrize("steps", [1, 3])
    def test_substeps_run_lifts_each_datum_once(self, scenario_dir, steps):
        # RK4's stages 2 and 3 solve at t + dt/2 and stage 4 at the next
        # snapshot's time: 2k + 1 distinct data over k steps
        sc = load_scenario(scenario_dir / "analytic_growth.cfg")
        sc.time = TimeGrid(t_end=steps * sc.time.dt, dt=sc.time.dt)
        counter = count_lift_solves(sc.mesh)
        traj = run_coupled(sc)
        assert traj.status == "completed" and len(traj.states) == steps + 1
        assert counter.calls == 2 * (2 * steps + 1)

    def test_time_independent_data_lift_once(self, scenario_dir):
        sc = load_scenario(scenario_dir / "stress_modulated.cfg")
        sc.time.t_end = 0.03
        counter = count_lift_solves(sc.mesh)
        traj = run_coupled(sc)
        assert traj.status == "completed" and len(traj.states) == 4
        assert counter.calls == 2


class TestResidual:
    def test_reference_state_is_equilibrated(self):
        mesh = rectangle_mesh(8, 8)
        problem = make_problem(mesh)
        _, norm = residual(problem, np.zeros((mesh.num_vertices, 2)))
        assert norm <= 1e-14

    def test_cellwise_gradient_growth_is_stress_free(self):
        # growth equal to the per-cell gradient of the lifted data: the
        # elastic factor is exactly the identity on every cell
        mesh = rectangle_mesh(8, 8)
        fmap, _ = sine_map_nodes(0.05)
        dirichlet = lambda pts: fmap(0.0, pts)
        _, grad_cells = lift_dirichlet(mesh, dirichlet)
        Gq = np.broadcast_to(grad_cells[:, None], (mesh.num_cells, 3, 2, 2))
        problem = make_problem(mesh, growth=np.array(Gq), dirichlet=dirichlet)
        _, norm = residual(problem, np.zeros((mesh.num_vertices, 2)))
        assert norm <= 1e-12
        P = stress_field(problem, np.zeros((mesh.num_vertices, 2)))
        assert np.max(np.abs(P)) <= 1e-13

    def test_energy_gradient_oracle(self):
        # the residual is the gradient of the discrete potential
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        problem = make_problem(
            mesh, traction=lambda pts, n: 0.02 * np.asarray(n))
        ws = problem.workspace
        rng = np.random.default_rng(3)
        u = 0.01 * rng.standard_normal((mesh.num_vertices, 2))
        u.reshape(-1)[ws.system.fixed] = 0.0
        r, _ = residual(problem, u)
        v = rng.standard_normal((mesh.num_vertices, 2))
        v.reshape(-1)[ws.system.fixed] = 0.0
        h = 1e-7
        fd = (ws.potential(ws.elastic_state(u + h * v))
              - ws.potential(ws.elastic_state(u - h * v))) / (2 * h)
        directional = float(r @ v.reshape(-1))
        assert abs(directional - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_outside_ball_reports_worst_cell(self):
        mesh = rectangle_mesh(4, 4)
        problem = make_problem(mesh, dirichlet=lambda pts: 1.8 * np.asarray(pts))
        with pytest.raises(OutsideAdmissibleBall) as info:
            residual(problem, np.zeros((mesh.num_vertices, 2)))
        assert info.value.worst_cell is not None


class TestLinearizedOperator:
    def test_coefficients_at_identity(self):
        # A[i, j, a, b] pairs H's derivative slots as H[(i a), (j b)]; the
        # induced quadratic form on gradients B equals H[B, B]
        mesh = rectangle_mesh(4, 4)
        problem = make_problem(mesh)
        ws = problem.workspace
        A = ws.coefficient_tensor(
            ws.elastic_state(np.zeros((mesh.num_vertices, 2))))
        e = PolarWellEnergy()
        H = e.second_derivative(np.zeros(2), np.eye(2))
        assert np.max(np.abs(A - H.transpose(0, 2, 1, 3))) <= 1e-12
        rng = np.random.default_rng(2)
        B = rng.standard_normal((2, 2))
        quad = np.einsum("ijab,ia,jb->", A[0, 0], B, B)
        expected = 0.5 * np.sum((B + B.T) ** 2) + 8.0 * np.trace(B) ** 2
        assert abs(quad - expected) <= 1e-12 * (1 + abs(expected))

    def test_uniform_dilation_scaling(self):
        # G = c 1 with matching data: coefficients are c^d H(1) / c^2
        mesh = rectangle_mesh(4, 4)
        c = 1.25
        problem = make_problem(
            mesh, growth=lambda pts: c * identity_growth(pts),
            dirichlet=lambda pts: c * np.asarray(pts))
        ws = problem.workspace
        A = ws.coefficient_tensor(
            ws.elastic_state(np.zeros((mesh.num_vertices, 2))))
        e = PolarWellEnergy()
        H = e.second_derivative(np.zeros(2), np.eye(2))
        expected = (c ** 2 / c ** 2) * H.transpose(0, 2, 1, 3)
        assert np.max(np.abs(A - expected)) <= 1e-12

    def test_stiffness_is_residual_jacobian(self):
        # K v matches the finite difference of the residual, pinning the
        # coefficient index convention end to end
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        problem = make_problem(
            mesh, traction=lambda pts, n: 0.02 * np.asarray(n))
        ws = problem.workspace
        u = np.zeros((mesh.num_vertices, 2))
        K = ws.stiffness(ws.elastic_state(u))
        rng = np.random.default_rng(8)
        v = rng.standard_normal(2 * mesh.num_vertices)
        v[ws.system.fixed] = 0.0
        h = 1e-7
        rp, _ = residual(problem, (u.reshape(-1) + h * v).reshape(-1, 2))
        rm, _ = residual(problem, (u.reshape(-1) - h * v).reshape(-1, 2))
        fd = (rp - rm) / (2 * h)
        Kv = K @ v
        free = ws.system.free
        scale = max(1.0, float(np.max(np.abs(fd[free]))))
        assert np.max(np.abs(Kv[free] - fd[free])) / scale <= 1e-6

    def test_matrix_symmetry_random_growth(self):
        rng = np.random.default_rng(5)
        mesh = rectangle_mesh(4, 4)
        G = np.eye(2) + 0.1 * rng.standard_normal((mesh.num_vertices, 2, 2))
        problem = make_problem(mesh, growth=G)
        Kff, _, _ = fem.eliminate(assemble_linearized_at_zero(problem),
                                  problem.workspace.system.fixed)
        assert abs(Kff - Kff.T).max() <= 1e-10 * abs(Kff).max()

    def test_spd_on_constrained_space(self):
        mesh = rectangle_mesh(6, 6, elastic_dirichlet="bottom")
        problem = make_problem(mesh)
        Kff, _, _ = fem.eliminate(assemble_linearized_at_zero(problem),
                                  problem.workspace.system.fixed)
        # raises SingularSystem unless every pivot is positive
        assert np.all(fem._factorize_spd(Kff).U.diagonal() > 0.0)

    def test_growth_validation(self):
        mesh = rectangle_mesh(2, 2)
        bad = np.broadcast_to(np.diag([1.0, -1.0]),
                              (mesh.num_vertices, 2, 2)).copy()
        with pytest.raises(ValidationError):
            assemble_linearized_at_zero(make_problem(mesh, growth=bad))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("where", ["nodal", "vertex_only"])
    def test_nan_growth_is_invalid(self, where):
        # a NaN determinant fails the checks at the quadrature points
        # (nodal field) and at the nodes (a callable that is NaN at one
        # vertex only)
        mesh = rectangle_mesh(2, 2)
        if where == "nodal":
            growth = identity_growth(mesh.vertices)
            growth[4] = np.nan
        else:
            def growth(pts):
                G = identity_growth(pts)
                G[np.all(np.asarray(pts) == 0.0, axis=-1)] = np.nan
                return G
        with pytest.raises(ValidationError):
            make_problem(mesh, growth=growth).workspace

    def test_empty_elastic_dirichlet_part(self):
        # checked before the lift, whose Laplacian is singular without it
        base = rectangle_mesh(4, 4)
        mesh = Mesh(base.vertices, base.cells, base.facets,
                    np.zeros(len(base.facets), dtype=bool),
                    base.facet_nutrient_dirichlet)
        with pytest.raises(ValidationError, match="elastic Dirichlet"):
            make_problem(mesh).workspace


def record_residual_arguments(problem):
    """Make the problem's workspace record a copy of every iterate whose
    residual a solver evaluates; returns the list it appends to."""
    ws = problem.workspace
    inner = ws.residual
    seen = []

    def recording(state):
        seen.append(np.array(state.u, copy=True))
        return inner(state)
    ws.residual = recording
    return seen


class TestFixedPoint:
    def test_trivial_scenario(self):
        mesh = rectangle_mesh(8, 8)
        sol = solve_fixed_point(make_problem(mesh))
        assert sol.iterations == 0
        assert np.max(np.abs(sol.displacement)) == 0.0

    def test_frozen_map_identity(self):
        # one sweep equals u - L^{-1} residual(u), with L assembled at zero
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        problem = make_problem(
            mesh, traction=lambda pts, n: 0.02 * np.asarray(n),
            max_iterations=1)
        rng = np.random.default_rng(11)
        u = 0.005 * rng.standard_normal((mesh.num_vertices, 2))
        iterates = record_residual_arguments(problem)
        with pytest.raises(NoConvergence):
            solve_fixed_point(problem, initial=u)
        stepped = iterates[1]

        ws = problem.workspace
        u0 = np.array(u, copy=True)
        u0.reshape(-1)[ws.system.fixed] = 0.0
        Kff, _, free = fem.eliminate(assemble_linearized_at_zero(problem),
                                     ws.system.fixed)
        import scipy.sparse.linalg as spla
        r, _ = residual(problem, u0)
        expected = u0.reshape(-1).copy()
        expected[free] -= spla.spsolve(Kff.tocsc(), r[free])
        assert np.max(np.abs(stepped.reshape(-1) - expected)) <= 1e-11

    def test_contraction_and_newton_agreement(self):
        mesh = rectangle_mesh(8, 8, elastic_dirichlet="left")
        problem = make_problem(
            mesh, traction=lambda pts, n: 0.01 * np.asarray(n))
        sol = solve_fixed_point(problem)
        inc = sol.increment_history
        ratios = [inc[k + 1] / inc[k] for k in range(len(inc) - 1)
                  if inc[k] > 1e-300]
        assert sol.rho_hat < 1.0
        assert all(r < 1.0 for r in ratios)
        # geometric decrease of increments
        assert inc[-1] < inc[0]
        newton = solve_newton(make_problem(
            mesh, traction=lambda pts, n: 0.01 * np.asarray(n)))
        assert np.max(np.abs(sol.displacement - newton.displacement)) <= 1e-10

    def test_contraction_lost_for_large_traction(self):
        mesh = rectangle_mesh(8, 8, elastic_dirichlet="left")
        problem = make_problem(
            mesh, traction=lambda pts, n: 0.5 * np.asarray(n))
        with pytest.raises(ContractionLost):
            solve_fixed_point(problem)

    def test_no_convergence_budget(self):
        mesh = rectangle_mesh(8, 8, elastic_dirichlet="left")
        problem = make_problem(
            mesh, traction=lambda pts, n: 0.05 * np.asarray(n),
            max_iterations=1)
        with pytest.raises(NoConvergence):
            solve_fixed_point(problem)

    def test_diagnostics_stream(self):
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        sink = io.StringIO()
        problem = make_problem(
            mesh, traction=lambda pts, n: 0.01 * np.asarray(n))
        problem.options.diagnostics = sink
        solve_fixed_point(problem)
        lines = [ln for ln in sink.getvalue().splitlines() if ln]
        assert len(lines) >= 1
        assert all(len(ln.split(",")) == 4 for ln in lines)


def chord_by_the_book(problem):
    """The chord iteration as a textbook writes it: the operator at u = 0,
    factorized once, then ``u -= L^{-1} residual(u)``.  Returns
    (u, increments)."""
    K = assemble_linearized_at_zero(problem)
    Kff, _, free = fem.eliminate(K, problem.workspace.system.fixed)
    lu = fem._factorize_spd(Kff)
    tol_inc, tol_res = elasticity._tolerances(problem.workspace, K)
    u = np.zeros((problem.mesh.num_vertices, 2))
    r, rn = residual(problem, u)
    increments = []
    for _ in range(problem.options.max_iterations):
        delta = lu.solve(r[free])
        u.reshape(-1)[free] -= delta
        increments.append(float(np.linalg.norm(delta)))
        r, rn = residual(problem, u)
        if increments[-1] <= tol_inc and rn <= tol_res:
            return u, increments
    raise AssertionError("reference chord iteration did not converge")


class TestSharedLoop:
    """Chord and Newton run one sweep loop."""

    def test_chord_matches_the_textbook_chord(self):
        u, increments = chord_by_the_book(benchmarks.contraction_problem(16))
        sol = solve_fixed_point(benchmarks.contraction_problem(16))
        assert sol.iterations == len(increments) > 1
        assert np.array_equal(sol.displacement, u)
        assert np.array_equal(sol.increment_history, increments)

    def test_chord_returns_converged_warm_start_without_a_sweep(self,
                                                                scenario_dir):
        # from t = 0.05 on, the warm start of the static compatible problem
        # is converged up to rounding: its residual exceeds 1e-10 but not
        # the residual tolerance of the assembled operator
        sc = load_scenario(scenario_dir / "compatible_sine.cfg")
        sc.solver.method = "fixed_point"
        sc.time = TimeGrid(t_end=0.05, dt=0.05)
        traj = run_coupled(sc)
        assert traj.status == "completed"
        assert [d.t for d in traj.diagnostics] == [0.0, 0.05]
        assert traj.diagnostics[0].equilibrium_iterations > 0
        assert traj.diagnostics[1].equilibrium_iterations == 0
        assert traj.diagnostics[1].equilibrium_residual > 1e-10


class TestFrozenProblem:
    @staticmethod
    def contraction(growth=identity_growth):
        mesh = rectangle_mesh(6, 6, elastic_dirichlet="left")
        return make_problem(mesh, growth=growth, method="newton",
                            traction=lambda pts, n: 0.01 * np.asarray(n))

    def test_fields_cannot_be_reassigned(self):
        problem = self.contraction()
        solve_newton(problem)
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.growth = lambda pts: 0.98 * identity_growth(pts)

    def test_cached_on_first_use(self):
        problem = self.contraction()
        assert problem.workspace is problem.workspace

    def test_replace_solves_like_a_fresh_problem(self):
        grown = lambda pts: 0.98 * identity_growth(pts)
        problem = self.contraction()
        solve_newton(problem)
        replaced = dataclasses.replace(problem, growth=grown)
        assert replaced.workspace is not problem.workspace
        sol = solve_newton(replaced)
        fresh = solve_newton(self.contraction(grown))
        assert sol.iterations == fresh.iterations > 0
        assert np.array_equal(sol.displacement, fresh.displacement)
        assert np.array_equal(sol.stress, fresh.stress)
        assert sol.increment_history == fresh.increment_history


class TestNewton:
    def test_already_converged(self):
        mesh = rectangle_mesh(4, 4)
        sol = solve_newton(make_problem(mesh, method="newton"))
        assert sol.iterations == 0

    def test_affine_dilation_exact(self):
        # compatible uniform dilation: affine solution is exact in P1
        mesh = rectangle_mesh(8, 8)
        c = 1.2
        problem = make_problem(
            mesh, growth=lambda pts: c * identity_growth(pts),
            dirichlet=lambda pts: c * np.asarray(pts), method="newton")
        sol = solve_newton(problem)
        assert sol.iterations <= 2
        assert np.max(np.abs(sol.deformation - c * mesh.vertices)) <= 1e-10
        P = stress_field(problem, sol.displacement)
        assert np.max(np.abs(P)) <= 1e-10

    def test_rotation_data_costs_nothing(self):
        mesh = rectangle_mesh(6, 6)
        Q = tensor.rotation(0.3)
        problem = make_problem(mesh, dirichlet=lambda pts: pts @ Q.T)
        sol = solve_newton(problem)
        assert np.max(np.abs(sol.deformation - mesh.vertices @ Q.T)) <= 1e-11
        assert elastic_energy(problem, sol.displacement) <= 1e-13


class TestEnergy:
    def test_reference_energy_zero(self):
        mesh = rectangle_mesh(4, 4)
        problem = make_problem(mesh)
        assert elastic_energy(problem, np.zeros((mesh.num_vertices, 2))) == 0.0

    def test_compatible_energy_decay(self):
        # the discrete minimum energy decays at second order
        energies = []
        for n in (8, 16):
            mesh = rectangle_mesh(n, n)
            fmap, fgrad = sine_map_nodes(0.05)
            problem = EquilibriumProblem(
                mesh, PolarWellEnergy(),
                growth=lambda pts: fgrad(0.0, pts),
                dirichlet_data=lambda pts: fmap(0.0, pts),
                options=SolverOptions(method="newton"))
            sol = solve_newton(problem)
            energies.append(elastic_energy(problem, sol.displacement))
        assert 3.5 <= energies[0] / energies[1] <= 4.5

    def test_warm_start_converges_to_same_solution(self):
        mesh = rectangle_mesh(6, 6, elastic_dirichlet="left")
        tr = lambda pts, n: 0.01 * np.asarray(n)
        cold = solve_fixed_point(make_problem(mesh, traction=tr))
        rng = np.random.default_rng(1)
        warm_init = cold.displacement + 1e-4 * rng.standard_normal(
            cold.displacement.shape)
        warm = solve_fixed_point(make_problem(mesh, traction=tr),
                                 initial=warm_init)
        assert np.max(np.abs(warm.displacement
                             - cold.displacement)) <= 1e-10


def newton_recomputing_base(problem, newton=True):
    """Newton with line search, or with ``newton=False`` the chord
    iteration, written so that every value is recomputed where it is used:
    each potential, residual, stress and tangent takes an elastic state of
    its own, the base potential is evaluated afresh at every sweep, and
    `fem.eliminate` splits each operator.  Returns (u, increments,
    residual norm, potential calls, stress, rho_hat)."""
    ws = problem.workspace
    u = np.zeros((problem.mesh.num_vertices, 2))
    r, rn = residual(problem, u)
    K = ws.stiffness(ws.elastic_state(u))
    tol_inc, tol_res = elasticity._tolerances(ws, K)
    increments, calls, rho_hat = [], 0, 0.0
    for k in range(1, problem.options.max_iterations + 1):
        if k == 1 or newton:
            if k > 1:
                K = ws.stiffness(ws.elastic_state(u))
            Kff, _, free = fem.eliminate(K, ws.system.fixed)
            lu = fem._factorize_spd(Kff)
        delta = -lu.solve(r[free])
        step = 1.0
        if newton:
            slope = float(r[free] @ delta)
            base = ws.potential(ws.elastic_state(u))
            slack = 64.0 * np.finfo(float).eps * (1.0 + abs(base))
            calls += 1
            while True:
                trial = u.reshape(-1).copy()
                trial[free] += step * delta
                try:
                    value = ws.potential(
                        ws.elastic_state(trial.reshape(-1, 2)))
                except (OutsideAdmissibleBall, SingularMatrix):
                    value = np.inf
                calls += 1
                if value <= base + 1e-4 * step * slope + slack:
                    break
                step *= 0.5
        u.reshape(-1)[free] += step * delta
        increments.append(step * float(np.linalg.norm(delta)))
        if len(increments) >= 2 and increments[-2] > 1e-300:
            rho_hat = max(rho_hat, increments[-1] / increments[-2])
        r, rn = residual(problem, u)
        if increments[-1] <= tol_inc and rn <= tol_res:
            return (u, increments, rn, calls, stress_field(problem, u),
                    rho_hat)
    raise AssertionError("reference iteration did not converge")


class TestComputedOnce:
    """Values a solve already holds are reused, bit for bit."""

    @staticmethod
    def contraction(method, traction=0.01):
        mesh = rectangle_mesh(6, 6, elastic_dirichlet="left")
        return make_problem(
            mesh, traction=lambda pts, n: traction * np.asarray(n),
            method=method)

    @pytest.mark.parametrize("method", elasticity.METHODS)
    def test_solution_carries_its_stress(self, method):
        problem = self.contraction(method)
        sol = solve_equilibrium(problem)
        assert sol.iterations > 0
        assert np.array_equal(sol.stress,
                              stress_field(problem, sol.displacement))

    def test_zero_sweep_solution_carries_its_stress(self):
        problem = make_problem(rectangle_mesh(4, 4), method="newton")
        sol = solve_equilibrium(problem)
        assert sol.iterations == 0
        assert np.array_equal(sol.stress,
                              stress_field(problem, sol.displacement))

    @pytest.mark.parametrize("traction", [0.01, 0.35])
    def test_newton_base_reuse_matches_recomputed_base(self, traction):
        u, increments, rn, calls, _, _ = newton_recomputing_base(
            self.contraction("newton", traction))
        problem = self.contraction("newton", traction)
        ws = problem.workspace
        potential = ws.potential
        counted = []

        def counting(v):
            counted.append(1)
            return potential(v)
        ws.potential = counting
        sol = solve_newton(problem)
        assert np.array_equal(sol.displacement, u)
        assert sol.increment_history == increments
        assert sol.residual_norm == rn
        # one base evaluation per solve instead of one per sweep
        assert len(counted) == calls - (sol.iterations - 1)

    @pytest.mark.parametrize("method, traction", [("fixed_point", 0.01),
                                                  ("newton", 0.01),
                                                  ("newton", 0.35)])
    def test_state_reuse_matches_recomputing_reference(self, method,
                                                       traction):
        u, increments, rn, _, stress, rho_hat = newton_recomputing_base(
            self.contraction(method, traction), newton=method == "newton")
        sol = solve_equilibrium(self.contraction(method, traction))
        assert sol.iterations == len(increments) > 1
        assert np.array_equal(sol.displacement, u)
        assert np.array_equal(sol.stress, stress)
        assert sol.increment_history == increments
        assert sol.rho_hat == rho_hat
        assert sol.residual_norm == rn

    @pytest.mark.parametrize("traction", [0.01, 0.35])
    def test_one_elastic_state_per_newton_iterate(self, traction,
                                                  monkeypatch):
        problem = self.contraction("newton", traction)
        ws = problem.workspace
        inner = ws.elastic_state
        iterates = []

        def counting(u):
            iterates.append(np.array(u, copy=True).tobytes())
            return inner(u)
        ws.elastic_state = counting
        det = np.linalg.det
        state_dets = []

        def counting_det(F):
            if np.shape(F) == ws.Gq.shape:
                state_dets.append(1)
            return det(F)
        monkeypatch.setattr(np.linalg, "det", counting_det)
        potential = ws.potential
        potentials = []

        def counting_potential(state):
            potentials.append(1)
            return potential(state)
        ws.potential = counting_potential
        sol = solve_newton(problem)
        assert sol.iterations > 1
        # the start iterate and every line-search trial, each once
        assert len(iterates) == len(set(iterates)) == len(potentials)
        assert len(state_dets) == len(iterates)

    def test_bincount_residual_matches_scatter_add(self):
        problem = self.contraction("fixed_point")
        ws = problem.workspace
        rng = np.random.default_rng(4)
        u = 0.01 * rng.standard_normal((problem.mesh.num_vertices, 2))
        u.reshape(-1)[ws.system.fixed] = 0.0
        r, rn, P = ws.residual(ws.elastic_state(u))
        contrib = np.einsum("cq,cqia,cAa->cAi", ws.weights, P, ws.grads)
        expected = np.zeros(2 * problem.mesh.num_vertices)
        np.add.at(expected, ws.system.edofs, contrib.reshape(-1, 6))
        expected -= ws.traction_load
        assert np.array_equal(r, expected)
        assert rn == float(np.linalg.norm(expected[ws.system.free]))

    def test_workspace_takes_the_lift_gradient(self):
        problem = self.contraction("fixed_point")
        ws = problem.workspace
        assert np.array_equal(ws.grad_ft,
                              fem.interpolate_gradient(problem.mesh,
                                                       ws.f_tilde))


class _Factor:
    """A weakly referenceable stand-in for a SuperLU factor."""

    def __init__(self, lu):
        self.lu = lu

    def __getattr__(self, name):
        return getattr(self.lu, name)


class TestWorkingSet:
    """A solve's working set: the mesh tier is built once per mesh, and a
    solve holds one factor at a time."""

    def test_contraction_problems_of_one_size_share_the_mesh_tier(
            self, monkeypatch):
        gc.collect()
        systems = []
        system = fem.DirichletSystem

        def counting_system(*args, **kwargs):
            systems.append(args[0])
            return system(*args, **kwargs)
        monkeypatch.setattr(fem, "DirichletSystem", counting_system)
        factorize = fem._factorize_spd
        factors = []

        def counting_factorize(K):
            factors.append(1)
            return factorize(K)
        monkeypatch.setattr(fem, "_factorize_spd", counting_factorize)
        chord = benchmarks.contraction_problem(10)
        newton = benchmarks.contraction_problem(10, method="newton")
        assert chord.mesh is newton.mesh
        solve_fixed_point(chord)
        sol = solve_newton(newton)
        # one vector system and one scalar for the lift; one lift factor,
        # the chord's operator and one tangent per Newton sweep
        n = chord.mesh.num_vertices
        assert sorted(systems) == [n, 2 * n]
        assert len(factors) == 2 + sol.iterations

    def test_zero_sweep_solve_builds_no_vector_sort(self, monkeypatch):
        # a solve that returns at iterate 0 reads the vector system's dof
        # layout only; its recorded sort is built at the first assembly
        sorted_dofs = []
        coo = fem._coo

        def counting_coo(n_dofs, *args):
            sorted_dofs.append(n_dofs)
            return coo(n_dofs, *args)
        monkeypatch.setattr(fem, "_coo", counting_coo)
        mesh = rectangle_mesh(4, 4)
        n = mesh.num_vertices
        for method in ("fixed_point", "newton"):
            sol = solve_equilibrium(make_problem(mesh, method=method))
            assert sol.iterations == 0
        assert sorted_dofs == [n]  # the lift's scalar system
        assert sol.deformation.tobytes() == mesh.vertices.tobytes()
        sol = solve_equilibrium(make_problem(
            mesh, dirichlet=lambda pts: pts + 0.05 * pts ** 2))
        assert sol.iterations > 0 and sorted_dofs == [n, 2 * n]

    def test_newton_holds_one_factor_and_one_operator(self, monkeypatch):
        problem = benchmarks.contraction_problem(8, method="newton")
        problem.workspace  # the lift factor stays cached with the mesh

        def tracking(what, build, live):
            def tracked(*args, **kwargs):
                gc.collect()
                assert all(ref() is None for ref in live), \
                    "the previous sweep's %s is still reachable" % what
                made = build(*args, **kwargs)
                live.append(weakref.ref(made))
                return made
            return tracked
        factors, operators = [], []
        splu = fem.spla.splu
        monkeypatch.setattr(fem, "spla", types.SimpleNamespace(
            splu=tracking("factor", lambda *a, **k: _Factor(splu(*a, **k)),
                          factors)))
        monkeypatch.setattr(fem, "assemble_vector_operator", tracking(
            "operator", fem.assemble_vector_operator, operators))
        sol = solve_newton(problem)
        assert sol.iterations >= 2
        assert len(factors) == len(operators) == sol.iterations
