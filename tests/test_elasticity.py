import io

import numpy as np
import pytest

from morphosim import elasticity, expressions as ex, fem, tensor
from morphosim.elasticity import (EquilibriumProblem, SolverOptions,
                                  assemble_linearized_at_zero, elastic_energy,
                                  frozen_update, lift_dirichlet, residual,
                                  solve_equilibrium, solve_fixed_point,
                                  solve_newton, stress_field)
from morphosim.errors import (ContractionLost, LiftDegenerate, NoConvergence,
                              OutsideAdmissibleBall, ValidationError)
from morphosim.materials import PolarWellEnergy
from morphosim.mesh import rectangle_mesh


def identity_growth(pts):
    return np.broadcast_to(np.eye(2),
                           np.asarray(pts).shape[:-1] + (2, 2)).copy()


def identity_map(pts):
    return np.asarray(pts, dtype=float)


def make_problem(mesh, growth=identity_growth, dirichlet=identity_map,
                 traction=None, **opts):
    return EquilibriumProblem(mesh, PolarWellEnergy(dim=2), growth, dirichlet,
                              traction, options=SolverOptions(**opts))


def sine_map_nodes(amplitude=0.05):
    body = ("x + %.17g*sin(pi*x)*sin(pi*y), y + %.17g*sin(pi*x)*sin(pi*y)"
            % (amplitude, amplitude))
    nodes = ex.parse_vector(body, 2)
    return (ex.vector_evaluator(nodes), ex.gradient_evaluator(nodes))


class TestLift:
    def test_identity_data(self):
        mesh = rectangle_mesh(4, 4)
        ft = lift_dirichlet(mesh, identity_map)
        assert np.array_equal(ft, mesh.vertices)

    def test_constant_shift_partial_boundary(self):
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        c = np.array([0.2, -0.1])
        ft = lift_dirichlet(mesh, lambda pts: pts + c)
        assert np.max(np.abs(ft - (mesh.vertices + c))) <= 1e-12

    def test_uniform_inflation_is_reproduced(self):
        # f = (1 - t)^-1 id at t = 1/4 extends to (4/3) id exactly
        mesh = rectangle_mesh(6, 6)
        ft = lift_dirichlet(mesh, lambda pts: pts / 0.75)
        assert np.max(np.abs(ft - mesh.vertices / 0.75)) <= 1e-12

    def test_degenerate_lift(self):
        mesh = rectangle_mesh(4, 4)

        def folding(pts):
            out = np.array(pts, dtype=float, copy=True)
            out[:, 0] = -out[:, 0]  # reflection folds the domain
            return out

        with pytest.raises(LiftDegenerate):
            lift_dirichlet(mesh, folding)


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
        ft = lift_dirichlet(mesh, dirichlet)
        grad_cells = fem.interpolate_gradient(mesh, ft)
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
        ws = elasticity.prepare(problem)
        rng = np.random.default_rng(3)
        u = 0.01 * rng.standard_normal((mesh.num_vertices, 2))
        u.reshape(-1)[ws.fixed_dofs] = 0.0
        r, _ = residual(problem, u)
        v = rng.standard_normal((mesh.num_vertices, 2))
        v.reshape(-1)[ws.fixed_dofs] = 0.0
        h = 1e-7
        fd = (ws.potential(u + h * v) - ws.potential(u - h * v)) / (2 * h)
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
        ws = elasticity.prepare(problem)
        A = ws.coefficient_tensor(np.zeros((mesh.num_vertices, 2)))
        e = PolarWellEnergy(dim=2)
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
        ws = elasticity.prepare(problem)
        A = ws.coefficient_tensor(np.zeros((mesh.num_vertices, 2)))
        e = PolarWellEnergy(dim=2)
        H = e.second_derivative(np.zeros(2), np.eye(2))
        expected = (c ** 2 / c ** 2) * H.transpose(0, 2, 1, 3)
        assert np.max(np.abs(A - expected)) <= 1e-12

    def test_stiffness_is_residual_jacobian(self):
        # K v matches the finite difference of the residual, pinning the
        # coefficient index convention end to end
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        problem = make_problem(
            mesh, traction=lambda pts, n: 0.02 * np.asarray(n))
        ws = elasticity.prepare(problem)
        u = np.zeros((mesh.num_vertices, 2))
        system = ws.stiffness(u)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(2 * mesh.num_vertices)
        v[ws.fixed_dofs] = 0.0
        h = 1e-7
        rp, _ = residual(problem, (u.reshape(-1) + h * v).reshape(-1, 2))
        rm, _ = residual(problem, (u.reshape(-1) - h * v).reshape(-1, 2))
        fd = (rp - rm) / (2 * h)
        Kv = system.matrix @ v
        free = system.free_dofs()
        scale = max(1.0, float(np.max(np.abs(fd[free]))))
        assert np.max(np.abs(Kv[free] - fd[free])) / scale <= 1e-6

    def test_matrix_symmetry_random_growth(self):
        rng = np.random.default_rng(5)
        mesh = rectangle_mesh(4, 4)
        G = np.eye(2) + 0.1 * rng.standard_normal((mesh.num_vertices, 2, 2))
        problem = make_problem(mesh, growth=G)
        system = assemble_linearized_at_zero(problem)
        assert system.symmetry_error() <= 1e-10

    def test_spd_on_constrained_space(self):
        mesh = rectangle_mesh(6, 6, elastic_dirichlet="bottom")
        problem = make_problem(mesh)
        system = assemble_linearized_at_zero(problem)
        assert fem.smallest_eigenvalue_estimate(system) > 0.0

    def test_growth_validation(self):
        mesh = rectangle_mesh(2, 2)
        bad = np.broadcast_to(np.diag([1.0, -1.0]),
                              (mesh.num_vertices, 2, 2)).copy()
        with pytest.raises(ValidationError):
            assemble_linearized_at_zero(make_problem(mesh, growth=bad))

    def test_growth_radius_guard(self):
        mesh = rectangle_mesh(2, 2)
        G = 1.3 * identity_growth(mesh.vertices)
        problem = make_problem(mesh, growth=G,
                               dirichlet=lambda p: 1.3 * np.asarray(p),
                               growth_radius=0.2)
        with pytest.raises(ValidationError):
            assemble_linearized_at_zero(problem)


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
            mesh, traction=lambda pts, n: 0.02 * np.asarray(n))
        rng = np.random.default_rng(11)
        u = 0.005 * rng.standard_normal((mesh.num_vertices, 2))
        stepped = frozen_update(problem, u)

        ws = elasticity.prepare(problem)
        u0 = np.array(u, copy=True)
        u0.reshape(-1)[ws.fixed_dofs] = 0.0
        system = assemble_linearized_at_zero(problem)
        Kff, _, free = system.reduced()
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

    def test_hybrid_matches(self):
        mesh = rectangle_mesh(6, 6, elastic_dirichlet="left")
        tr = lambda pts, n: 0.01 * np.asarray(n)
        hybrid = solve_equilibrium(make_problem(mesh, traction=tr,
                                                method="hybrid"))
        newton = solve_newton(make_problem(mesh, traction=tr))
        assert hybrid.method == "hybrid"
        assert np.max(np.abs(hybrid.displacement
                             - newton.displacement)) <= 1e-10


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
                mesh, PolarWellEnergy(dim=2),
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


def newton_recomputing_base(problem):
    """Newton with line search that evaluates the base potential afresh at
    every sweep.  Returns (u, increments, residual norm, potential calls)."""
    ws = elasticity.prepare(problem)
    u = np.zeros((problem.mesh.num_vertices, 2))
    r, rn = residual(problem, u)
    system = ws.stiffness(u)
    tol_inc, tol_res = elasticity._tolerances(
        problem, ws, float(np.max(np.abs(system.matrix.data))))
    increments, calls = [], 0
    for k in range(1, problem.options.max_iterations + 1):
        if k > 1:
            system = ws.stiffness(u)
        Kff, _, free = system.reduced()
        delta = -fem._factorize_spd(Kff).solve(r[free])
        slope = float(r[free] @ delta)
        base = ws.potential(u)
        slack = 64.0 * np.finfo(float).eps * (1.0 + abs(base))
        step = 1.0
        calls += 1
        while True:
            trial = u.reshape(-1).copy()
            trial[free] += step * delta
            try:
                value = ws.potential(trial.reshape(-1, 2))
            except OutsideAdmissibleBall:
                value = np.inf
            calls += 1
            if value <= base + 1e-4 * step * slope + slack:
                break
            step *= 0.5
        u.reshape(-1)[free] += step * delta
        increments.append(step * float(np.linalg.norm(delta)))
        r, rn = residual(problem, u)
        if increments[-1] <= tol_inc and rn <= tol_res:
            return u, increments, rn, calls
    raise AssertionError("reference Newton did not converge")


class TestComputedOnce:
    """Values a solve already holds are reused, bit for bit."""

    @staticmethod
    def contraction(method, traction=0.01):
        mesh = rectangle_mesh(6, 6, elastic_dirichlet="left")
        return make_problem(
            mesh, traction=lambda pts, n: traction * np.asarray(n),
            method=method)

    @pytest.mark.parametrize("method", ["fixed_point", "newton", "hybrid"])
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
        u, increments, rn, calls = newton_recomputing_base(
            self.contraction("newton", traction))
        problem = self.contraction("newton", traction)
        ws = elasticity.prepare(problem)
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

    def test_bincount_residual_matches_scatter_add(self):
        problem = self.contraction("fixed_point")
        ws = elasticity.prepare(problem)
        rng = np.random.default_rng(4)
        u = 0.01 * rng.standard_normal((problem.mesh.num_vertices, 2))
        u.reshape(-1)[ws.fixed_dofs] = 0.0
        r, rn, P = ws.residual(u)
        contrib = np.einsum("cq,cqia,cAa->cAi", ws.weights, P, ws.grads)
        expected = np.zeros(2 * problem.mesh.num_vertices)
        np.add.at(expected, ws.edofs, contrib)
        expected -= ws.traction_load
        assert np.array_equal(r, expected)
        assert rn == float(np.linalg.norm(expected[ws.free]))

    def test_workspace_takes_the_lift_gradient(self):
        problem = self.contraction("fixed_point")
        ws = elasticity.prepare(problem)
        assert np.array_equal(ws.grad_ft,
                              fem.interpolate_gradient(problem.mesh,
                                                       ws.f_tilde))
