import numpy as np
import pytest
import scipy.sparse as sp

from morphosim import fem
from morphosim.errors import (AssemblyError, EllipticityViolation,
                              SingularSystem)
from morphosim.materials import PolarWellEnergy
from morphosim.mesh import rectangle_mesh

NQ = 3


def identity_tensor(mesh):
    A = np.einsum("ij,ab->ijab", np.eye(2), np.eye(2))
    return np.broadcast_to(A, (mesh.num_cells, NQ, 2, 2, 2, 2))


def hessian_tensor(mesh):
    """Constant coefficients from the energy Hessian at the identity."""
    e = PolarWellEnergy(dim=2)
    H = e.second_derivative(np.zeros(2), np.eye(2))
    return np.broadcast_to(H, (mesh.num_cells, NQ, 2, 2, 2, 2))


class TestVectorOperator:
    def test_zero_data_gives_zero(self):
        mesh = rectangle_mesh(4, 4)
        system = fem.assemble_vector_operator(mesh, identity_tensor(mesh))
        u = fem.solve_sparse(system)
        assert np.max(np.abs(u)) <= 1e-14

    @pytest.mark.parametrize("coeff", ["laplace", "hessian"])
    def test_affine_patch(self, coeff):
        mesh = rectangle_mesh(8, 8)
        A = identity_tensor(mesh) if coeff == "laplace" else hessian_tensor(mesh)
        B = np.array([[0.7, -0.3], [0.2, 1.1]])
        a = np.array([0.4, -0.1])
        affine = lambda pts: pts @ B.T + a
        system = fem.assemble_vector_operator(mesh, A, dirichlet=affine)
        u = fem.solve_sparse(system).reshape(-1, 2)
        assert np.max(np.abs(u - affine(mesh.vertices))) <= 1e-11

    def test_symmetry_for_random_major_symmetric_coefficient(self):
        rng = np.random.default_rng(0)
        mesh = rectangle_mesh(4, 4)
        A = rng.standard_normal((mesh.num_cells, NQ, 2, 2, 2, 2))
        A = 0.5 * (A + np.einsum("cqijab->cqjiba", A))  # impose major symmetry
        system = fem.assemble_vector_operator(mesh, A)
        assert system.symmetry_error() <= 1e-10

    def test_nonfinite_coefficient(self):
        mesh = rectangle_mesh(2, 2)
        A = np.array(identity_tensor(mesh), dtype=float, copy=True)
        A[0, 0, 0, 0, 0, 0] = np.nan
        with pytest.raises(AssemblyError):
            fem.assemble_vector_operator(mesh, A)

    def test_volume_load_constant_displacement(self):
        # manufactured: -div(grad u) = 0 with u = const on the boundary
        mesh = rectangle_mesh(4, 4)
        system = fem.assemble_vector_operator(
            mesh, identity_tensor(mesh),
            dirichlet=lambda pts: np.full((len(pts), 2), 2.5))
        u = fem.solve_sparse(system).reshape(-1, 2)
        assert np.max(np.abs(u - 2.5)) <= 1e-12

    def test_neumann_load_enters_rhs(self):
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        system = fem.assemble_vector_operator(
            mesh, identity_tensor(mesh),
            neumann_load=lambda pts, n: 0.5 * np.asarray(n))
        assert np.linalg.norm(system.rhs) > 0.0


class TestScalarOperator:
    def test_constant_dirichlet_solution(self):
        mesh = rectangle_mesh(6, 6)
        eye = np.broadcast_to(np.eye(2), (mesh.num_cells, NQ, 2, 2))
        system = fem.assemble_scalar_operator(
            mesh, eye, reaction=0.0, dirichlet=lambda pts: np.full(len(pts), 3.0))
        N = fem.solve_sparse(system)
        assert np.max(np.abs(N - 3.0)) <= 1e-12

    def test_cosh_manufactured_convergence(self):
        # -N'' + N = 0 is solved exactly by cosh(x); nodal error is O(h^2)
        errors = []
        for n in (8, 16, 32):
            mesh = rectangle_mesh(n, n)
            eye = np.broadcast_to(np.eye(2), (mesh.num_cells, NQ, 2, 2))
            system = fem.assemble_scalar_operator(
                mesh, eye, reaction=1.0,
                dirichlet=lambda pts: np.cosh(pts[:, 0]))
            N = fem.solve_sparse(system)
            errors.append(np.max(np.abs(N - np.cosh(mesh.vertices[:, 0]))))
        assert 3.0 <= errors[0] / errors[1] <= 5.2
        assert 3.0 <= errors[1] / errors[2] <= 5.2

    def test_pure_neumann_without_reaction_is_singular(self):
        mesh = rectangle_mesh(4, 4, nutrient_dirichlet="none")
        eye = np.broadcast_to(np.eye(2), (mesh.num_cells, NQ, 2, 2))
        system = fem.assemble_scalar_operator(mesh, eye, reaction=0.0)
        with pytest.raises(SingularSystem):
            fem.solve_sparse(system)

    def test_ellipticity_violation(self):
        mesh = rectangle_mesh(2, 2)
        D = np.broadcast_to(0.05 * np.eye(2), (mesh.num_cells, NQ, 2, 2))
        with pytest.raises(EllipticityViolation):
            fem.assemble_scalar_operator(mesh, D, ellipticity_nu=0.1)

    def test_negative_reaction_rejected(self):
        mesh = rectangle_mesh(2, 2)
        eye = np.broadcast_to(np.eye(2), (mesh.num_cells, NQ, 2, 2))
        with pytest.raises(AssemblyError):
            fem.assemble_scalar_operator(mesh, eye, reaction=-1.0)


class TestSolveSparse:
    def test_one_by_one(self):
        system = fem.SparseSystem(sp.csr_matrix(np.array([[2.0]])),
                                  np.array([4.0]))
        assert np.allclose(fem.solve_sparse(system), [2.0])

    def test_indefinite_raises(self):
        system = fem.SparseSystem(
            sp.csr_matrix(np.diag([1.0, -1.0])), np.array([1.0, 1.0]))
        with pytest.raises(SingularSystem):
            fem.solve_sparse(system)

    def test_cg_path_matches_direct(self):
        mesh = rectangle_mesh(8, 8)
        eye = np.broadcast_to(np.eye(2), (mesh.num_cells, NQ, 2, 2))
        system = fem.assemble_scalar_operator(
            mesh, eye, reaction=1.0,
            dirichlet=lambda pts: np.cosh(pts[:, 0]))
        direct = fem.solve_sparse(system)
        iterative = fem.solve_sparse(system, direct_threshold=0, tol=1e-13)
        assert np.max(np.abs(direct - iterative)) <= 1e-9

    def test_cg_breakdown_on_indefinite(self):
        # right-hand side along the negative eigenvector forces pAp < 0
        system = fem.SparseSystem(
            sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])),
            np.array([1.0, -1.0]))
        with pytest.raises(SingularSystem):
            fem.solve_sparse(system, direct_threshold=0)

    def test_fully_constrained(self):
        system = fem.SparseSystem(sp.csr_matrix(np.eye(2)),
                                  np.zeros(2), np.array([0, 1]),
                                  np.array([3.0, 4.0]))
        assert np.allclose(fem.solve_sparse(system), [3.0, 4.0])


class TestEigenvalueEstimate:
    def test_identity(self):
        system = fem.SparseSystem(sp.csr_matrix(np.eye(5)), np.zeros(5))
        assert abs(fem.smallest_eigenvalue_estimate(system) - 1.0) <= 1e-3

    def test_diagonal(self):
        system = fem.SparseSystem(sp.csr_matrix(np.diag([3.0, 5.0, 0.25])),
                                  np.zeros(3))
        lam = fem.smallest_eigenvalue_estimate(system)
        assert abs(lam - 0.25) <= 1e-3 * 0.25

    def test_assembled_stiffness_positive(self):
        # discrete coercivity of the linearized operator with constraints
        mesh = rectangle_mesh(6, 6, elastic_dirichlet="left")
        system = fem.assemble_vector_operator(mesh, hessian_tensor(mesh))
        lam = fem.smallest_eigenvalue_estimate(system)
        assert lam > 0.0


class TestGradients:
    def test_identity_map(self):
        mesh = rectangle_mesh(3, 3)
        grad = fem.interpolate_gradient(mesh, mesh.vertices)
        assert np.max(np.abs(grad - np.eye(2))) <= 1e-13

    def test_affine_map(self):
        mesh = rectangle_mesh(3, 3)
        B = np.array([[1.2, 0.3], [-0.4, 0.9]])
        grad = fem.interpolate_gradient(mesh, mesh.vertices @ B.T + 1.0)
        assert np.max(np.abs(grad - B)) <= 1e-12

    def test_smooth_map_first_order(self):
        errs = []
        for n in (8, 16):
            mesh = rectangle_mesh(n, n)
            x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
            field = np.stack([np.sin(x) * np.cosh(y), x * y], axis=1)
            grad = fem.interpolate_gradient(mesh, field)
            cent = mesh.vertices[mesh.cells].mean(axis=1)
            exact = np.empty((mesh.num_cells, 2, 2))
            exact[:, 0, 0] = np.cos(cent[:, 0]) * np.cosh(cent[:, 1])
            exact[:, 0, 1] = np.sin(cent[:, 0]) * np.sinh(cent[:, 1])
            exact[:, 1, 0] = cent[:, 1]
            exact[:, 1, 1] = cent[:, 0]
            errs.append(np.max(np.abs(grad - exact)))
        assert errs[0] <= 0.5 / 8
        assert errs[1] <= 0.7 * errs[0]

    def test_scalar_gradient(self):
        mesh = rectangle_mesh(3, 3)
        grad = fem.interpolate_gradient(mesh, mesh.vertices[:, 0] * 2.0)
        assert np.allclose(grad, [2.0, 0.0])

    def test_nodal_from_cells_constant(self):
        mesh = rectangle_mesh(4, 4)
        vals = np.full((mesh.num_cells, 2), 3.5)
        nodal = fem.nodal_from_cells(mesh, vals)
        assert np.allclose(nodal, 3.5)



def nodal_from_cells_scatter_add(mesh, cell_values):
    """Loop-per-corner scatter-add transfer (reference for the bincount
    version)."""
    cell_values = np.asarray(cell_values, dtype=float)
    vols = mesh.cell_volumes()
    acc = np.zeros((mesh.num_vertices,) + cell_values.shape[1:])
    den = np.zeros(mesh.num_vertices)
    column = (-1,) + (1,) * (cell_values.ndim - 1)
    weighted = vols.reshape(column) * cell_values
    for A in range(3):
        np.add.at(acc, mesh.cells[:, A], weighted)
        np.add.at(den, mesh.cells[:, A], vols)
    return acc / den.reshape(column)


class TestComputedOnce:
    @pytest.mark.parametrize("mode", ["crossed", "diagonal"])
    @pytest.mark.parametrize("trailing", [(), (2,), (2, 2)])
    def test_nodal_from_cells_matches_scatter_add(self, mode, trailing):
        mesh = rectangle_mesh(5, 4, mode=mode)
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((mesh.num_cells,) + trailing)
        got = fem.nodal_from_cells(mesh, vals)
        assert got.shape == (mesh.num_vertices,) + trailing
        assert np.array_equal(got, nodal_from_cells_scatter_add(mesh, vals))

    def test_zero_dirichlet_reduction_is_exact(self):
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        system = fem.assemble_vector_operator(mesh, hessian_tensor(mesh))
        rng = np.random.default_rng(2)
        system.rhs = rng.standard_normal(system.rhs.shape)
        assert not np.any(system.fixed_values)
        Kff, bf, free = system.reduced()
        K = system.matrix
        expected = system.rhs[free] - K[free][:, system.fixed_dofs] @ \
            system.fixed_values
        assert np.array_equal(bf, expected)
        assert (Kff != K[free][:, free]).nnz == 0

    def test_solve_reduced_reports_verified_residual(self):
        mesh = rectangle_mesh(4, 4)
        system = fem.assemble_scalar_operator(mesh, np.eye(2), reaction=1.0,
                                              dirichlet=2.0)
        Kff, bf, free = system.reduced()
        x, resid = fem.solve_reduced(Kff, bf)
        full = fem.solve_sparse(system)
        assert np.array_equal(full[free], x)
        assert resid == float(np.linalg.norm(Kff @ x - bf))
