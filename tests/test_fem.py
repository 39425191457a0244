import numpy as np
import pytest
import scipy.sparse as sp

from morphosim import benchmarks, elasticity, fem
from morphosim.errors import (AssemblyError, EllipticityViolation,
                              SingularJacobian, SingularSystem)
from morphosim.materials import PolarWellEnergy
from morphosim.mesh import rectangle_mesh

NQ = 3


def identity_tensor(mesh):
    A = np.einsum("ij,ab->ijab", np.eye(2), np.eye(2))
    return np.broadcast_to(A, (mesh.num_cells, NQ, 2, 2, 2, 2))


def hessian_tensor(mesh):
    """Constant coefficients from the energy Hessian at the identity."""
    e = PolarWellEnergy()
    H = e.second_derivative(np.zeros(2), np.eye(2))
    return np.broadcast_to(H, (mesh.num_cells, NQ, 2, 2, 2, 2))


def elastic_dofs(mesh):
    nodes = mesh.elastic_dirichlet_nodes()
    return (2 * nodes[:, None] + np.arange(2)).ravel()


def solve_vector(mesh, coeff, data):
    """Nodal solution with the values of `data` (a callable on points) at
    the elastic Dirichlet nodes."""
    K = fem.assemble_vector_operator(mesh, coeff)
    nodes = mesh.elastic_dirichlet_nodes()
    values = np.asarray(data(mesh.vertices[nodes]), dtype=float).ravel()
    u, _ = fem.dirichlet_system(mesh, 2, nodes).solve(
        K, np.zeros(K.shape[0]), values)
    return u.reshape(-1, 2)


def solve_scalar(mesh, data, **coefficients):
    """Identity-diffusion solution with the values of `data` at the
    nutrient Dirichlet nodes."""
    eye = np.broadcast_to(np.eye(2), (mesh.num_cells, NQ, 2, 2))
    K = fem.assemble_scalar_operator(mesh, eye, **coefficients)
    nodes = mesh.nutrient_dirichlet_nodes()
    values = np.asarray(data(mesh.vertices[nodes]), dtype=float)
    N, _ = fem.dirichlet_system(mesh, 1, nodes).solve(
        K, np.zeros(mesh.num_vertices), values)
    return N


class TestVectorOperator:
    def test_zero_data_gives_zero(self):
        mesh = rectangle_mesh(4, 4)
        u = solve_vector(mesh, identity_tensor(mesh),
                         lambda pts: np.zeros((len(pts), 2)))
        assert np.max(np.abs(u)) <= 1e-14

    def test_returns_the_unconstrained_operator(self):
        mesh = rectangle_mesh(4, 4)
        K = fem.assemble_vector_operator(mesh, identity_tensor(mesh))
        assert sp.isspmatrix_csr(K)
        assert K.shape == (2 * mesh.num_vertices,) * 2
        # every row of the Laplacian sums to zero, boundary rows included
        assert np.max(np.abs(K @ np.ones(K.shape[0]))) <= 1e-13

    @pytest.mark.parametrize("coeff", ["laplace", "hessian"])
    def test_affine_patch(self, coeff):
        mesh = rectangle_mesh(8, 8)
        A = identity_tensor(mesh) if coeff == "laplace" else hessian_tensor(mesh)
        B = np.array([[0.7, -0.3], [0.2, 1.1]])
        a = np.array([0.4, -0.1])
        affine = lambda pts: pts @ B.T + a
        u = solve_vector(mesh, A, affine)
        assert np.max(np.abs(u - affine(mesh.vertices))) <= 1e-11

    def test_symmetry_for_random_major_symmetric_coefficient(self):
        rng = np.random.default_rng(0)
        mesh = rectangle_mesh(4, 4)
        A = rng.standard_normal((mesh.num_cells, NQ, 2, 2, 2, 2))
        A = 0.5 * (A + np.einsum("cqijab->cqjiba", A))  # impose major symmetry
        K = fem.assemble_vector_operator(mesh, A)
        Kff, _, _ = fem.eliminate(K, elastic_dofs(mesh))
        assert abs(Kff - Kff.T).max() <= 1e-10 * abs(Kff).max()

    def test_nonfinite_coefficient(self):
        mesh = rectangle_mesh(2, 2)
        A = np.array(identity_tensor(mesh), dtype=float, copy=True)
        A[0, 0, 0, 0, 0, 0] = np.nan
        with pytest.raises(AssemblyError):
            fem.assemble_vector_operator(mesh, A)

    def test_volume_load_constant_displacement(self):
        # manufactured: -div(grad u) = 0 with u = const on the boundary
        mesh = rectangle_mesh(4, 4)
        u = solve_vector(mesh, identity_tensor(mesh),
                         lambda pts: np.full((len(pts), 2), 2.5))
        assert np.max(np.abs(u - 2.5)) <= 1e-12

    def test_neumann_load_enters_rhs(self):
        # 0.5 n on the right, bottom and top sides totals 0.5 * (1, 0)
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        load = fem.boundary_load_vector(
            mesh, ~mesh.facet_elastic_dirichlet,
            lambda pts, n: 0.5 * np.asarray(n), 2)
        assert np.allclose(load.reshape(-1, 2).sum(axis=0), [0.5, 0.0],
                           rtol=0.0, atol=1e-14)


class TestScalarOperator:
    def test_constant_dirichlet_solution(self):
        mesh = rectangle_mesh(6, 6)
        N = solve_scalar(mesh, lambda pts: np.full(len(pts), 3.0),
                         reaction=0.0)
        assert np.max(np.abs(N - 3.0)) <= 1e-12

    def test_cosh_manufactured_convergence(self):
        # -N'' + N = 0 is solved exactly by cosh(x); nodal error is O(h^2)
        errors = []
        for n in (8, 16, 32):
            mesh = rectangle_mesh(n, n)
            N = solve_scalar(mesh, lambda pts: np.cosh(pts[:, 0]),
                             reaction=1.0)
            errors.append(np.max(np.abs(N - np.cosh(mesh.vertices[:, 0]))))
        assert 3.0 <= errors[0] / errors[1] <= 5.2
        assert 3.0 <= errors[1] / errors[2] <= 5.2

    def test_pure_neumann_without_reaction_is_singular(self):
        mesh = rectangle_mesh(4, 4, nutrient_dirichlet="none")
        with pytest.raises(SingularSystem):
            solve_scalar(mesh, lambda pts: np.zeros(len(pts)), reaction=0.0)

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


NONE = np.array([], dtype=int)


def diagonal_system(fixed, n=2):
    """A `DirichletSystem` on n dofs with one 1x1 element per dof, so its
    operators are diagonal."""
    return fem.DirichletSystem(n, np.arange(n)[:, None], fixed)


class TestSolveSparse:
    """`DirichletSystem.solve`, the sparse direct solve with strong
    Dirichlet values."""

    @staticmethod
    def solve(diagonal, rhs, fixed, values):
        system = diagonal_system(fixed, len(diagonal))
        K = system.assemble(np.asarray(diagonal, dtype=float)[:, None, None])
        return system.solve(K, rhs, values)

    def test_one_by_one(self):
        x, _ = self.solve([2.0], np.array([4.0]), NONE, np.zeros(0))
        assert np.allclose(x, [2.0])

    def test_indefinite_raises(self):
        with pytest.raises(SingularSystem):
            self.solve([1.0, -1.0], np.array([1.0, 1.0]), NONE, np.zeros(0))

    def test_fully_constrained(self):
        x, resid = self.solve([1.0, 1.0], np.zeros(2), np.array([0, 1]),
                              np.array([3.0, 4.0]))
        assert np.allclose(x, [3.0, 4.0]) and resid == 0.0

    def test_nonfinite_rhs(self):
        with pytest.raises(AssemblyError):
            self.solve([1.0, 1.0], np.array([1.0, np.inf]), NONE,
                       np.zeros(0))

    def test_other_pattern_is_refused(self):
        system = diagonal_system(NONE)
        for block in (system.ff, system.fc, system.factor):
            with pytest.raises(ValueError, match="pattern"):
                block(sp.csr_matrix(np.ones((2, 2))))
        with pytest.raises(ValueError, match="pattern"):
            system.solve(sp.csr_matrix(np.ones((2, 2))), np.ones(2),
                         np.zeros(0))


class TestEigenvalueEstimate:
    """The pivot check of `fem._factorize_spd` proves that the smallest
    eigenvalue is positive; on a diagonal matrix the pivots are the
    eigenvalues."""

    def test_identity(self):
        lu = fem._factorize_spd(sp.csc_matrix(np.eye(5)))
        assert np.array_equal(lu.U.diagonal(), np.ones(5))

    def test_diagonal(self):
        lu = fem._factorize_spd(sp.csc_matrix(np.diag([3.0, 5.0, 0.25])))
        assert np.min(lu.U.diagonal()) == 0.25
        with pytest.raises(SingularSystem):
            fem._factorize_spd(sp.csc_matrix(np.diag([3.0, 5.0, -0.25])))

    def test_assembled_stiffness_positive(self):
        # discrete coercivity of the linearized operator with constraints
        mesh = rectangle_mesh(6, 6, elastic_dirichlet="left")
        K = fem.assemble_vector_operator(mesh, hessian_tensor(mesh))
        Kff, _, _ = fem.eliminate(K, elastic_dofs(mesh))
        assert np.all(fem._factorize_spd(Kff).U.diagonal() > 0.0)


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


def boundary_load_scatter_add(mesh, facet_mask, load, n_components):
    """`np.add.at` boundary load with a scalar branch (reference for the
    bincount version)."""
    out = np.zeros(mesh.num_vertices * n_components)
    if not np.any(facet_mask):
        return out
    pts, weights, shape, facets = fem._edge_quadrature(mesh, facet_mask)
    normals = mesh.facet_normals()[facet_mask]
    values = load(pts, np.broadcast_to(normals[:, None, :], pts.shape))
    if n_components == 1:
        contrib = np.einsum("kq,Aq,kq->kA", weights, shape, values)
        np.add.at(out, facets, contrib)
    else:
        contrib = np.einsum("kq,Aq,kqi->kAi", weights, shape, values)
        dofs = n_components * facets[:, :, None] + np.arange(n_components)
        np.add.at(out, dofs, contrib)
    return out


BOUNDARY_MESHES = {"crossed_3x2": dict(nx=3, ny=2),
                   "diagonal_4x4": dict(nx=4, ny=4, mode="diagonal"),
                   "crossed_5x3_box": dict(nx=5, ny=3,
                                           extent=((-1.0, 0.5), (2.0, 1.5))),
                   "crossed_6x6": dict(nx=6, ny=6)}


class TestBoundaryLoad:
    @pytest.mark.parametrize("n_components", [1, 2])
    @pytest.mark.parametrize("values", ["random", "negative_zero",
                                        "signed_zeros"])
    @pytest.mark.parametrize("mesh_name", sorted(BOUNDARY_MESHES))
    def test_matches_scatter_add(self, mesh_name, values, n_components):
        # same bytes as the scatter-add, -0.0 included, on 20 facet masks
        mesh = rectangle_mesh(**BOUNDARY_MESHES[mesh_name])
        rng = np.random.default_rng(5)
        tail = (n_components,) if n_components > 1 else ()

        def load(pts, normals):
            shape = pts.shape[:2] + tail
            if values == "random":
                return rng.standard_normal(shape)
            if values == "negative_zero":
                return np.full(shape, -0.0)
            return np.where(rng.random(shape) < 0.5, -0.0, 0.0)

        masks = [np.zeros(len(mesh.facets), bool),
                 np.ones(len(mesh.facets), bool)]
        masks += [rng.random(len(mesh.facets)) < p
                  for p in np.linspace(0.05, 0.95, 18)]
        for mask in masks:
            state = rng.bit_generator.state
            got = fem.boundary_load_vector(mesh, mask, load, n_components)
            rng.bit_generator.state = state
            expected = boundary_load_scatter_add(mesh, mask, load,
                                                 n_components)
            assert got.tobytes() == expected.tobytes()


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
        # eliminate splits rows, then columns; with zero data the reduced
        # load is b_f itself, bit for bit
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left")
        K = fem.assemble_vector_operator(mesh, hessian_tensor(mesh))
        fixed = elastic_dofs(mesh)
        Kff, Kf, free = fem.eliminate(K, fixed)
        assert np.array_equal(free, np.setdiff1d(np.arange(K.shape[0]),
                                                 fixed))
        assert sp.isspmatrix_csc(Kff)
        assert (Kf != K[free]).nnz == 0
        assert (Kff != K[free][:, free]).nnz == 0
        rhs = np.random.default_rng(2).standard_normal(K.shape[0])
        x, resid = fem.dirichlet_system(
            mesh, 2, mesh.elastic_dirichlet_nodes()).solve(
                K, rhs, np.zeros(len(fixed)))
        expected = fem._factorize_spd(Kff).solve(rhs[free])
        assert np.array_equal(x[free], expected)
        assert not np.any(x[fixed])
        assert resid == float(np.linalg.norm(Kff @ expected - rhs[free]))

    def test_solve_reduced_reports_verified_residual(self):
        mesh = rectangle_mesh(4, 4)
        K = fem.assemble_scalar_operator(mesh, np.eye(2), reaction=1.0)
        rhs = np.zeros(mesh.num_vertices)
        nodes = mesh.nutrient_dirichlet_nodes()
        values = np.full(len(nodes), 2.0)
        x, resid = fem.dirichlet_system(mesh, 1, nodes).solve(K, rhs,
                                                              values)
        Kff, Kf, free = fem.eliminate(K, nodes)
        bf = rhs[free] - Kf[:, nodes] @ values
        assert np.array_equal(x[nodes], values)
        assert resid == float(np.linalg.norm(Kff @ x[free] - bf))


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def kept_order_factor(system, K):
    """The factor `system` gives K after its first factorization, which
    keeps the column order: the kept-order path."""
    system.factor(K)
    lu = system.factor(K)
    assert isinstance(lu, fem._KeptOrderFactor)
    return lu


def negated_diagonal(system, K, dof):
    """K with the diagonal entry of the free dof `system.free[dof]`
    negated."""
    K = K.copy()
    i = system.free[dof]
    row = slice(K.indptr[i], K.indptr[i + 1])
    K.data[row][K.indices[row] == i] *= -1.0
    return K


class TestKeptOrder:
    """A Dirichlet system's first factorization orders K_ff by
    MMD_AT_PLUS_A and keeps its column order; every later one factorizes
    K_ff gathered in that order, its rows in stored order, by NATURAL.
    Solutions and pivots equal a fresh MMD factorization of the same K_ff,
    byte for byte: SuperLU's depth-first search visits rows in stored
    order, so sorting them would change the factor."""

    def assert_fresh_bytes(self, lu, Kff):
        expected = fem._factorize_spd(Kff)
        rhs = np.random.default_rng(Kff.shape[0]).standard_normal(
            Kff.shape[0])
        assert_same_bytes(lu.solve(rhs), expected.solve(rhs))
        assert_same_bytes(lu.U.diagonal(), expected.U.diagonal())

    def test_lift_system(self):
        # the Laplacian the lift factorizes, on its scalar system
        mesh = rectangle_mesh(12, 12, elastic_dirichlet="left,bottom")
        system = fem.dirichlet_system(mesh, 1, mesh.elastic_dirichlet_nodes())
        w, g = mesh.quad_weights(), mesh.cell_gradients()
        K = system.assemble(np.einsum("cq,cAa,cBa->cAB", w, g, g))
        self.assert_fresh_bytes(kept_order_factor(system, K), system.ff(K))

    def test_nutrient_system_with_dirichlet_values(self):
        mesh = rectangle_mesh(12, 12, nutrient_dirichlet="left,top")
        nodes = mesh.nutrient_dirichlet_nodes()
        system = fem.dirichlet_system(mesh, 1, nodes)
        K = fem.assemble_scalar_operator(mesh, np.diag([1.5, 0.5]),
                                         reaction=0.7)
        rhs = np.random.default_rng(3).standard_normal(mesh.num_vertices)
        values = 1.0 + mesh.vertices[nodes, 0]
        Kff = system.ff(K)
        bf = rhs[system.free] - system.fc(K) @ values
        expected = fem._factorize_spd(Kff).solve(bf)
        for _ in range(2):    # the second solve takes the kept order
            x, resid = system.solve(K, rhs, values)
            assert_same_bytes(x[system.free], expected)
            assert resid == float(np.linalg.norm(Kff @ expected - bf))
        assert "_plan" in vars(system)
        self.assert_fresh_bytes(system.factor(K), Kff)

    @pytest.mark.parametrize("n", [12, 16, 32, 64])
    @pytest.mark.parametrize("method", ["fixed_point", "newton"])
    def test_chord_and_newton_tangents(self, n, method):
        problem = benchmarks.contraction_problem(n, method=method)
        ws = problem.workspace
        u = np.zeros((ws.mesh.num_vertices, 2))
        if method == "newton":
            # a tangent away from the chord's point u = 0
            u = 1e-3 * np.sin(3.0 * ws.mesh.vertices[:, ::-1])
            u.reshape(-1)[ws.system.fixed] = 0.0
        K = ws.stiffness(ws.elastic_state(u))
        self.assert_fresh_bytes(kept_order_factor(ws.system, K),
                                ws.system.ff(K))

    def test_negated_diagonal_raises(self):
        problem = benchmarks.contraction_problem(12, method="newton")
        ws = problem.workspace
        K = ws.stiffness(ws.elastic_state(np.zeros((ws.mesh.num_vertices,
                                                    2))))
        ws.system.factor(K)    # keeps the column order
        with pytest.raises(SingularSystem):
            ws.system.factor(negated_diagonal(ws.system, K, 7))
        assert isinstance(ws.system.factor(K), fem._KeptOrderFactor)

    def test_newton_sweep_on_the_kept_order_raises(self, monkeypatch):
        # the second sweep's tangent, one diagonal entry negated, is
        # factorized in the order kept by the first sweep (or earlier)
        problem = benchmarks.contraction_problem(8, method="newton")
        stiffness = elasticity._Workspace.stiffness
        calls = []

        def negated_after_one(ws, state):
            K = stiffness(ws, state)
            calls.append(1)
            return K if len(calls) < 2 else negated_diagonal(ws.system, K, 3)
        monkeypatch.setattr(elasticity._Workspace, "stiffness",
                            negated_after_one)
        with pytest.raises(SingularJacobian, match="at sweep 2"):
            elasticity.solve_newton(problem)
        assert "_plan" in vars(problem.workspace.system)

    @pytest.mark.parametrize("diagonal", [[3.0, 1e-14, 2.0],
                                          [3.0, -0.5, 2.0],
                                          [3.0, 0.0, 2.0]])
    def test_bad_pivot_raises(self, diagonal):
        system = diagonal_system(NONE, 3)
        system.factor(system.assemble(np.array([3.0, 5.0, 2.0])[:, None,
                                                                 None]))
        with pytest.raises(SingularSystem):
            system.factor(system.assemble(np.array(diagonal)[:, None, None]))
        with pytest.raises(SingularSystem):
            system.solve(system.assemble(np.array(diagonal)[:, None, None]),
                         np.ones(3), np.zeros(0))
