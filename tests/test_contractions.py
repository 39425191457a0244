"""The explicit 2x2 contractions equal the `np.einsum` calls they replace,
byte for byte, the per-entry kernels of the elastic hot path equal the
broadcast forms they replace, the fixed contraction paths equal
`optimize=True`, the Dirichlet system's sums and gathers equal the COO
scatter and sparse slicing they replace, the cached transfer operators
equal the einsum and bincount forms they replace, and each caller of
`tensor.inv` and `tensor.det` equals its value with `np.linalg.inv` and
`np.linalg.det`.

Each case runs on the cell counts the benchmark workloads use, with random
data and with two rest states (F_el = I, zero stress): the reference
configuration, and the body turned by half a turn.  Their inputs carry
zeros of both signs.  In explicit form a sum whose every term is -0.0 is
-0.0, while einsum sums from a zero start and returns +0.0;
`np.array_equal` cannot tell the two apart, so every comparison also
matches the hashes of the raw bytes.
"""

import hashlib

import numpy as np
import pytest

from morphosim import (EquilibriumProblem, GuardConfig, NutrientProblem,
                       PolarWellEnergy, det_guard, fem, materials,
                       nutrient_coefficient_fields, rectangle_mesh,
                       solve_equilibrium, tensor)
from morphosim.mesh import TRI_POINTS, Mesh, read_mesh, write_mesh

# cell count -> crossed-mesh size (stress_modulated 12², inflation and
# contraction_sweep 16², contraction_sweep 32² and 64²)
SIZES = {576: 12, 1024: 16, 4096: 32, 16384: 64}
CASES = ("random", "rest", "half_turn")


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    # NaN equals NaN here; the hashes below still tell every byte apart
    assert np.array_equal(actual, expected, equal_nan=True)
    assert (hashlib.sha256(actual.tobytes()).hexdigest()
            == hashlib.sha256(expected.tobytes()).hexdigest())


@pytest.fixture(scope="module", params=sorted(SIZES))
def mesh(request):
    n = SIZES[request.param]
    m = rectangle_mesh(n, n)
    assert m.num_cells == request.param
    return m


@pytest.fixture(params=CASES)
def case(request):
    return request.param


def nodal_field(mesh, case, shape=()):
    """Normal samples, or at rest zeros of random sign."""
    rng = np.random.default_rng(mesh.num_cells)
    samples = rng.standard_normal((mesh.num_vertices,) + shape)
    return samples if case == "random" else np.copysign(0.0, samples)


def nodal_growth(mesh, case):
    turn = -np.eye(2) if case == "half_turn" else np.eye(2)
    z = nodal_field(mesh, case, (2, 2))
    if case == "random":
        return turn + 0.05 * z
    return np.where(turn == 0.0, z, turn)


def workspace_and_state(mesh, case):
    """A workspace and a displacement: random growth, stretching data and
    a small random u; or at rest growth and data both the identity or both
    half a turn, and u a field of signed zeros."""
    scale = {"random": 1.02, "rest": 1.0, "half_turn": -1.0}[case]
    problem = EquilibriumProblem(mesh, PolarWellEnergy(),
                                 nodal_growth(mesh, case), lambda x: scale * x)
    ws = problem.workspace
    u = 2e-4 * nodal_field(mesh, case, (2,))
    u.reshape(-1)[ws.system.fixed] = 0.0
    return ws, u


def vector_edofs(mesh):
    """Element dofs of the interleaved vector layout, (cells, 6)."""
    return (2 * mesh.cells[:, :, None] + np.arange(2)).reshape(-1, 6)


def einsum_state(ws, u):
    """Elastic state, stress and residual, each contraction by einsum."""
    local = u[ws.mesh.cells]
    F = np.einsum("cAi,cAa->cia", local, ws.grads) + ws.grad_ft
    Fel = np.einsum("cij,cqjk->cqik", F, ws.Ginvq)
    DW = ws.energy.first_derivative(ws.qpoints, Fel)
    P = ws.detGq[..., None, None] * np.einsum("cqij,cqkj->cqik", DW,
                                              ws.Ginvq)
    contrib = np.einsum("cq,cqia,cAa->cAi", ws.weights, P, ws.grads)
    r = np.bincount(vector_edofs(ws.mesh).ravel(), weights=contrib.ravel(),
                    minlength=2 * ws.mesh.num_vertices)
    return Fel, P, r - ws.traction_load


def assert_scalar_gradient(mesh, case):
    values = nodal_field(mesh, case)
    expected = np.einsum("cA,cAa->ca", values[mesh.cells],
                         mesh.cell_gradients())
    assert_same_bytes(fem.interpolate_gradient(mesh, values), expected)


def assert_vector_gradient(mesh, case):
    values = nodal_field(mesh, case, (2,))
    expected = np.einsum("cAi,cAa->cia", values[mesh.cells],
                         mesh.cell_gradients())
    assert_same_bytes(fem.interpolate_gradient(mesh, values), expected)


def assert_growth_sampling(mesh, case):
    G = nodal_growth(mesh, case)
    expected = np.einsum("qA,cAij->cqij", TRI_POINTS, G[mesh.cells])
    assert_same_bytes(fem.growth_at_quadrature(mesh, G), expected)


class TestGradientTransfer:
    def test_scalar_gradient(self, mesh, case):
        assert_scalar_gradient(mesh, case)

    def test_vector_gradient(self, mesh, case):
        assert_vector_gradient(mesh, case)

    def test_growth_at_quadrature(self, mesh, case):
        assert_growth_sampling(mesh, case)


class TestWorkspace:
    def test_elastic_state(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        assert_same_bytes(ws.elastic_state(u).Fel, einsum_state(ws, u)[0])

    def test_stress(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        assert_same_bytes(ws.stress(ws.elastic_state(u)),
                          einsum_state(ws, u)[1])

    def test_residual(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        _, P_expected, r_expected = einsum_state(ws, u)
        r, rn, P = ws.residual(ws.elastic_state(u))
        assert_same_bytes(P, P_expected)
        assert_same_bytes(r, r_expected)
        assert rn == float(np.linalg.norm(r_expected[ws.system.free]))

    def test_coefficient_tensor_path(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        state = ws.elastic_state(u)
        H = ws.energy.second_derivative(ws.qpoints, state.Fel)
        A = np.einsum("cqipjr,cqap,cqbr->cqijab", H, ws.Ginvq, ws.Ginvq,
                      optimize=True)
        assert_same_bytes(ws.coefficient_tensor(state),
                          ws.detGq[:, :, None, None, None, None] * A)


# The two-wide broadcast forms the per-entry kernels replaced, kept as
# references: each broadcasts a (cells, q) field against trailing (2, 2)
# axes, so numpy's inner loop is two elements long.


def polar_rotation_derivative_by_broadcast(F):
    """`tensor._polar_rotation_derivative_2d` as a broadcast."""
    p = F[..., 0, 0] + F[..., 1, 1]
    q = F[..., 0, 1] - F[..., 1, 0]
    r2 = p * p + q * q
    r = np.sqrt(r2)
    dp = np.array([[1.0, 0.0], [0.0, 1.0]])
    dq = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dr = (p[..., None, None] * dp + q[..., None, None] * dq) / r[..., None, None]
    dpr = dp / r[..., None, None] - (p / r2)[..., None, None] * dr
    dqr = dq / r[..., None, None] - (q / r2)[..., None, None] * dr
    DR = np.empty(F.shape[:-2] + (2, 2, 2, 2))
    DR[..., 0, 0, :, :] = dpr
    DR[..., 1, 1, :, :] = dpr
    DR[..., 0, 1, :, :] = dqr
    DR[..., 1, 0, :, :] = -dqr
    return DR


def first_derivative_by_broadcast(energy, F, det):
    """`PolarWellEnergy.first_derivative` with hprime broadcast against
    the cofactor."""
    p = energy.p
    hprime = p * det ** (p - 1) - p * det ** (-p - 1)
    R = tensor._polar_rotation_2d(F)
    return 2.0 * (F - R) + hprime[..., None, None] * tensor.cofactor(F)


def second_derivative_by_broadcast(energy, F, det):
    """`PolarWellEnergy.second_derivative` over (..., 2, 2, 2, 2)
    broadcasts, the outer product of the cofactor by einsum."""
    p = energy.p
    hprime = p * det ** (p - 1) - p * det ** (-p - 1)
    hsecond = p * (p - 1) * det ** (p - 2) + p * (p + 1) * det ** (-p - 2)
    DR = polar_rotation_derivative_by_broadcast(F)
    cof = tensor.cofactor(F)
    H = 2.0 * (np.einsum("ik,jl->ijkl", np.eye(2), np.eye(2)) - DR)
    H = H + hsecond[..., None, None, None, None] * np.einsum(
        "...ij,...kl->...ijkl", cof, cof)
    return H + hprime[..., None, None, None, None] * np.broadcast_to(
        tensor._COFACTOR_DERIVATIVE, F.shape + (2, 2))


def elastic_factor_by_broadcast(F, Ginv):
    """`materials.elastic_factor`'s F_el as a generator of broadcast
    products summed from sum()'s zero start, and its deviation from I."""
    Fel = sum(F[..., :, j, None] * Ginv[..., None, j, :] for j in range(2))
    return Fel, np.max(np.abs(Fel - np.eye(2)), axis=(-2, -1))


def grown_stress_by_broadcast(energy, Fel, det, Ginv, detG):
    """`materials.grown_stress` from the broadcast first derivative, det G
    broadcast against the trailing axes."""
    DW = first_derivative_by_broadcast(energy, Fel, det)
    return detG[..., None, None] * sum(
        DW[..., :, None, j] * Ginv[..., None, :, j] for j in range(2))


class TestPerEntryKernels:
    """The per-entry kernels of the elastic hot path against the broadcast
    forms they replaced, byte for byte; the rest states carry zeros of
    both signs, which a changed zero start or term order would show."""

    def test_elastic_factor(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        F = fem.interpolate_gradient(mesh, u) + ws.grad_ft
        Fel, det = materials.elastic_factor(ws.energy, F[:, None], ws.Ginvq)
        Fel_expected, dev_expected = elastic_factor_by_broadcast(F[:, None],
                                                                 ws.Ginvq)
        assert_same_bytes(Fel, Fel_expected)
        assert_same_bytes(tensor.max_abs(Fel, 1.0), dev_expected)
        assert_same_bytes(det, tensor.positive_det(Fel_expected))

    def test_grown_stress(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        state = ws.elastic_state(u)
        assert_same_bytes(
            materials.grown_stress(ws.energy, ws.qpoints, state.Fel,
                                   state.det, ws.Ginvq, ws.detGq),
            grown_stress_by_broadcast(ws.energy, state.Fel, state.det,
                                      ws.Ginvq, ws.detGq))

    def test_first_derivative(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        state = ws.elastic_state(u)
        assert_same_bytes(
            ws.energy.first_derivative(ws.qpoints, state.Fel, det=state.det),
            first_derivative_by_broadcast(ws.energy, state.Fel, state.det))

    def test_polar_rotation_derivative(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        Fel = ws.elastic_state(u).Fel
        assert_same_bytes(tensor._polar_rotation_derivative_2d(Fel),
                          polar_rotation_derivative_by_broadcast(Fel))

    def test_second_derivative(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        state = ws.elastic_state(u)
        assert_same_bytes(
            ws.energy.second_derivative(ws.qpoints, state.Fel,
                                        det=state.det),
            second_derivative_by_broadcast(ws.energy, state.Fel, state.det))
        # the last block of cells `coefficient_tensor` slices, and the
        # stride-0 identity stack `check_coercivity` passes
        start = (mesh.num_cells - 1) // fem._BLOCK_CELLS * fem._BLOCK_CELLS
        cells = slice(start, start + fem._BLOCK_CELLS)
        assert_same_bytes(
            ws.energy.second_derivative(ws.qpoints[cells], state.Fel[cells],
                                        det=state.det[cells]),
            second_derivative_by_broadcast(ws.energy, state.Fel[cells],
                                           state.det[cells]))
        eye = np.broadcast_to(np.eye(2), state.Fel.shape)
        assert_same_bytes(
            ws.energy.second_derivative(ws.qpoints, eye),
            second_derivative_by_broadcast(ws.energy, eye,
                                           tensor.positive_det(eye)))


def moved_mesh(mesh, case):
    """The mesh as built, turned by half a turn (every zero coordinate then
    -0.0), or with each vertex moved at random by up to 1/20 of a square."""
    if case == "rest":
        return mesh
    if case == "half_turn":
        vertices = -mesh.vertices
    else:
        rng = np.random.default_rng(mesh.num_cells + 3)
        h = 1.0 / SIZES[mesh.num_cells]
        vertices = mesh.vertices + 0.05 * h * rng.uniform(
            -1.0, 1.0, mesh.vertices.shape)
    return Mesh(vertices, mesh.cells, mesh.facets,
                mesh.facet_elastic_dirichlet, mesh.facet_nutrient_dirichlet)


class TestInverseCallers:
    """Every 2x2 inverse of `src` goes through `tensor.inv`; each caller
    equals the same value recomputed with `np.linalg.inv`."""

    def test_workspace_growth_inverse(self, mesh, case):
        ws, _ = workspace_and_state(mesh, case)
        assert_same_bytes(ws.Ginvq, np.linalg.inv(ws.Gq))

    def test_piola_kirchhoff(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        F = np.einsum("cAi,cAa->cia", u[mesh.cells], ws.grads) + ws.grad_ft
        Y = np.broadcast_to(F[:, None], ws.Gq.shape)
        Ginv = np.linalg.inv(ws.Gq)
        Fel, det = materials.elastic_factor(ws.energy, Y, Ginv)
        expected = materials.grown_stress(ws.energy, ws.qpoints, Fel, det,
                                          Ginv, tensor.positive_det(ws.Gq))
        assert_same_bytes(materials.piola_kirchhoff(ws.energy, ws.qpoints,
                                                    ws.Gq, Y), expected)

    def test_cell_gradients(self, mesh, case):
        moved = moved_mesh(mesh, case)
        a, b, c = (moved.vertices[moved.cells[:, k]] for k in range(3))
        Jinv = np.linalg.inv(np.stack([b - a, c - a], axis=-1))
        expected = np.stack([-Jinv[:, 0] - Jinv[:, 1], Jinv[:, 0],
                             Jinv[:, 1]], axis=1)
        assert_same_bytes(moved.cell_gradients(), expected)


class TestDeterminantCallers:
    """Every 2x2 determinant of `src` goes through `tensor.det`; each
    caller equals the same value recomputed with `np.linalg.det`."""

    def test_workspace_growth_det(self, mesh, case):
        ws, _ = workspace_and_state(mesh, case)
        assert_same_bytes(ws.detGq, np.linalg.det(ws.Gq))

    def test_elastic_factor(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        state = ws.elastic_state(u)
        assert_same_bytes(state.det, np.linalg.det(state.Fel))

    def test_nutrient_det_y(self, mesh, case):
        model = materials.DetRatioNutrientModel(d0=1.0, beta0=0.5)
        scale = {"random": 1.02, "rest": 1.0, "half_turn": -1.0}[case]
        y = scale * mesh.vertices + 1e-3 * nodal_field(mesh, case, (2,))
        G = nodal_growth(mesh, case)
        D, beta = nutrient_coefficient_fields(
            NutrientProblem(mesh, model, G, y))
        Y = fem.interpolate_gradient(mesh, y)
        Yq = np.broadcast_to(Y[:, None], (mesh.num_cells, 3, 2, 2))
        Gq = fem.growth_at_quadrature(mesh, G)
        D_ref, beta_ref = model.coefficients(
            Gq, Yq, mesh.quad_points(), detY=np.linalg.det(Yq),
            detG=np.linalg.det(Gq))
        assert_same_bytes(D, D_ref)
        assert_same_bytes(beta, beta_ref)

    def test_det_guard_minimum(self, mesh, case):
        G = nodal_growth(mesh, case)
        report = det_guard(G, GuardConfig())
        assert (np.float64(report.min_det).tobytes()
                == np.min(np.linalg.det(G)).tobytes())


class TestAssemblyPaths:
    def test_vector_operator(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        A = ws.coefficient_tensor(ws.elastic_state(u))
        Ke = np.einsum("cq,cqijab,cAa,cBb->cAiBj", mesh.quad_weights(), A,
                       mesh.cell_gradients(), mesh.cell_gradients(),
                       optimize=True)
        expected = fem._scatter(2 * mesh.num_vertices, vector_edofs(mesh),
                                Ke.reshape(-1, 6, 6))
        K = fem.assemble_vector_operator(mesh, A)
        assert_same_bytes(K.indptr, expected.indptr)
        assert_same_bytes(K.indices, expected.indices)
        assert_same_bytes(K.data, expected.data)

    def test_scalar_operator(self, mesh, case):
        nq = TRI_POINTS.shape[0]
        if case != "random":
            D = np.broadcast_to(np.eye(2), (mesh.num_cells, nq, 2, 2))
            r = np.zeros((mesh.num_cells, nq))
        else:
            rng = np.random.default_rng(mesh.num_cells + 2)
            B = rng.standard_normal((mesh.num_cells, nq, 2, 2))
            D = np.eye(2) + 0.1 * B @ np.swapaxes(B, -1, -2)
            r = rng.random((mesh.num_cells, nq))
        w = mesh.quad_weights()
        g = mesh.cell_gradients()
        Ke = np.einsum("cq,cAa,cqab,cBb->cAB", w, g, D, g, optimize=True)
        Ke += np.einsum("cq,cq,qA,qB->cAB", w, r, TRI_POINTS, TRI_POINTS,
                        optimize=True)
        expected = fem._scatter(mesh.num_vertices, mesh.cells, Ke)
        K = fem.assemble_scalar_operator(mesh, D, r)
        assert_same_bytes(K.indptr, expected.indptr)
        assert_same_bytes(K.indices, expected.indices)
        assert_same_bytes(K.data, expected.data)


# crossed meshes with cell counts below, at and above the assembly block
# (`fem._BLOCK_CELLS`, 1,024 cells), the last two not a multiple of it
BLOCK_MESHES = {"12x12": (12, 12), "16x16": (16, 16), "17x16": (17, 16),
                "64x64": (64, 64)}


@pytest.fixture(scope="module", params=sorted(BLOCK_MESHES))
def block_mesh(request):
    return rectangle_mesh(*BLOCK_MESHES[request.param])


class TestBlockedStiffness:
    def test_tangent_equals_the_one_shot_einsum(self, block_mesh, case):
        # the tangent built block by block equals the pull-back and the
        # element contraction over the whole mesh at once, byte for byte
        ws, u = workspace_and_state(block_mesh, case)
        state = ws.elastic_state(u)
        H = ws.energy.second_derivative(ws.qpoints, state.Fel, det=state.det)
        A = ws.detGq[:, :, None, None, None, None] * np.einsum(
            "cqipjr,cqap,cqbr->cqijab", H, ws.Ginvq, ws.Ginvq, optimize=True)
        Ke = np.einsum("cq,cqijab,cAa,cBb->cAiBj", ws.weights, A, ws.grads,
                       ws.grads, optimize=True)
        expected = fem._scatter(2 * block_mesh.num_vertices,
                                vector_edofs(block_mesh),
                                Ke.reshape(-1, 6, 6))
        K = ws.stiffness(state)
        assert_same_bytes(K.indptr, expected.indptr)
        assert_same_bytes(K.indices, expected.indices)
        assert_same_bytes(K.data, expected.data)


def shuffled(mesh, seed=5):
    """The same triangulation with its vertices renumbered and its cells,
    their corners and its facets listed in another order."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    cells = new_id[mesh.cells][rng.permutation(mesh.num_cells)]
    cells = np.roll(cells, rng.integers(3), axis=1)
    order = rng.permutation(len(mesh.facets))
    return Mesh(vertices, cells, new_id[mesh.facets][order],
                mesh.facet_elastic_dirichlet[order],
                mesh.facet_nutrient_dirichlet[order])


def read_back(mesh, tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "mesh.txt"
    write_mesh(mesh, path)
    return read_mesh(path)


PLAN_MESHES = {
    "crossed_12": lambda tmp: rectangle_mesh(12, 12),
    "crossed_16": lambda tmp: rectangle_mesh(16, 16),
    "crossed_64": lambda tmp: rectangle_mesh(64, 64),
    "diagonal_left_9x5": lambda tmp: rectangle_mesh(
        9, 5, mode="diagonal", elastic_dirichlet="left"),
    "shuffled_12": lambda tmp: shuffled(rectangle_mesh(
        12, 12, elastic_dirichlet="left")),
    "read_back_7x10": lambda tmp: read_back(rectangle_mesh(
        7, 10, elastic_dirichlet="bottom"), tmp),
}
ELEMENT_MATRICES = ("random", "negative_zeros", "signed_zeros")


@pytest.fixture(scope="module", params=sorted(PLAN_MESHES))
def plan_mesh(request, tmp_path_factory):
    return PLAN_MESHES[request.param](tmp_path_factory)


def element_matrices(mesh, nloc, kind):
    rng = np.random.default_rng(nloc * mesh.num_cells)
    Ke = rng.standard_normal((mesh.num_cells, nloc, nloc))
    if kind == "negative_zeros":
        return np.full_like(Ke, -0.0)
    return Ke if kind == "random" else np.copysign(0.0, Ke)


def assert_same_operator(actual, expected):
    assert type(actual) is type(expected)
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        assert_same_bytes(getattr(actual, name), getattr(expected, name))


class TestSparsityPlan:
    """The sparsity plan of a `DirichletSystem` (its recorded sort and its
    gathers): `assemble`, `ff` and `fc` against their oracles, `_scatter`
    and `eliminate` (sparse slicing), for the elastic and the nutrient
    Dirichlet part of every mesh."""

    @pytest.mark.parametrize("kind", ELEMENT_MATRICES)
    @pytest.mark.parametrize("components", [1, 2])
    def test_operator_and_blocks(self, plan_mesh, components, kind):
        mesh = plan_mesh
        edofs = (components * mesh.cells[:, :, None]
                 + np.arange(components)).reshape(mesh.num_cells, -1)
        Ke = element_matrices(mesh, edofs.shape[1], kind)
        expected = fem._scatter(components * mesh.num_vertices, edofs, Ke)
        for nodes in (mesh.elastic_dirichlet_nodes(),
                      mesh.nutrient_dirichlet_nodes()):
            system = fem.dirichlet_system(mesh, components, nodes)
            K = system.assemble(Ke)
            assert_same_operator(K, expected)
            fixed = (components * nodes[:, None]
                     + np.arange(components)).ravel()
            Kff_expected, Kf, free = fem.eliminate(expected, fixed)
            assert_same_bytes(system.edofs, edofs)
            assert_same_bytes(system.fixed, fixed)
            assert_same_bytes(system.free, free)
            assert_same_operator(system.ff(K), Kff_expected)
            assert_same_operator(system.fc(K), Kf[:, fixed])

    def test_plan_is_cached_per_pattern(self, plan_mesh):
        elastic = plan_mesh.elastic_dirichlet_nodes()
        nutrient = plan_mesh.nutrient_dirichlet_nodes()
        scalar = fem.dirichlet_system(plan_mesh, 1, elastic)
        assert fem.dirichlet_system(plan_mesh, 1, elastic.copy()) is scalar
        assert fem.dirichlet_system(plan_mesh, 2, elastic) is not scalar
        other = fem.dirichlet_system(plan_mesh, 1, nutrient)
        assert (other is scalar) == np.array_equal(elastic, nutrient)
        # each system records its own sort, equal across one dof layout
        assert np.array_equal(other.order, scalar.order)
        assert (other.order is scalar.order) == (other is scalar)

    def test_arrays_are_read_only(self, plan_mesh):
        for components in (1, 2):
            system = fem.dirichlet_system(
                plan_mesh, components, plan_mesh.elastic_dirichlet_nodes())
            for name in ("edofs", "fixed", "free", "order", "indptr",
                         "indices"):
                assert not getattr(system, name).flags.writeable, name


def bincount_average(mesh, cell_values):
    """The form `fem.nodal_from_cells` replaced: one bincount per column
    over the corners listed corner-major, divided by the bincount of the
    volumes."""
    n = mesh.num_vertices
    vols = mesh.cell_volumes()
    column = (-1,) + (1,) * (cell_values.ndim - 1)
    weighted = np.tile((vols.reshape(column) * cell_values).reshape(
        len(vols), -1), (3, 1))
    corners = mesh.cells.T.ravel()
    acc = np.empty((n, weighted.shape[1]))
    for j in range(weighted.shape[1]):
        acc[:, j] = np.bincount(corners, weights=weighted[:, j], minlength=n)
    den = np.bincount(corners, weights=np.tile(vols, 3), minlength=n)
    return acc.reshape((n,) + cell_values.shape[1:]) / den.reshape(column)


CELL_DATA = ("random", "mixed", "signed_zeros")


def cell_field(mesh, kind, shape):
    """Normal samples per cell; half of them, or all, made zeros of random
    sign."""
    rng = np.random.default_rng(mesh.num_cells + 1)
    samples = rng.standard_normal((mesh.num_cells,) + shape)
    zeros = np.copysign(0.0, samples)
    if kind == "mixed":
        return np.where(rng.random(samples.shape) < 0.5, zeros, samples)
    return samples if kind == "random" else zeros


def built_transfers(mesh, is_kept):
    return {kind for kind in ("gradient", "sampling", "averaging")
            if is_kept(mesh, ("transfer", kind))}


class TestTransferOperators:
    """The cached transfer operators against the einsum and bincount forms
    they replace, also on meshes whose cells list their corners out of
    vertex order (`shuffled_12`, `read_back_7x10`)."""

    @pytest.mark.parametrize("case", CASES)
    def test_gradient_and_sampling(self, plan_mesh, case):
        assert_scalar_gradient(plan_mesh, case)
        assert_vector_gradient(plan_mesh, case)
        assert_growth_sampling(plan_mesh, case)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("kind", CELL_DATA)
    def test_nodal_from_cells(self, plan_mesh, kind, shape):
        values = cell_field(plan_mesh, kind, shape)
        assert_same_bytes(fem.nodal_from_cells(plan_mesh, values),
                          bincount_average(plan_mesh, values))

    def test_rows_keep_corner_order(self, plan_mesh):
        cells = plan_mesh.cells.astype(np.int32)
        B = fem._transfer(plan_mesh, "gradient")
        assert_same_bytes(B.indices.reshape(-1, 3), np.repeat(cells, 2, 0))
        S = fem._transfer(plan_mesh, "sampling")
        assert_same_bytes(S.indices.reshape(-1, 3), np.repeat(cells, 3, 0))

    def test_cached_and_read_only(self, plan_mesh):
        ops = {kind: fem._transfer(plan_mesh, kind)
               for kind in ("gradient", "sampling", "averaging")}
        for kind, op in ops.items():
            assert fem._transfer(plan_mesh, kind) is op
        N, den = ops["averaging"]
        assert not den.flags.writeable
        for matrix in (ops["gradient"], ops["sampling"], N):
            assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
            for shared in (matrix.data, matrix.indices, matrix.indptr):
                assert not shared.flags.writeable

    def test_built_only_for_the_kinds_used(self, is_kept):
        mesh = rectangle_mesh(4, 4)
        unit = np.eye(2)
        problem = EquilibriumProblem(
            mesh, PolarWellEnergy(),
            lambda pts: np.broadcast_to(unit, pts.shape[:-1] + (2, 2)),
            lambda x: 1.01 * x)
        solve_equilibrium(problem)
        assert built_transfers(mesh, is_kept) == {"gradient"}
        fem.growth_at_quadrature(
            mesh, np.broadcast_to(unit, (mesh.num_vertices, 2, 2)))
        assert built_transfers(mesh, is_kept) == {"gradient", "sampling"}
        fem.nodal_from_cells(mesh, np.ones(mesh.num_cells))
        assert built_transfers(mesh, is_kept) == {"gradient", "sampling",
                                                  "averaging"}


class TestMaxAbs:
    def test_matches_reduction(self):
        rng = np.random.default_rng(11)
        F = rng.standard_normal((3072, 2, 2))
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        picked = rng.integers(0, F.size, 4000)
        F.reshape(-1)[picked] = rng.choice(specials, len(picked))
        F[:5] = [np.full((2, 2), -0.0), [[0.0, -0.0], [-0.0, 0.0]],
                 [[np.inf, np.nan], [-np.inf, 1.0]], np.full((2, 2), np.nan),
                 [[-np.inf, -0.0], [0.0, -2.0]]]
        for stack in (F, F.reshape(768, 4, 2, 2), F[3]):
            assert_same_bytes(tensor.max_abs(stack),
                              np.max(np.abs(stack), axis=(-2, -1)))
            assert_same_bytes(tensor.max_abs(stack, 1.0), np.max(
                np.abs(stack - np.eye(2)), axis=(-2, -1)))
