"""The explicit 2x2 contractions equal the `np.einsum` calls they replace,
byte for byte, and the fixed contraction paths equal `optimize=True`.

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

from morphosim import EquilibriumProblem, PolarWellEnergy, fem, rectangle_mesh
from morphosim.mesh import TRI_POINTS

# cell count -> crossed-mesh size (stress_modulated 12², inflation and
# contraction_sweep 16², contraction_sweep 32² and 64²)
SIZES = {576: 12, 1024: 16, 4096: 32, 16384: 64}
CASES = ("random", "rest", "half_turn")


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
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
    u.reshape(-1)[ws.fixed_dofs] = 0.0
    return ws, u


def einsum_state(ws, u):
    """Elastic state, stress and residual, each contraction by einsum."""
    local = u[ws.mesh.cells]
    F = np.einsum("cAi,cAa->cia", local, ws.grads) + ws.grad_ft
    Fel = np.einsum("cij,cqjk->cqik", F, ws.Ginvq)
    DW = ws.energy.first_derivative(ws.qpoints, Fel)
    P = ws.detGq[..., None, None] * np.einsum("cqij,cqkj->cqik", DW,
                                              ws.Ginvq)
    contrib = np.einsum("cq,cqia,cAa->cAi", ws.weights, P, ws.grads)
    r = np.bincount(ws.edofs.ravel(), weights=contrib.ravel(),
                    minlength=2 * ws.mesh.num_vertices)
    return Fel, P, r - ws.traction_load


class TestGradientTransfer:
    def test_scalar_gradient(self, mesh, case):
        values = nodal_field(mesh, case)
        expected = np.einsum("cA,cAa->ca", values[mesh.cells],
                             mesh.cell_gradients())
        assert_same_bytes(fem.interpolate_gradient(mesh, values), expected)

    def test_vector_gradient(self, mesh, case):
        values = nodal_field(mesh, case, (2,))
        expected = np.einsum("cAi,cAa->cia", values[mesh.cells],
                             mesh.cell_gradients())
        assert_same_bytes(fem.interpolate_gradient(mesh, values), expected)

    def test_growth_at_quadrature(self, mesh, case):
        G = nodal_growth(mesh, case)
        expected = np.einsum("qA,cAij->cqij", TRI_POINTS, G[mesh.cells])
        assert_same_bytes(fem.growth_at_quadrature(mesh, G), expected)


class TestWorkspace:
    def test_elastic_state(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        assert_same_bytes(ws.elastic_state(u), einsum_state(ws, u)[0])

    def test_stress(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        assert_same_bytes(ws.stress(u), einsum_state(ws, u)[1])

    def test_residual(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        _, P_expected, r_expected = einsum_state(ws, u)
        r, rn, P = ws.residual(u)
        assert_same_bytes(P, P_expected)
        assert_same_bytes(r, r_expected)
        assert rn == float(np.linalg.norm(r_expected[ws.free]))

    def test_coefficient_tensor_path(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        H = ws.energy.second_derivative(ws.qpoints, ws.elastic_state(u))
        A = np.einsum("cqipjr,cqap,cqbr->cqijab", H, ws.Ginvq, ws.Ginvq,
                      optimize=True)
        assert_same_bytes(ws.coefficient_tensor(u),
                          ws.detGq[:, :, None, None, None, None] * A)


class TestAssemblyPaths:
    def test_vector_operator(self, mesh, case):
        ws, u = workspace_and_state(mesh, case)
        A = ws.coefficient_tensor(u)
        Ke = np.einsum("cq,cqijab,cAa,cBb->cAiBj", mesh.quad_weights(), A,
                       mesh.cell_gradients(), mesh.cell_gradients(),
                       optimize=True)
        expected = fem._scatter(2 * mesh.num_vertices,
                                ws.edofs.reshape(-1, 6), Ke.reshape(-1, 6, 6))
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
        K, _ = fem.assemble_scalar_operator(mesh, D, r)
        assert_same_bytes(K.indptr, expected.indptr)
        assert_same_bytes(K.indices, expected.indices)
        assert_same_bytes(K.data, expected.data)
