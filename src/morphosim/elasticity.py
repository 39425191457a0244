"""Quasi-static equilibrium solves for a given growth tensor field.

The unknown is the displacement ``u = y - f_tilde`` relative to the
interior lift of the Dirichlet data, so u vanishes on the elastic
Dirichlet part.  Both methods run one iteration, ``u -> u - L^{-1}
residual(u)``, and differ only in when the operator L is refreshed:

* `fixed_point` (`solve_fixed_point`) keeps the stiffness assembled at
  u = 0 for every sweep (a chord iteration, contractive for small data);
* `newton` (`solve_newton`) reassembles the tangent at every sweep and
  backtracks on the potential.

Each solve factorizes its first sweep's operator once.  The chord
iteration solves with that factor alone; a later Newton sweep solves its
tangent by conjugate gradients preconditioned with it (Newton-Krylov),
and factorizes only a tangent that CG cannot solve within its budget.
Both converge to the same discrete solution; the residual of each is the
weak form of the stress divergence plus traction terms.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import fem, materials, tensor
from .errors import (AssemblyError, ContractionLost, LiftDegenerate,
                     NoConvergence, OutsideAdmissibleBall, SingularJacobian,
                     SingularMatrix, SingularSystem, ValidationError)

METHODS = ("fixed_point", "newton")

# A later Newton sweep's CG stops at a residual of KRYLOV_TOL relative to
# its right-hand side; after KRYLOV_BUDGET iterations it refactorizes.
KRYLOV_TOL = 1e-12
KRYLOV_BUDGET = 20


@dataclass
class SolverOptions:
    """Method selection and iteration budget for equilibrium solves.

    A solve converges when the increment is at most
    ``1e-11 * (1 + max|f_tilde|)`` and the free residual at most
    ``1e-10 * max|K|``, K the first assembled operator, both at once.  A
    start iterate whose residual is at most 1e-10, or at most the residual
    tolerance once K is assembled, is returned with zero sweeps.
    """

    method: str = "fixed_point"  # one of METHODS
    max_iterations: int = 50
    warm_start: bool = True
    diagnostics: object = None   # file-like sink for per-iteration CSV


@dataclass(frozen=True)
class EquilibriumProblem:
    """One equilibrium solve: mesh, energy model, growth field, and data.

    `growth` is a nodal (n, 2, 2) array or a callable on points (used by
    compatible benchmarks for quadrature-exact sampling).
    `dirichlet_data` maps boundary points to prescribed positions (units of
    length); `neumann_traction` maps (points, outward normals) to tractions
    (force/area) on the elastic Neumann part, or is None.  The problem is
    frozen so that its `workspace` cannot go stale; build a variant with
    `dataclasses.replace`.
    """

    mesh: object
    energy: object
    growth: object
    dirichlet_data: object
    neumann_traction: object = None
    options: SolverOptions = field(default_factory=SolverOptions)

    @functools.cached_property
    def workspace(self):
        """Quadrature data, lift and loads, built on first use."""
        return _Workspace(self)


@dataclass
class EquilibriumSolution:
    displacement: np.ndarray      # u, zero on the elastic Dirichlet part
    lifted_data: np.ndarray       # f_tilde
    iterations: int
    increment_history: list
    residual_norm: float
    rho_hat: float                # largest observed increment ratio (0 if <2)
    method: str
    stress: np.ndarray            # Piola stress of u at the quadrature points
    factorizations: int = 0       # sparse LU factorizations of the solve
    krylov_iterations: int = 0    # CG iterations of its Newton sweeps

    @property
    def deformation(self):
        """Total deformation y = u + f_tilde at the nodes."""
        return self.displacement + self.lifted_data


# ---------------------------------------------------------------------------
# Dirichlet lifting


def _lift_factor(mesh, system):
    """The mesh's lift factor of the Laplacian's K_ff, and its K_fc."""
    def build():
        w = mesh.quad_weights()
        g = mesh.cell_gradients()
        K = system.assemble(np.einsum("cq,cAa,cBa->cAB", w, g, g))
        return system.factor(K), system.fc(K)
    return mesh.cached("lift_factor", build)


def lift_dirichlet(mesh, dirichlet_data):
    """Extend boundary positions into the domain: ``f_tilde = id + E(f - id)``
    with E the discrete harmonic extension (natural condition on the
    Neumann part).  Returns ``(f_tilde, grad f_tilde)``, the nodal lift and
    the per-cell gradient its orientation check computed.

    Affine data on a full Dirichlet boundary is reproduced exactly, and
    data that move no Dirichlet vertex give the vertices without building
    the lift factor (the zero extension is zero).  The extension must stay
    locally orientation preserving; otherwise LiftDegenerate is raised.
    Non-finite boundary positions raise AssemblyError before any solve.

    The lift is a function of the mesh and the evaluated boundary
    positions alone, so the mesh keeps the last one beside the lift factor,
    the one value it replaces: a call whose positions equal the last
    call's exactly returns the same arrays without a solve.  Both arrays
    are read-only; a lift that raised is never kept.
    """
    system = fem.dirichlet_system(mesh, 1, mesh.elastic_dirichlet_nodes())
    nodes, free = system.fixed, system.free
    bc = np.zeros((0, 2))
    if len(nodes):
        bc = np.asarray(dirichlet_data(mesh.vertices[nodes]),
                        dtype=float).reshape(len(nodes), 2)
        if not np.all(np.isfinite(bc)):
            raise AssemblyError("non-finite Dirichlet data")
    def build():
        shift = np.zeros((mesh.num_vertices, 2))
        shift[nodes] = bc - mesh.vertices[nodes]
        if len(free) and shift.any():
            lu, Kfc = _lift_factor(mesh, system)
            rhs = -(Kfc @ shift[nodes])
            shift[free, 0] = lu.solve(rhs[:, 0])
            shift[free, 1] = lu.solve(rhs[:, 1])
        f_tilde = mesh.vertices + shift
        jac = fem.interpolate_gradient(mesh, f_tilde)
        # tested as not all > 0, so that a NaN determinant fails it too
        if not np.all(tensor.det(jac) > 0.0):
            raise LiftDegenerate("lifted Dirichlet data folds some cell "
                                 "(det grad f_tilde <= 0)")
        return bc.copy(), f_tilde, jac
    return mesh.cached("last_lift", build,
                       valid=lambda last: np.array_equal(last[0], bc))[1:]


# ---------------------------------------------------------------------------
# per-problem workspace


# greedy `einsum_path`'s path for the coefficient pull-back at every cell
# count; fixed, so no call searches again
_PULLBACK_PATH = ["einsum_path", (0, 1), (0, 1)]


@dataclass(frozen=True)
class ElasticState:
    """One iterate u with its elastic state F_el at the quadrature points
    and det F_el, both checked by `materials.elastic_factor`.  The
    residual, the tangent and the potential of u all read it, so each
    iterate's state is computed once."""

    u: np.ndarray
    Fel: np.ndarray
    det: np.ndarray


class _Workspace:
    def __init__(self, problem):
        mesh = problem.mesh
        nodes = mesh.elastic_dirichlet_nodes()
        if len(nodes) == 0:
            raise ValidationError("elastic Dirichlet part must be non-empty")
        self.mesh = mesh
        self.system = fem.dirichlet_system(mesh, 2, nodes)
        self.energy = problem.energy
        self.weights = mesh.quad_weights()
        self.grads = mesh.cell_gradients()
        self.qpoints = mesh.quad_points()
        self.Gq = fem.growth_at_quadrature(mesh, problem.growth)
        self.detGq = tensor.det(self.Gq)
        # tested as not all > 0, so that a NaN determinant fails it too
        if not np.all(self.detGq > 0.0):
            raise ValidationError("growth tensor with non-positive determinant")
        Gn = fem.growth_at_nodes(mesh, problem.growth)
        if Gn is not None and not np.all(tensor.det(Gn) > 0.0):
            raise ValidationError("growth tensor with non-positive nodal "
                                  "determinant")
        self.Ginvq = tensor.inv(self.Gq)
        self.f_tilde, self.grad_ft = lift_dirichlet(mesh,
                                                    problem.dirichlet_data)
        if problem.neumann_traction is not None:
            self.traction_load = fem.boundary_load_vector(
                mesh, ~mesh.facet_elastic_dirichlet,
                problem.neumann_traction, 2)
        else:
            self.traction_load = np.zeros(2 * mesh.num_vertices)

    def elastic_state(self, u):
        """The `ElasticState` of u: `materials.elastic_factor` of
        ``grad u + grad f_tilde`` at the quadrature points."""
        F = fem.interpolate_gradient(self.mesh, u) + self.grad_ft
        return ElasticState(u, *materials.elastic_factor(
            self.energy, F[:, None], self.Ginvq))

    def stress(self, state):
        """First Piola-Kirchhoff stress at the quadrature points."""
        return materials.grown_stress(self.energy, self.qpoints, state.Fel,
                                      state.det, self.Ginvq, self.detGq)

    def residual(self, state):
        """Weak residual over all dofs, its norm on the free dofs, and the
        stress it was built from."""
        P = self.stress(state)
        # einsum "cq,cqia,cAa->cAi" order: w P first, then from a zero
        # start q = 0, 1, 2 each adding its 2-term sum over a, g (w P_q)^T
        wP = np.empty(P.shape)
        for i, a in np.ndindex(2, 2):
            np.multiply(self.weights, P[..., i, a], out=wP[..., i, a])
        contrib = np.zeros(self.grads.shape)
        for q in range(3):
            contrib += tensor.product(self.grads, tensor.transpose(wP[:, q]))
        # bincount adds in index order, as a scatter-add would
        r = np.bincount(self.system.edofs.ravel(), weights=contrib.ravel(),
                        minlength=2 * self.mesh.num_vertices)
        r -= self.traction_load
        return r, tensor.norm(r[self.system.free]), P

    def coefficient_tensor(self, state, cells=slice(None)):
        """Fourth-order stiffness coefficients at the quadrature points of
        `cells` (all by default):

        A[i, j, a, b] = det(G) * sum_{p, q} H[i, p, j, q] Ginv[a, p] Ginv[b, q]

        with H the energy Hessian at the current elastic state.
        """
        Ginv = self.Ginvq[cells]
        H = self.energy.second_derivative(self.qpoints[cells],
                                          state.Fel[cells],
                                          det=state.det[cells])
        A = np.einsum("cqipjr,cqap,cqbr->cqijab", H, Ginv, Ginv,
                      optimize=_PULLBACK_PATH)
        return self.detGq[cells][:, :, None, None, None, None] * A

    def stiffness(self, state):
        """Unconstrained tangent stiffness (CSR) at the iterate, its
        coefficients built one block of cells at a time."""
        return fem.assemble_vector_operator(
            self.mesh, functools.partial(self.coefficient_tensor, state))

    def energy_value(self, state):
        W = self.energy.evaluate(self.qpoints, state.Fel, det=state.det)
        return float(np.einsum("cq,cq->", self.weights, self.detGq * W))

    def potential(self, state):
        """Elastic energy minus traction work (Newton line-search merit)."""
        y = (state.u + self.f_tilde).ravel()
        return self.energy_value(state) - tensor.dot(self.traction_load, y)


# ---------------------------------------------------------------------------
# public operations


def residual(problem, u):
    """Weak equilibrium residual of the displacement u (full vector, free
    norm).  Raises OutsideAdmissibleBall with the worst cell on guard
    failure."""
    ws = problem.workspace
    r, rn, _ = ws.residual(ws.elastic_state(u))
    return r, rn


def assemble_linearized_at_zero(problem):
    """Unconstrained stiffness (CSR) of the linearization at u = 0
    (coefficients evaluated at the lifted Dirichlet data).  Its block on
    the free dofs is symmetric positive definite for admissible data."""
    ws = problem.workspace
    return ws.stiffness(ws.elastic_state(np.zeros((ws.mesh.num_vertices, 2))))


def elastic_energy(problem, u):
    """Growth-weighted stored energy of the deformation y = u + f_tilde."""
    ws = problem.workspace
    return ws.energy_value(ws.elastic_state(u))


def stress_field(problem, u):
    """Quadrature-point Piola stress, shape (cells, nq, 2, 2)."""
    ws = problem.workspace
    return ws.stress(ws.elastic_state(u))


def _tolerances(ws, K):
    """Increment and residual tolerances (see `SolverOptions`)."""
    scale = float(np.max(np.abs(K.data)))
    return (1e-11 * (1.0 + float(np.max(np.abs(ws.f_tilde)))),
            1e-10 * max(scale, 1e-12))


def _diag_line(opts, k, inc, rn, rho, krylov):
    if opts.diagnostics is not None:
        opts.diagnostics.write("%d,%.17g,%.17g,%.17g,%d\n"
                               % (k, inc, rn, rho, krylov))


def _initial_guess(ws, initial):
    """Copy the start iterate and enforce u = 0 on the Dirichlet dofs, for
    a start a caller supplies: the coupled loop's warm start, the last
    displacement (u relative to its own lift), is already zero there."""
    if initial is None:
        return np.zeros((ws.mesh.num_vertices, 2))
    u = np.array(initial, dtype=float, copy=True).reshape(-1, 2)
    u.reshape(-1)[ws.system.fixed] = 0.0
    return u


def _stepped(state, free, step):
    """A new iterate: the free dofs of ``state.u`` plus `step`."""
    u = state.u.reshape(-1).copy()
    u[free] += step
    return u.reshape(-1, 2)


def _krylov_solve(system, Kff, lu, b):
    """Solve ``K_ff x = b`` by conjugate gradients preconditioned with the
    factor `lu` of an earlier K_ff, started from ``lu.solve(b)``; Kff is
    the `kept_ff` gather.  Returns ``(x, iterations)``, x None after a
    breakdown (``p^T K p <= 0``, not SPD) or when the residual is not
    below ``KRYLOV_TOL * |b|`` within KRYLOV_BUDGET iterations.  Every dot
    and norm is `tensor`'s, so the iterates do not depend on the BLAS."""
    x = lu.solve(b)
    r = b - system.kept_product(Kff, x)
    target = KRYLOV_TOL * tensor.norm(b)
    if tensor.norm(r) <= target:
        return x, 0
    z = lu.solve(r)
    p = z
    rz = tensor.dot(r, z)
    for i in range(1, KRYLOV_BUDGET + 1):
        Kp = system.kept_product(Kff, p)
        pKp = tensor.dot(p, Kp)
        if not pKp > 0.0:
            return None, i
        alpha = rz / pKp
        x += alpha * p
        r -= alpha * Kp
        if tensor.norm(r) <= target:
            return x, i
        z = lu.solve(r)
        rz, rz_last = tensor.dot(r, z), rz
        p = z + (rz / rz_last) * p
    return None, KRYLOV_BUDGET


def _iterate(problem, initial, method):
    """The sweep loop of every method: ``u += step * delta`` with
    ``L delta = -residual(u)`` (see the module docstring).

    Both methods factorize their first sweep's operator, and that factor
    is the solve's.  The chord iteration solves every later sweep with it
    too, takes full steps, and raises ContractionLost after three
    consecutive non-contracting sweeps.  A later Newton sweep assembles
    the tangent at its iterate and solves it by `_krylov_solve`, CG
    preconditioned with the solve's factor; a breakdown or a spent budget
    factorizes that tangent instead, which becomes the solve's factor
    (the chord iteration is this loop with a Krylov budget of zero and no
    new tangent).  Newton backtracks on the potential; an accepted
    trial's elastic state and potential are the next sweep's, so each
    iterate's elastic state is computed once and the state is dropped on
    return.  The full operator is dropped once K_ff is gathered, and the
    old factor before a new one is made, so a solve holds one factor at a
    time; no factor outlives its solve.  Convergence needs the increment
    and the residual below their tolerances at once; `rho_hat` is the
    largest observed increment ratio.
    """
    ws = problem.workspace
    opts = problem.options
    system = ws.system
    newton = method == "newton"
    state = ws.elastic_state(_initial_guess(ws, initial))
    r, rn, P = ws.residual(state)
    done = rn <= 1e-10
    if not done:
        # a cold start is the u = 0 state the chord operator is built at
        K = (ws.stiffness(state) if newton or initial is None
             else assemble_linearized_at_zero(problem))
        tol_inc, tol_res = _tolerances(ws, K)
        done = rn <= tol_res
    free = system.free
    increments = []
    rho_hat = 0.0
    bad = k = factorizations = krylov = 0
    base = None
    while not done:
        if k >= opts.max_iterations:
            if newton:
                raise NoConvergence("Newton did not converge in %d sweeps "
                                    "(residual %.3e)" % (k, rn), iterations=k)
            raise NoConvergence("fixed-point iteration did not converge in %d "
                                "sweeps (residual %.3e); data may lie outside "
                                "the contraction regime" % (k, rn),
                                iterations=k)
        k += 1
        rf = r[free]
        solved = None
        sweep_krylov = 0
        if k > 1 and newton:
            Kff = system.kept_ff(ws.stiffness(state))
            solved, sweep_krylov = _krylov_solve(system, Kff, lu, rf)
            krylov += sweep_krylov
        if k == 1 or (newton and solved is None):
            # one factor at a time: drop the last before the next
            lu = None
            try:
                lu = system.factor(K) if k == 1 else system.factor_kept(Kff)
            except SingularSystem as exc:
                if not newton:
                    raise
                raise SingularJacobian("Newton tangent singular at sweep %d: "
                                       "%s" % (k, exc))
            factorizations += 1
        K = Kff = None
        delta = -(lu.solve(rf) if solved is None else solved)
        step = 1.0
        if newton:
            slope = tensor.dot(rf, delta)
            if base is None:
                base = ws.potential(state)
            # absolute slack keeps the test meaningful once energy
            # differences reach rounding level near the solution
            slack = 64.0 * np.finfo(float).eps * (1.0 + abs(base))
            while step > 1e-6:
                try:
                    trial = ws.elastic_state(_stepped(state, free,
                                                      step * delta))
                    value = ws.potential(trial)
                except (OutsideAdmissibleBall, SingularMatrix):
                    value = np.inf
                if value <= base + 1e-4 * step * slope + slack:
                    break
                step *= 0.5
            else:
                raise NoConvergence("line search failed at sweep %d" % k,
                                    iterations=k)
            base = value
        inc = step * tensor.norm(delta)
        increments.append(inc)
        if len(increments) >= 2 and increments[-2] > 1e-300:
            ratio = inc / increments[-2]
            rho_hat = max(rho_hat, ratio)
            bad = bad + 1 if ratio >= 1.0 else 0
            if bad >= 3 and not newton:
                raise ContractionLost(
                    "increment ratio >= 1 for three consecutive sweeps "
                    "(last ratio %.3g)" % ratio)
        state = (trial if newton
                 else ws.elastic_state(_stepped(state, free, step * delta)))
        r, rn, P = ws.residual(state)
        _diag_line(opts, k, inc, rn, rho_hat, sweep_krylov)
        done = inc <= tol_inc and rn <= tol_res
    return EquilibriumSolution(state.u, ws.f_tilde, k, increments, rn,
                               rho_hat, method, P, factorizations, krylov)


def solve_fixed_point(problem, initial=None):
    """Frozen-linearization (chord) iteration from the given start: the
    stiffness at u = 0 is assembled and factorized once, and three
    consecutive non-contracting sweeps raise ContractionLost (data outside
    the contraction regime)."""
    return _iterate(problem, initial, "fixed_point")


def solve_newton(problem, initial=None):
    """Newton's method with the tangent reassembled at every sweep and
    backtracking on the potential; the first tangent is factorized and
    preconditions CG on the later ones."""
    return _iterate(problem, initial, "newton")


def solve_equilibrium(problem, initial=None):
    """Dispatch on the configured method."""
    method = problem.options.method
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    solve = solve_fixed_point if method == "fixed_point" else solve_newton
    return solve(problem, initial=initial)
