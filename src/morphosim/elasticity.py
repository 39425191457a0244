"""Quasi-static equilibrium solves for a given growth tensor field.

The unknown is the displacement ``u = y - f_tilde`` relative to the
interior lift of the Dirichlet data, so u vanishes on the elastic
Dirichlet part.  Two solution methods are provided:

* `solve_fixed_point` iterates the frozen-linearization map
  ``u -> u - L^{-1}[residual(u)]`` with the stiffness L assembled once at
  u = 0 (a chord iteration, contractive for small data), and
* `solve_newton` reassembles the tangent at every step (with optional
  backtracking on the potential).

Both converge to the same discrete solution; the residual of either is
the weak form of the stress divergence plus traction terms.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, tensor
from .errors import (ContractionLost, EllipticityViolation, LiftDegenerate,
                     NoConvergence, OutsideAdmissibleBall, SingularJacobian,
                     SingularMatrix, SingularSystem, ValidationError)


@dataclass
class SolverOptions:
    """Tolerances and method selection for equilibrium solves.

    `tol_increment` defaults to ``1e-11 * (1 + max|f_tilde|)`` and
    `tol_residual` to ``1e-10 * max|K|`` with K the assembled stiffness;
    both must hold simultaneously for convergence.
    """

    method: str = "fixed_point"  # fixed_point | newton | hybrid
    tol_increment: float = None
    tol_residual: float = None
    max_iterations: int = 50
    line_search: bool = True
    warm_start: bool = True
    check_ellipticity: bool = False
    growth_radius: float = None  # optional guard on max|G - 1| at nodes
    diagnostics: object = None   # file-like sink for per-iteration CSV


@dataclass
class EquilibriumProblem:
    """One equilibrium solve: mesh, energy model, growth field, and data.

    `growth` is a nodal (n, 2, 2) array or a callable on points (used by
    compatible benchmarks for quadrature-exact sampling).
    `dirichlet_data` maps boundary points to prescribed positions (units of
    length); `neumann_traction` maps (points, outward normals) to tractions
    (force/area) on the elastic Neumann part, or is None.
    """

    mesh: object
    energy: object
    growth: object
    dirichlet_data: object
    neumann_traction: object = None
    options: SolverOptions = field(default_factory=SolverOptions)


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

    @property
    def deformation(self):
        """Total deformation y = u + f_tilde at the nodes."""
        return self.displacement + self.lifted_data


# ---------------------------------------------------------------------------
# Dirichlet lifting


def _lift_solver(mesh):
    """Cached scalar Laplace factorization for the harmonic extension."""
    if "lift_solver" not in mesh._cache:
        w = mesh.quad_weights()
        g = mesh.cell_gradients()
        Ke = np.einsum("cq,cAa,cBa->cAB", w, g, g)
        K = fem._scatter(mesh.num_vertices, mesh.cells, Ke)
        nodes = mesh.elastic_dirichlet_nodes()
        free = np.ones(mesh.num_vertices, dtype=bool)
        free[nodes] = False
        free_idx = np.nonzero(free)[0]
        Kff = K[free_idx][:, free_idx].tocsc()
        Kfc = K[free_idx][:, nodes].tocsr()
        lu = fem._factorize_spd(Kff) if len(free_idx) else None
        mesh._cache["lift_solver"] = (lu, Kfc, free_idx, nodes)
    return mesh._cache["lift_solver"]


def lift_dirichlet(mesh, dirichlet_data, with_gradient=False):
    """Extend boundary positions into the domain: ``f_tilde = id + E(f - id)``
    with E the discrete harmonic extension (natural condition on the
    Neumann part).

    Affine data on a full Dirichlet boundary is reproduced exactly.  The
    extension must stay locally orientation preserving; otherwise
    LiftDegenerate is raised.  With `with_gradient`, returns
    ``(f_tilde, grad f_tilde)``, the per-cell gradient the orientation
    check computed.
    """
    lu, Kfc, free_idx, nodes = _lift_solver(mesh)
    shift = np.zeros((mesh.num_vertices, 2))
    if len(nodes):
        bc = np.asarray(dirichlet_data(mesh.vertices[nodes]), dtype=float)
        shift[nodes] = bc.reshape(len(nodes), 2) - mesh.vertices[nodes]
        if len(free_idx):
            rhs = -(Kfc @ shift[nodes])
            shift[free_idx, 0] = lu.solve(rhs[:, 0])
            shift[free_idx, 1] = lu.solve(rhs[:, 1])
    f_tilde = mesh.vertices + shift
    jac = fem.interpolate_gradient(mesh, f_tilde)
    if np.any(np.linalg.det(jac) <= 0.0):
        raise LiftDegenerate("lifted Dirichlet data folds some cell "
                             "(det grad f_tilde <= 0)")
    return (f_tilde, jac) if with_gradient else f_tilde


# ---------------------------------------------------------------------------
# per-problem workspace


def _dof_maps(mesh):
    """Cached elastic dof maps: fixed dofs, free-dof mask, element dofs."""
    if "elastic_dofs" not in mesh._cache:
        nodes = mesh.elastic_dirichlet_nodes()
        fixed = (2 * nodes[:, None] + np.arange(2)).ravel()
        free = np.ones(2 * mesh.num_vertices, dtype=bool)
        free[fixed] = False
        edofs = 2 * mesh.cells[:, :, None] + np.arange(2)
        for shared in (fixed, free, edofs):
            shared.flags.writeable = False
        mesh._cache["elastic_dofs"] = (fixed, free, edofs)
    return mesh._cache["elastic_dofs"]


class _Workspace:
    def __init__(self, problem):
        mesh = problem.mesh
        self.mesh = mesh
        self.energy = problem.energy
        self.weights = mesh.quad_weights()
        self.grads = mesh.cell_gradients()
        self.qpoints = mesh.quad_points()
        self.Gq = fem.growth_at_quadrature(mesh, problem.growth)
        detGq = np.linalg.det(self.Gq)
        if np.any(detGq <= 0.0):
            raise ValidationError("growth tensor with non-positive determinant")
        Gn = fem.growth_at_nodes(mesh, problem.growth)
        if Gn is not None:
            if np.any(np.linalg.det(Gn) <= 0.0):
                raise ValidationError("growth tensor with non-positive nodal "
                                      "determinant")
            radius = problem.options.growth_radius
            if radius is not None:
                dev = float(np.max(tensor.max_abs(Gn - np.eye(2))))
                if dev >= radius:
                    raise ValidationError(
                        "growth field outside configured ball: max|G-1| = "
                        "%.3g" % dev)
        self.detGq = detGq
        self.Ginvq = np.linalg.inv(self.Gq)
        self.f_tilde, self.grad_ft = lift_dirichlet(
            mesh, problem.dirichlet_data, with_gradient=True)
        if len(mesh.elastic_dirichlet_nodes()) == 0:
            raise ValidationError("elastic Dirichlet part must be non-empty")
        self.fixed_dofs, self.free, self.edofs = _dof_maps(mesh)
        if problem.neumann_traction is not None:
            self.traction_load = fem.boundary_load_vector(
                mesh, ~mesh.facet_elastic_dirichlet,
                problem.neumann_traction, 2)
        else:
            self.traction_load = np.zeros(2 * mesh.num_vertices)

    def elastic_state(self, u):
        """F_el = (grad u + grad f_tilde) G^{-1} at the quadrature points."""
        gradu = fem.interpolate_gradient(self.mesh, u)
        F = gradu + self.grad_ft
        Fel = np.einsum("cij,cqjk->cqik", F, self.Ginvq)
        dev = tensor.max_abs(Fel - np.eye(2))
        worst = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[worst] >= self.energy.admissible_radius:
            raise OutsideAdmissibleBall(
                "elastic state left the admissible ball on cell %d "
                "(max|F_el - 1| = %.4g)" % (worst[0], float(dev[worst])),
                worst_cell=int(worst[0]), deviation=float(dev[worst]))
        return Fel

    def stress(self, u):
        """First Piola-Kirchhoff stress at the quadrature points."""
        Fel = self.elastic_state(u)
        DW = self.energy.first_derivative(self.qpoints, Fel)
        return self.detGq[..., None, None] * np.einsum(
            "cqij,cqkj->cqik", DW, self.Ginvq)

    def residual(self, u):
        """Weak residual over all dofs, its norm on the free dofs, and the
        stress it was built from."""
        P = self.stress(u)
        contrib = np.einsum("cq,cqia,cAa->cAi", self.weights, P, self.grads)
        # bincount adds in index order, as a scatter-add would
        r = np.bincount(self.edofs.ravel(), weights=contrib.ravel(),
                        minlength=2 * self.mesh.num_vertices)
        r -= self.traction_load
        return r, float(np.linalg.norm(r[self.free])), P

    def coefficient_tensor(self, u):
        """Fourth-order stiffness coefficients at the quadrature points:

        A[i, j, a, b] = det(G) * sum_{p, q} H[i, p, j, q] Ginv[a, p] Ginv[b, q]

        with H the energy Hessian at the current elastic state.
        """
        Fel = self.elastic_state(u)
        H = self.energy.second_derivative(self.qpoints, Fel)
        A = np.einsum("cqipjr,cqap,cqbr->cqijab", H, self.Ginvq, self.Ginvq,
                      optimize=True)
        return self.detGq[:, :, None, None, None, None] * A

    def stiffness(self, u):
        A = self.coefficient_tensor(u)
        zeros = np.zeros(len(self.fixed_dofs))
        return fem.assemble_vector_operator(
            self.mesh, A, dirichlet=(self.fixed_dofs, zeros))

    def energy_value(self, u):
        Fel = self.elastic_state(u)
        W = self.energy.evaluate(self.qpoints, Fel)
        return float(np.einsum("cq,cq->", self.weights, self.detGq * W))

    def potential(self, u):
        """Elastic energy minus traction work (Newton line-search merit)."""
        y = (u + self.f_tilde).ravel()
        return self.energy_value(u) - float(self.traction_load @ y)


def prepare(problem):
    ws = getattr(problem, "_workspace", None)
    if ws is None:
        ws = _Workspace(problem)
        problem._workspace = ws
    return ws


# ---------------------------------------------------------------------------
# public operations


def residual(problem, u):
    """Weak equilibrium residual of the displacement u (full vector, free
    norm).  Raises OutsideAdmissibleBall with the worst cell on guard
    failure."""
    r, rn, _ = prepare(problem).residual(u)
    return r, rn


def assemble_linearized_at_zero(problem):
    """Stiffness of the linearization at u = 0 (coefficients evaluated at
    the lifted Dirichlet data), with homogeneous constraints on the elastic
    Dirichlet part.  Symmetric positive definite for admissible data."""
    ws = prepare(problem)
    system = ws.stiffness(np.zeros((ws.mesh.num_vertices, 2)))
    if problem.options.check_ellipticity:
        lam = fem.smallest_eigenvalue_estimate(system)
        if lam <= 0.0:
            raise EllipticityViolation(
                "linearized operator not positive definite "
                "(smallest eigenvalue %.3e)" % lam)
    return system


def elastic_energy(problem, u):
    """Growth-weighted stored energy of the deformation y = u + f_tilde."""
    return prepare(problem).energy_value(u)


def stress_field(problem, u):
    """Quadrature-point Piola stress, shape (cells, nq, 2, 2)."""
    return prepare(problem).stress(u)


def _tolerances(problem, ws, stiffness_scale):
    opts = problem.options
    tol_inc = opts.tol_increment
    if tol_inc is None:
        tol_inc = 1e-11 * (1.0 + float(np.max(np.abs(ws.f_tilde))))
    tol_res = opts.tol_residual
    if tol_res is None:
        tol_res = 1e-10 * max(stiffness_scale, 1e-12)
    return tol_inc, tol_res


def _diag_line(opts, k, inc, rn, rho):
    if opts.diagnostics is not None:
        opts.diagnostics.write("%d,%.17g,%.17g,%.17g\n" % (k, inc, rn, rho))


def _initial_guess(ws, initial):
    """Copy the start iterate and enforce u = 0 on the Dirichlet dofs (warm
    starts hand over y_prev - f_tilde_new, which is nonzero there)."""
    if initial is None:
        return np.zeros((ws.mesh.num_vertices, 2))
    u = np.array(initial, dtype=float, copy=True).reshape(-1, 2)
    u.reshape(-1)[ws.fixed_dofs] = 0.0
    return u


def frozen_update(problem, u):
    """One application of the frozen-linearization map
    ``u -> u - L^{-1}[residual(u)]`` (the solver's inner step, exposed for
    verification)."""
    ws = prepare(problem)
    system = assemble_linearized_at_zero(problem)
    Kff, _, free = system.reduced()
    lu = fem._factorize_spd(Kff)
    u = _initial_guess(ws, u)
    r, _, _ = ws.residual(u)
    unew = u.reshape(-1)
    unew[free] -= lu.solve(r[free])
    return unew.reshape(-1, 2)


def solve_fixed_point(problem, initial=None):
    """Frozen-linearization (chord) iteration from the given start.

    The stiffness is assembled once at u = 0 and reused; each sweep solves
    ``L delta = -residual(u)``.  Convergence requires increment and
    residual below their tolerances simultaneously; an iterate whose
    residual already meets the tolerance converges with zero sweeps (the
    increment is then zero by convention).  The largest observed increment
    ratio is reported as `rho_hat`; three consecutive non-contracting
    sweeps raise ContractionLost, and the iteration budget raises
    NoConvergence (data outside the contraction regime).
    """
    ws = prepare(problem)
    opts = problem.options
    u = _initial_guess(ws, initial)
    r, rn, P = ws.residual(u)
    floor = opts.tol_residual if opts.tol_residual is not None else 1e-10
    if rn <= floor:
        return EquilibriumSolution(u, ws.f_tilde, 0, [], rn, 0.0,
                                   "fixed_point", P)
    system = assemble_linearized_at_zero(problem)
    Kff, _, free = system.reduced()
    lu = fem._factorize_spd(Kff)
    scale = float(np.max(np.abs(system.matrix.data)))
    tol_inc, tol_res = _tolerances(problem, ws, scale)

    increments = []
    rho_hat = 0.0
    bad = 0
    for k in range(1, opts.max_iterations + 1):
        delta = lu.solve(r[free])
        flat = u.reshape(-1)
        flat[free] -= delta
        inc = float(np.linalg.norm(delta))
        increments.append(inc)
        if len(increments) >= 2 and increments[-2] > 1e-300:
            ratio = inc / increments[-2]
            rho_hat = max(rho_hat, ratio)
            bad = bad + 1 if ratio >= 1.0 else 0
            if bad >= 3:
                raise ContractionLost(
                    "increment ratio >= 1 for three consecutive sweeps "
                    "(last ratio %.3g)" % ratio)
        r, rn, P = ws.residual(u)
        _diag_line(opts, k, inc, rn, rho_hat)
        if inc <= tol_inc and rn <= tol_res:
            return EquilibriumSolution(u, ws.f_tilde, k, increments, rn,
                                       rho_hat, "fixed_point", P)
    raise NoConvergence("fixed-point iteration did not converge in %d sweeps "
                        "(residual %.3e); data may lie outside the "
                        "contraction regime" % (opts.max_iterations, rn),
                        iterations=opts.max_iterations)


def solve_newton(problem, initial=None):
    """Newton's method with the tangent reassembled at the current iterate
    and optional backtracking on the potential.  The potential of an
    accepted trial is the next sweep's base value (the trial iterate and
    the updated one are equal bit for bit)."""
    ws = prepare(problem)
    opts = problem.options
    u = _initial_guess(ws, initial)
    r, rn, P = ws.residual(u)
    floor = opts.tol_residual if opts.tol_residual is not None else 1e-10
    if rn <= floor:
        return EquilibriumSolution(u, ws.f_tilde, 0, [], rn, 0.0, "newton",
                                   P)
    system = ws.stiffness(u)
    scale = float(np.max(np.abs(system.matrix.data)))
    tol_inc, tol_res = _tolerances(problem, ws, scale)
    increments = []
    rho_hat = 0.0
    if rn <= tol_res:
        return EquilibriumSolution(u, ws.f_tilde, 0, increments, rn,
                                   rho_hat, "newton", P)
    base = None
    for k in range(1, opts.max_iterations + 1):
        if k > 1:
            system = ws.stiffness(u)
        Kff, _, free = system.reduced()
        try:
            lu = fem._factorize_spd(Kff)
        except SingularSystem as exc:
            raise SingularJacobian("Newton tangent singular at sweep %d: %s"
                                   % (k, exc))
        delta = -lu.solve(r[free])
        step = 1.0
        if opts.line_search:
            slope = float(r[free] @ delta)
            if base is None:
                base = ws.potential(u)
            # absolute slack keeps the test meaningful once energy
            # differences reach rounding level near the solution
            slack = 64.0 * np.finfo(float).eps * (1.0 + abs(base))
            while step > 1e-6:
                trial = u.reshape(-1).copy()
                trial[free] += step * delta
                try:
                    value = ws.potential(trial.reshape(-1, 2))
                except (OutsideAdmissibleBall, SingularMatrix):
                    value = np.inf
                if value <= base + 1e-4 * step * slope + slack:
                    break
                step *= 0.5
            else:
                raise NoConvergence("line search failed at sweep %d" % k,
                                    iterations=k)
            base = value
        flat = u.reshape(-1)
        flat[free] += step * delta
        inc = step * float(np.linalg.norm(delta))
        increments.append(inc)
        if len(increments) >= 2 and increments[-2] > 1e-300:
            rho_hat = max(rho_hat, inc / increments[-2])
        r, rn, P = ws.residual(u)
        _diag_line(opts, k, inc, rn, rho_hat)
        if inc <= tol_inc and rn <= tol_res:
            return EquilibriumSolution(u, ws.f_tilde, k, increments, rn,
                                       rho_hat, "newton", P)
    raise NoConvergence("Newton did not converge in %d sweeps (residual %.3e)"
                        % (opts.max_iterations, rn),
                        iterations=opts.max_iterations)


def solve_equilibrium(problem, initial=None):
    """Dispatch on the configured method; `hybrid` runs one frozen sweep
    and hands the iterate to Newton."""
    method = problem.options.method
    if method == "fixed_point":
        return solve_fixed_point(problem, initial=initial)
    if method == "newton":
        return solve_newton(problem, initial=initial)
    if method == "hybrid":
        u1 = frozen_update(problem, initial if initial is not None
                           else np.zeros((problem.mesh.num_vertices, 2)))
        sol = solve_newton(problem, initial=u1)
        return replace(sol, iterations=sol.iterations + 1, method="hybrid")
    raise ValueError("unknown method %r" % (method,))
