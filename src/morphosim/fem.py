"""First-order finite elements on triangle meshes: assembly of scalar and
vector elliptic operators, sparse solves, and gradient transfer.

Degrees of freedom: scalar problems use one dof per vertex; vector
problems interleave components, ``dof = 2 * vertex + component``.
Dirichlet constraints are imposed by row/column elimination with a
symmetric right-hand-side correction, so the reduced operator stays
symmetric positive definite and amenable to conjugate gradients.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (AssemblyError, EllipticityViolation, NoConvergence,
                     SingularSystem)
from .mesh import EDGE_POINTS, EDGE_WEIGHTS, TRI_POINTS


# ---------------------------------------------------------------------------
# linear systems


@dataclass
class SparseSystem:
    """Assembled linear system with strong Dirichlet constraints.

    `matrix` is the full (unconstrained) operator in CSR form; `rhs` the
    full load vector; `fixed_dofs`/`fixed_values` list the constrained
    degrees of freedom.  The reduced operator (free rows/columns) is
    symmetric whenever the assembled operator is.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    fixed_dofs: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    fixed_values: np.ndarray = field(default_factory=lambda: np.array([]))

    def free_dofs(self):
        mask = np.ones(self.matrix.shape[0], dtype=bool)
        mask[self.fixed_dofs] = False
        return np.nonzero(mask)[0]

    def reduced(self):
        """(K_ff, b_f - K_fc u_c, free_index) for the elimination solve.

        The K_fc u_c product is skipped when every fixed value is zero: it
        is then exactly zero for finite K, and b_f - 0 is b_f bit for bit.
        """
        free = self.free_dofs()
        Kf = self.matrix[free]
        Kff = Kf[:, free].tocsc()
        bf = self.rhs[free]
        if np.any(np.asarray(self.fixed_values) != 0.0):
            bf = bf - Kf[:, self.fixed_dofs] @ self.fixed_values
        return Kff, bf, free

    def symmetry_error(self):
        """Relative asymmetry of the reduced operator."""
        Kff, _, _ = self.reduced()
        if Kff.shape[0] == 0:
            return 0.0
        diff = (Kff - Kff.T).tocoo()
        scale = np.max(np.abs(Kff.data)) if Kff.nnz else 1.0
        if diff.nnz == 0 or scale == 0.0:
            return 0.0
        return float(np.max(np.abs(diff.data)) / scale)

    def full_solution(self, x_free):
        x = np.zeros(self.matrix.shape[0])
        x[self.free_dofs()] = x_free
        if len(self.fixed_dofs):
            x[self.fixed_dofs] = self.fixed_values
        return x


def _factorize_spd(Kcsc):
    """LU of a (presumed) SPD matrix with symmetric pivoting disabled, so
    the U diagonal exposes the pivot signs."""
    try:
        lu = spla.splu(Kcsc, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularSystem("sparse factorization failed: %s" % exc)
    pivots = lu.U.diagonal()
    pmax = float(np.max(np.abs(pivots))) if len(pivots) else 1.0
    if np.any(pivots <= 0.0) or (len(pivots) and
                                 float(np.min(np.abs(pivots))) <= 1e-13 * pmax):
        raise SingularSystem("non-positive or vanishing pivot "
                             "(matrix not SPD on free dofs)")
    return lu


def _cg_jacobi(K, b, tol, max_iterations):
    """Plain conjugate gradients with a diagonal preconditioner.

    Raises SingularSystem on a non-positive curvature direction and
    NoConvergence when the iteration budget runs out.
    """
    diag = K.diagonal()
    if np.any(diag <= 0.0):
        raise SingularSystem("non-positive diagonal entry")
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, 0
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    for k in range(max_iterations):
        if np.linalg.norm(r) <= tol * bnorm:
            return x, k
        Kp = K @ p
        pKp = float(p @ Kp)
        if pKp <= 0.0:
            raise SingularSystem("conjugate gradient breakdown (pAp <= 0)")
        alpha = rz / pKp
        x += alpha * p
        r -= alpha * Kp
        z = r / diag
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise NoConvergence("conjugate gradients did not reach tol %.1e in %d "
                        "iterations" % (tol, max_iterations),
                        iterations=max_iterations)


def solve_sparse(system, tol=1e-12, direct_threshold=50000,
                 max_iterations=None):
    """Solve an assembled system; returns the full nodal vector.

    Direct sparse factorization below `direct_threshold` free dofs,
    Jacobi-preconditioned conjugate gradients above.  The solution is
    verified against ``||K x - b|| <= tol * ||b||`` (absolute when b = 0).

    Raises
    ------
    SingularSystem
        Non-positive pivot or CG breakdown (operator not SPD / singular).
    NoConvergence
        Iterative path exhausted its budget or the residual check failed.
    """
    Kff, bf, _ = system.reduced()
    x, _ = solve_reduced(Kff, bf, tol=tol, direct_threshold=direct_threshold,
                         max_iterations=max_iterations)
    return system.full_solution(x)


def solve_reduced(Kff, bf, tol=1e-12, direct_threshold=50000,
                  max_iterations=None):
    """Solve an already reduced system ``K_ff x = b_f`` as `solve_sparse`
    does; returns the free values and the residual norm ``|K_ff x - b_f|``
    that the solve was verified against (0.0 without free dofs)."""
    n = Kff.shape[0]
    if n == 0:
        return np.zeros(0), 0.0
    if not np.all(np.isfinite(bf)):
        raise AssemblyError("non-finite right-hand side")
    if n <= direct_threshold:
        lu = _factorize_spd(Kff)
        x = lu.solve(bf)
    else:
        x, _ = _cg_jacobi(Kff.tocsr(), bf, tol,
                          max_iterations or max(1000, 20 * n))
    scale = np.linalg.norm(bf)
    resid = np.linalg.norm(Kff @ x - bf)
    if resid > tol * max(scale, 1e-300) and resid > 10 * tol * max(1.0, np.linalg.norm(x)):
        raise NoConvergence("linear solve residual %.3e exceeds tolerance"
                            % resid)
    return x, float(resid)


def smallest_eigenvalue_estimate(system, iterations=200, tol=1e-5, seed=7):
    """Inverse power iteration for the smallest eigenvalue of the reduced
    operator (symmetric input assumed); ~1e-3 relative accuracy."""
    Kff, _, _ = system.reduced()
    n = Kff.shape[0]
    if n == 0:
        raise ValueError("no free degrees of freedom")
    try:
        lu = spla.splu(Kff, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystem("factorization failed: %s" % exc)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = float(v @ (Kff @ v))
    for _ in range(iterations):
        w = lu.solve(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise SingularSystem("inverse iteration collapsed")
        v = w / nw
        lam_next = float(v @ (Kff @ v))
        if abs(lam_next - lam) <= tol * max(abs(lam_next), 1e-300):
            return lam_next
        lam = lam_next
    raise NoConvergence("eigenvalue estimate did not settle in %d iterations"
                        % iterations, iterations=iterations)


# ---------------------------------------------------------------------------
# assembly


def _as_quad_array(mesh, value, trailing):
    """Coefficient at quadrature points: pass through arrays of shape
    (cells, nq) + trailing, or evaluate a callable on the points."""
    nq = TRI_POINTS.shape[0]
    target = (mesh.num_cells, nq) + trailing
    if callable(value):
        value = value(mesh.quad_points())
    value = np.asarray(value, dtype=float)
    return np.broadcast_to(value, target)


def _scatter(n_dofs, edofs, Ke):
    nloc = edofs.shape[1]
    rows = np.repeat(edofs, nloc, axis=1).ravel()
    cols = np.tile(edofs, (1, nloc)).ravel()
    K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(n_dofs, n_dofs))
    return K.tocsr()


def _min_eig_sym2(D):
    a = D[..., 0, 0]
    c = D[..., 1, 1]
    b = 0.5 * (D[..., 0, 1] + D[..., 1, 0])
    mid = 0.5 * (a + c)
    rad = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    return mid - rad


def _edge_quadrature(mesh, facet_mask):
    """(points (k, 2, 2), weights (k, 2), shape (k, 2 nodes, 2 qp), nodes)"""
    facets = mesh.facets[facet_mask]
    p0 = mesh.vertices[facets[:, 0]]
    p1 = mesh.vertices[facets[:, 1]]
    s = EDGE_POINTS
    pts = p0[:, None, :] + s[None, :, None] * (p1 - p0)[:, None, :]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    weights = lengths[:, None] * EDGE_WEIGHTS[None, :]
    shape = np.stack([1.0 - s, s], axis=0)  # (node, qp)
    return pts, weights, shape, facets


def boundary_load_vector(mesh, facet_mask, load, n_components):
    """Weak boundary load  ``l[A] = sum_facets int load * phi_A ds``.

    `load` is called with the quadrature points (k, q, 2) and the matching
    outward unit normals; it must return values of shape (k, q) for
    scalars or (k, q, n_components) for vectors.
    """
    n = mesh.num_vertices * n_components
    out = np.zeros(n)
    if not np.any(facet_mask):
        return out
    pts, weights, shape, facets = _edge_quadrature(mesh, facet_mask)
    normals = mesh.facet_normals()[facet_mask]
    normals_q = np.broadcast_to(normals[:, None, :], pts.shape)
    values = np.asarray(load(pts, normals_q), dtype=float)
    if not np.all(np.isfinite(values)):
        raise AssemblyError("non-finite boundary load")
    if n_components == 1:
        contrib = np.einsum("kq,Aq,kq->kA", weights, shape, values)
        np.add.at(out, facets, contrib)
    else:
        contrib = np.einsum("kq,Aq,kqi->kAi", weights, shape, values)
        dofs = n_components * facets[:, :, None] + np.arange(n_components)
        np.add.at(out, dofs, contrib)
    return out


def dirichlet_constraints(mesh, nodes, data, n_components):
    """(dofs, values) for strong imposition of `data` at `nodes`.

    `data` may be a callable on points, a constant, or an array of nodal
    values aligned with `nodes`.
    """
    nodes = np.asarray(nodes, dtype=int)
    if callable(data):
        values = np.asarray(data(mesh.vertices[nodes]), dtype=float)
    else:
        values = np.asarray(data, dtype=float)
        if values.ndim == 0:
            values = np.full((len(nodes),) if n_components == 1
                             else (len(nodes), n_components), float(values))
    if n_components == 1:
        values = values.reshape(len(nodes))
        return nodes.copy(), values
    values = np.broadcast_to(values.reshape(len(nodes), n_components),
                             (len(nodes), n_components))
    dofs = (n_components * nodes[:, None] + np.arange(n_components)).ravel()
    return dofs, values.ravel().copy()


def assemble_vector_operator(mesh, coeff, neumann_load=None, volume_load=None,
                             dirichlet=None):
    """Stiffness of the second-order system with fourth-order coefficient A:

        (v, u)  ->  int_Omega A[i, j, a, b] d_a v^i d_b u^j dx

    plus weak Neumann loads on the elastic-Neumann boundary part, weak
    volume loads, and strong Dirichlet values on the elastic-Dirichlet
    part.

    Parameters
    ----------
    coeff : (cells, nq, 2, 2, 2, 2) array or callable(points) -> same
        Coefficient tensor per quadrature point; index order is
        (test component, trial component, test derivative,
        trial derivative).
    neumann_load : callable(points, normals) -> (k, q, 2), optional
    volume_load : (cells, nq, 2) array or callable(points), optional
    dirichlet : callable(points) -> (k, 2), array, constant, or
        (dofs, values) pair; None means homogeneous.
    """
    A = _as_quad_array(mesh, coeff, (2, 2, 2, 2))
    if not np.all(np.isfinite(A)):
        raise AssemblyError("non-finite coefficient tensor")
    w = mesh.quad_weights()
    g = mesh.cell_gradients()
    Ke = np.einsum("cq,cqijab,cAa,cBb->cAiBj", w, A, g, g, optimize=True)
    edofs = (2 * mesh.cells[:, :, None] + np.arange(2)).reshape(-1, 6)
    K = _scatter(2 * mesh.num_vertices, edofs, Ke.reshape(-1, 6, 6))

    rhs = np.zeros(2 * mesh.num_vertices)
    if volume_load is not None:
        f = _as_quad_array(mesh, volume_load, (2,))
        if not np.all(np.isfinite(f)):
            raise AssemblyError("non-finite volume load")
        be = np.einsum("cq,qA,cqi->cAi", w, TRI_POINTS, f)
        np.add.at(rhs, 2 * mesh.cells[:, :, None] + np.arange(2), be)
    if neumann_load is not None:
        rhs += boundary_load_vector(mesh, ~mesh.facet_elastic_dirichlet,
                                    neumann_load, 2)

    if isinstance(dirichlet, tuple) and len(dirichlet) == 2 \
            and not callable(dirichlet):
        fixed_dofs, fixed_values = dirichlet
        fixed_dofs = np.asarray(fixed_dofs, dtype=int)
        fixed_values = np.asarray(fixed_values, dtype=float)
    else:
        nodes = mesh.elastic_dirichlet_nodes()
        data = dirichlet if dirichlet is not None else 0.0
        fixed_dofs, fixed_values = dirichlet_constraints(mesh, nodes, data, 2)
    return SparseSystem(K, rhs, fixed_dofs, fixed_values)


def assemble_scalar_operator(mesh, diffusion, reaction=0.0, neumann_flux=None,
                             dirichlet=None, ellipticity_nu=None):
    """System for the reaction-diffusion form

        (v, u)  ->  int_Omega grad v . D grad u + r u v dx

    with weak flux data on the nutrient-Neumann part and strong Dirichlet
    values on the nutrient-Dirichlet part.

    Raises EllipticityViolation when a sampled diffusion matrix has an
    eigenvalue below `ellipticity_nu`, and AssemblyError on non-finite or
    negative-reaction input.
    """
    D = _as_quad_array(mesh, diffusion, (2, 2))
    r = _as_quad_array(mesh, reaction, ())
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(r))):
        raise AssemblyError("non-finite coefficient")
    if np.any(r < 0.0):
        raise AssemblyError("negative reaction coefficient")
    if ellipticity_nu is not None:
        worst = float(np.min(_min_eig_sym2(D)))
        if worst < ellipticity_nu - 1e-14:
            raise EllipticityViolation(
                "diffusion eigenvalue %.6g below ellipticity constant %.6g"
                % (worst, ellipticity_nu))
    w = mesh.quad_weights()
    g = mesh.cell_gradients()
    Ke = np.einsum("cq,cAa,cqab,cBb->cAB", w, g, D, g, optimize=True)
    Ke += np.einsum("cq,cq,qA,qB->cAB", w, r, TRI_POINTS, TRI_POINTS,
                    optimize=True)
    K = _scatter(mesh.num_vertices, mesh.cells, Ke)

    rhs = np.zeros(mesh.num_vertices)
    if neumann_flux is not None:
        rhs += boundary_load_vector(mesh, ~mesh.facet_nutrient_dirichlet,
                                    neumann_flux, 1)
    if isinstance(dirichlet, tuple) and len(dirichlet) == 2 \
            and not callable(dirichlet):
        fixed_dofs, fixed_values = dirichlet
        fixed_dofs = np.asarray(fixed_dofs, dtype=int)
        fixed_values = np.asarray(fixed_values, dtype=float)
    else:
        nodes = mesh.nutrient_dirichlet_nodes()
        data = dirichlet if dirichlet is not None else 0.0
        fixed_dofs, fixed_values = dirichlet_constraints(mesh, nodes, data, 1)
    return SparseSystem(K, rhs, fixed_dofs, fixed_values)


# ---------------------------------------------------------------------------
# gradient transfer


def interpolate_gradient(mesh, values):
    """Piecewise-constant gradient of the nodal interpolant.

    Scalar fields (n,) yield (cells, 2); vector fields (n, k) yield
    (cells, k, 2) with entry [c, i, a] = d_a v^i on cell c.
    """
    values = np.asarray(values, dtype=float)
    g = mesh.cell_gradients()
    local = values[mesh.cells]
    if values.ndim == 1:
        return np.einsum("cA,cAa->ca", local, g)
    return np.einsum("cAi,cAa->cia", local, g)


def nodal_from_cells(mesh, cell_values):
    """Volume-weighted transfer of per-cell values to the vertices."""
    cell_values = np.asarray(cell_values, dtype=float)
    n = mesh.num_vertices
    vols = mesh.cell_volumes()
    column = (-1,) + (1,) * (cell_values.ndim - 1)
    weighted = np.tile((vols.reshape(column) * cell_values).reshape(
        len(vols), -1), (3, 1))
    # corner-major order: each vertex sums its cells' contributions in the
    # same order as one scatter-add per corner would
    corners = mesh.cells.T.ravel()
    acc = np.empty((n, weighted.shape[1]))
    for j in range(weighted.shape[1]):
        acc[:, j] = np.bincount(corners, weights=weighted[:, j], minlength=n)
    den = np.bincount(corners, weights=np.tile(vols, 3), minlength=n)
    return acc.reshape((n,) + cell_values.shape[1:]) / den.reshape(column)


def growth_at_quadrature(mesh, growth):
    """Sample a growth description at the volume quadrature points.

    `growth` is a nodal (n, 2, 2) field (P1-interpolated), a callable on
    points, or an already-sampled (cells, nq, 2, 2) array; the latter two
    let compatible benchmarks avoid compounding interpolation error.
    Returns (cells, nq, 2, 2).
    """
    nq = TRI_POINTS.shape[0]
    if callable(growth):
        return np.asarray(growth(mesh.quad_points()), dtype=float)
    growth = np.asarray(growth, dtype=float)
    if growth.shape == (mesh.num_cells, nq, 2, 2):
        return growth
    if growth.shape == (mesh.num_vertices, 2, 2):
        return np.einsum("qA,cAij->cqij", TRI_POINTS, growth[mesh.cells])
    raise ValueError("growth field must be nodal (n, 2, 2), per-quadrature "
                     "(cells, nq, 2, 2), or callable")


def growth_at_nodes(mesh, growth):
    """Nodal values of a growth description, or None when the description
    only exists at quadrature points."""
    nq = TRI_POINTS.shape[0]
    if callable(growth):
        return np.asarray(growth(mesh.vertices), dtype=float)
    growth = np.asarray(growth, dtype=float)
    if growth.shape == (mesh.num_cells, nq, 2, 2):
        return None
    return growth
